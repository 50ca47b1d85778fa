package mpi

import "unsafe"

// PlanBytes returns the memory a plan's tables occupy: the footprint a
// replay walks once per repetition.
func PlanBytes(p *Plan) int {
	return len(p.rankOff)*int(unsafe.Sizeof(int32(0))) +
		len(p.events)*int(unsafe.Sizeof(planEvent{})) +
		len(p.sends)*int(unsafe.Sizeof(planSend{})) +
		len(p.durs)*int(unsafe.Sizeof(float64(0))) +
		len(p.waitSlots)*int(unsafe.Sizeof(int32(0))) +
		len(p.slotOwner)*int(unsafe.Sizeof(int32(0))) +
		len(p.slotPend)*int(unsafe.Sizeof(uint8(0))) +
		len(p.slotBytes)*int(unsafe.Sizeof(int(0)))
}
