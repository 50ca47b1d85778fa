package mpi

import "unsafe"

// PlanBytes returns the memory a plan's tables occupy: the footprint a
// replay walks once per repetition.
func PlanBytes(p *Plan) int { return planBytes(p, false) }

// CompileCapBytes returns the memory the tables of r's last compile of p
// hold at their capacity: the plan's and the Runner's compile scratch
// (send keys, receive streams and their slots, pair index, bound flags).
func CompileCapBytes(r *Runner, p *Plan) int {
	b := planBytes(p, true) + sliceBytes(r.sendKeys, true) + sliceBytes(r.streams, true) +
		sliceBytes(r.pairStream, true) + sliceBytes(r.bound, true)
	for _, s := range r.streams[:cap(r.streams)] {
		b += sliceBytes(s.slots, true)
	}
	return b
}

// planBytes sums the bytes of p's tables, at their length or capacity.
func planBytes(p *Plan, atCap bool) int {
	return sliceBytes(p.rankOff, atCap) + sliceBytes(p.events, atCap) +
		sliceBytes(p.sends, atCap) + sliceBytes(p.timings, atCap) +
		sliceBytes(p.durs, atCap) + sliceBytes(p.waitSlots, atCap) +
		sliceBytes(p.slotOwner, atCap) + sliceBytes(p.slotPend, atCap) +
		sliceBytes(p.slotBytes, atCap)
}

func sliceBytes[T any](s []T, atCap bool) int {
	n := len(s)
	if atCap {
		n = cap(s)
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
}
