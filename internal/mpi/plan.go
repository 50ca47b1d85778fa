package mpi

import "mpicollperf/internal/simnet"

// Plans: Runner.Compile records the complete structure of one
// repetition of a program — every transfer with its matched receive,
// every wait with the requests it joins, every barrier and marker — as
// an immutable Plan that a Replayer (replay.go) can re-time without
// goroutines, channels, or matching.
//
// A plan is structural: it holds ranks, NICs, byte counts, and request
// wiring, never virtual times. Whether a given structure is valid for
// every repetition is decided by the caller: a stage that declares
// itself timing-independent is trusted, and any other program is
// compiled a second time (Runner.Verify) and must yield an equivalent
// plan (EquivalentTo); a mismatch falls back to the scheduler.

// evKind enumerates plan event kinds.
type evKind uint8

const (
	evSleep evKind = iota
	evSend
	evRecv
	evWait
	evBarrier
	evMark
)

func (k evKind) String() string {
	switch k {
	case evSleep:
		return "sleep"
	case evSend:
		return "send"
	case evRecv:
		return "recv"
	case evWait:
		return "wait"
	case evBarrier:
		return "barrier"
	case evMark:
		return "mark"
	}
	return "unknown"
}

// planEvent is one structural event of a compiled Plan: the part of an
// event that is a function of the program's communication pattern alone —
// kind, endpoints, request wiring — and therefore the same for every
// byte count the program is run at. The owning rank is implicit: events
// are stored rank-major (see Plan.rankOff). Per-point quantities (byte
// counts, link timings, sleep durations, jitter-draw flags) live in the
// parallel planBind array.
type planEvent struct {
	kind   evKind
	srcNIC int32
	dstNIC int32
	slot   int32
	// send: the recv slot the message binds, -1 if never received.
	peerSlot int32
	// peer rank and message tag: the (src, dst, tag) stream a compile
	// pass matches sends to receives on.
	peer int
	tag  int
	wOff int32
	wLen int32
}

// planBind is the per-point binding of one plan event: everything replay
// reads that depends on the operation's sizes rather than its structure.
// All times are precomputed constants (the send's effective LinkTiming
// from simnet.Network.TimingFor, which folds in any time-invariant
// perturbations); virtual times are produced only at replay.
type planBind struct {
	// bytes is the message size (for a receive: the matched message's
	// size, back-filled from the send).
	bytes int
	// lt is the send's effective timing parameters (zero for non-sends);
	// lt.Local marks a co-located send: shared NIC, no ports, no jitter.
	lt simnet.LinkTiming
	// dur is the sleep duration (zero for non-sleeps).
	dur float64
	// draws reports that the send consumes one jitter factor.
	draws bool
}

// Plan is the immutable, replayable structure of one repetition of a
// program, in canonical form. Build one with Runner.Compile; replay it
// with a Replayer.
//
// The canonical form is rank-major: each rank's events in its own program
// order, with barriers (global separators) appearing once in every
// rank's sequence, and request slots numbered in rank-major introduction
// order. No global interleaving is stored — under the scheduler it
// depends on the jitter drawn — so two compiles of a timing-independent
// program yield byte-identical Plans (the EquivalentTo gate), and the
// Replayer recomputes the interleaving per repetition exactly as the
// scheduler would have.
type Plan struct {
	nprocs      int
	nics        int
	slots       int
	draws       int // jitter factors consumed per replay pass
	marks       int // mark events per replay pass
	sends       int // send events per replay pass (precomputed for Sends)
	barrierCost float64
	// rankOff[r]..rankOff[r+1] bound rank r's events; len nprocs+1.
	rankOff []int32
	// events is the structural skeleton; binds is its parallel per-point
	// binding (binds[i] belongs to events[i]).
	events    []planEvent
	binds     []planBind
	waitSlots []int32
	// slotOwner is the rank whose send/recv introduced each slot; slotPend
	// is the number of halves that must complete before the slot's request
	// is bound (1 for a send, 2 for a matched receive: the receive itself
	// and its message's delivery). slotEvent maps each slot to the event
	// that introduced it, so receive byte counts are back-filled from
	// their matched sends without a scratch pass.
	slotOwner []int32
	slotPend  []uint8
	slotEvent []int32
}

// Marks returns the number of mark events one replay pass produces.
func (p *Plan) Marks() int { return p.marks }

// Draws returns the number of jitter factors one replay pass consumes.
func (p *Plan) Draws() int { return p.draws }

// Events returns the number of events one replay pass walks.
func (p *Plan) Events() int { return len(p.events) }

// Sends returns the number of send events one replay pass walks — the
// transfers a single replayed repetition simulates. The count is
// precomputed at compile time; Sends is a field read, never a scan.
func (p *Plan) Sends() int { return p.sends }

// BarrierCost returns the analytical cost of one barrier under the plan's
// runtime options — the constant a replay adds at every barrier release.
// The measurement harness uses it to reconstruct the scheduler program's
// calibrated preamble clocks when replaying a compiled plan from scratch.
func (p *Plan) BarrierCost() float64 { return p.barrierCost }

// EquivalentTo reports whether two plans describe bit-for-bit the same
// communication structure: same per-rank programs, same NICs, byte
// times, request wiring, and barrier cost. Runner.Verify uses it to
// compare a program's second compile pass with its first.
func (p *Plan) EquivalentTo(q *Plan) bool {
	if p.nprocs != q.nprocs || p.nics != q.nics || p.slots != q.slots ||
		p.draws != q.draws || p.marks != q.marks || p.sends != q.sends ||
		p.barrierCost != q.barrierCost ||
		len(p.events) != len(q.events) || len(p.waitSlots) != len(q.waitSlots) {
		return false
	}
	for i, o := range p.rankOff {
		if o != q.rankOff[i] {
			return false
		}
	}
	for i := range p.events {
		if p.events[i] != q.events[i] || p.binds[i] != q.binds[i] {
			return false
		}
	}
	for i := range p.waitSlots {
		if p.waitSlots[i] != q.waitSlots[i] {
			return false
		}
	}
	for i := range p.slotOwner {
		if p.slotOwner[i] != q.slotOwner[i] || p.slotPend[i] != q.slotPend[i] {
			return false
		}
	}
	return true
}
