package mpi

import (
	"slices"

	"mpicollperf/internal/simnet"
)

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

// planEvent is one event of a compiled Plan, 12 bytes: the replay walks
// these in order, so everything only some kinds need lives in side
// tables the event indexes. The owning rank is implicit: events are
// stored rank-major (see Plan.rankOff).
//
//	kind     slot                    arg
//	send     its request slot        index into Plan.sends
//	recv     its request slot        -
//	sleep    -                       index into Plan.durs
//	wait     number of joined slots  offset into Plan.waitSlots
//	barrier  -                       -
//	mark     -                       -
type planEvent struct {
	kind evKind
	slot int32
	arg  int32
}

// planSend is the per-send record replay reads at a send event, 16
// bytes: the send's timing is an index into Plan.timings, which holds
// the timings a plan's sends share, so the records the replay pops in
// time order stay dense and the timings stay in cache.
type planSend struct {
	timing int32 // index into Plan.timings
	srcNIC int32
	dstNIC int32
	// peerSlot is the receive slot the message binds, -1 if never
	// received.
	peerSlot int32
}

// planTiming is one entry of Plan.timings. The timing is a precomputed
// constant (a send's effective LinkTiming from
// simnet.Network.TimingFor, which folds in any time-invariant
// perturbations); virtual times are produced only at replay.
type planTiming struct {
	// lt is the effective timing parameters; lt.Local marks a co-located
	// send: shared NIC, no ports, no jitter.
	lt simnet.LinkTiming
	// draws reports that a send with this timing consumes one jitter
	// factor.
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
	barrierCost float64
	// rankOff[r]..rankOff[r+1] bound rank r's events; len nprocs+1.
	rankOff []int32
	// events is the walk; sends, durs and waitSlots are the side tables
	// its send, sleep and wait events index, and timings the table the
	// sends index.
	events    []planEvent
	sends     []planSend
	timings   []planTiming
	durs      []float64
	waitSlots []int32
	// slotOwner is the rank whose send/recv introduced each slot; slotPend
	// is the number of halves that must complete before the slot's request
	// is bound (1 for a send, 2 for a matched receive: the receive itself
	// and its message's delivery); slotBytes is the size of the slot's
	// message (for a receive: the matched send's, 0 if unmatched).
	slotOwner []int32
	slotPend  []uint8
	slotBytes []int
}

// Marks returns the number of mark events one replay pass produces.
func (p *Plan) Marks() int { return p.marks }

// Draws returns the number of jitter factors one replay pass consumes.
func (p *Plan) Draws() int { return p.draws }

// Events returns the number of events one replay pass walks.
func (p *Plan) Events() int { return len(p.events) }

// Sends returns the number of send events one replay pass walks — the
// transfers a single replayed repetition simulates.
func (p *Plan) Sends() int { return len(p.sends) }

// BarrierCost returns the analytical cost of one barrier under the plan's
// runtime options — the constant a replay adds at every barrier release.
// The measurement harness uses it to reconstruct the scheduler program's
// calibrated preamble clocks when replaying a compiled plan from scratch.
func (p *Plan) BarrierCost() float64 { return p.barrierCost }

// EquivalentTo reports whether two plans describe bit-for-bit the same
// communication structure: same per-rank programs, same NICs, link
// timings, byte counts, sleeps, request wiring, and barrier cost.
// Runner.Verify uses it to compare a program's second compile pass with
// its first.
func (p *Plan) EquivalentTo(q *Plan) bool {
	return p.nprocs == q.nprocs && p.nics == q.nics && p.slots == q.slots &&
		p.draws == q.draws && p.marks == q.marks && p.barrierCost == q.barrierCost &&
		slices.Equal(p.rankOff, q.rankOff) &&
		slices.Equal(p.events, q.events) &&
		slices.Equal(p.sends, q.sends) &&
		slices.Equal(p.timings, q.timings) &&
		slices.Equal(p.durs, q.durs) &&
		slices.Equal(p.waitSlots, q.waitSlots) &&
		slices.Equal(p.slotOwner, q.slotOwner) &&
		slices.Equal(p.slotPend, q.slotPend) &&
		slices.Equal(p.slotBytes, q.slotBytes)
}
