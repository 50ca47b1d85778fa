package mpi

import (
	"fmt"

	"mpicollperf/internal/simnet"
)

// Replayer re-times a compiled Plan: one replay pass evaluates the same
// virtual-time arithmetic the scheduler would have — port occupancy
// through simnet.Ports, request binding through plan-local slots, barrier
// alignment through the plan's barrier cost — without goroutines,
// channels, or message matching.
//
// Only a send reads or writes state other ranks share (the NIC ports and
// the jitter stream), so a rank runs ahead: run walks its events in
// program order with its clock in a register — sleeps, marks, receive
// posts, waits whose requests are bound, barrier arrivals — and stops at
// its next send, which enters a winner tree over ranks (frontier) at the
// rank's clock. The replay pops sends in the scheduler's (clock, rank)
// order. That order is unchanged by running ahead: clocks never decrease,
// so every event before a rank's next send has a key at most the send's;
// the events run ahead touch only their own rank's state or commute (a
// max, a decrement, a barrier's max); and a rank that is parked or in a
// barrier resumes only through a send's delivery or a barrier's release,
// both of which the scheduler orders the same way. So the jitter factors
// are drawn and the ports claimed in the scheduler's order, and the
// replayed clocks are bit-identical to its.
//
// Each Replay call re-times the next repetition: it takes the
// repetition's Plan.Draws() jitter factors from the network's noise stream
// as a view of the stream's memo (simnet.Network.Jitter), in the order the
// scheduler would have consumed them, and walks one port state and one set
// of rank clocks that carry over from the repetition before. The
// steady-state pass allocates nothing: every buffer is sized at
// construction.
type Replayer struct {
	plan   *Plan
	net    *simnet.Network
	ports  *simnet.Ports
	clocks []float64 // per-rank clocks
	marks  []float64 // the repetition's mark clocks

	// Per-repetition scratch, reset at the start of each walk. A rank's
	// cursor stops at a send in the frontier, a parked wait, a barrier not
	// yet released, or the end of the rank's events.
	cursor []int32 // per-rank index of the next unprocessed event
	// next is, per rank in the frontier, the send its cursor rests on.
	// run copies the record when it stops there, right after the rank's
	// previous send, whose record is its neighbour in Plan.sends; the
	// pop, which comes in time order rather than storage order, then
	// reads this small table instead of the plan.
	next  []nextSend
	reqAt []float64 // per-slot bound completion time (max of its halves)
	pend  []uint8   // per-slot halves still outstanding
	front frontier  // ranks stopped at a send; the root is the next send's

	nmarks     int // marks recorded so far
	barrierN   int
	barrierMax float64
}

// nextSend is a rank's next send: its plan record and request slot.
type nextSend struct {
	planSend
	slot int32
}

// reinit (re)shapes r for plan, reusing every backing buffer that is
// already large enough. Buffers grow monotonically: a Replayer recycled
// across a sweep's grid points stops allocating once it has seen the
// largest plan. Replays after reinit are bit-identical to a fresh
// Replayer's — every buffer a walk reads is seeded or overwritten before
// use.
func (r *Replayer) reinit(net *simnet.Network, plan *Plan, clocks []float64) error {
	if len(clocks) != plan.nprocs {
		return fmt.Errorf("mpi: %d start clocks for a %d-rank plan", len(clocks), plan.nprocs)
	}
	r.plan, r.net = plan, net
	r.ports = net.SnapshotPortsInto(r.ports)
	r.clocks = append(r.clocks[:0], clocks...)
	r.marks = grow(r.marks, plan.marks)
	r.cursor = grow(r.cursor, plan.nprocs)
	r.next = grow(r.next, plan.nprocs)
	r.reqAt = grow(r.reqAt, plan.slots)
	r.pend = grow(r.pend, plan.slots)
	r.front.size(plan.nprocs)
	return nil
}

// grow returns s resized to length n, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite before
// reading.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// push appends v to s like append, but a full s doubles its capacity
// where append grows a large slice by a quarter: a table grown from
// empty allocates about twice its final capacity on the way, not five
// times.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(16, 2*cap(s))), s...)
	}
	return append(s, v)
}

// Replay re-times the next repetition and returns its mark clocks, in
// each marking rank's program order; the marks of different ranks
// interleave in the order the ranks run ahead, so a plan that needs them
// in time order marks on one rank (measurement plans do). The returned
// slice is owned by the Replayer and valid until the next call.
//
// ok is false when the walk does not close over the plan (a rank left
// parked, in a barrier, or mid-program); that means the plan does not
// describe a self-contained repetition, and the caller must fall back to
// the scheduler engine.
func (r *Replayer) Replay() (marks []float64, ok bool) {
	p := r.plan
	n := p.nprocs
	// The repetition's jitter factors: a view of the network's memo.
	jit := r.net.Jitter(p.draws)
	copy(r.cursor, p.rankOff[:n])
	copy(r.pend, p.slotPend)
	clear(r.reqAt)
	r.front.reset()
	r.nmarks, r.barrierN, r.barrierMax = 0, 0, 0
	for rank := 0; rank < n; rank++ {
		r.runAhead(rank)
	}
	ji := 0 // next jitter factor
	// The root holds the next send's rank. Its leaf stays in the tree
	// while the send is processed: a wake fixes the woken rank's path
	// against its unchanged key, and runAhead then moves or removes the
	// sender with one root-ward walk.
	for {
		rank, key := r.front.min()
		if rank < 0 {
			break
		}
		sd := &r.next[rank]
		tm := &p.timings[sd.timing]
		var sc, delivered float64
		if tm.lt.Local {
			sc, delivered = r.ports.TransmitLocal(tm.lt, key)
		} else {
			f := 1.0
			if tm.draws {
				f = jit[ji]
				ji++
			}
			sc, delivered = r.ports.Transmit(0, int(sd.srcNIC), int(sd.dstNIC), tm.lt, key, f)
		}
		r.reqAt[sd.slot] = sc
		r.pend[sd.slot] = 0
		r.clocks[rank] = key + tm.lt.SendOv
		r.cursor[rank]++
		if ps := sd.peerSlot; ps >= 0 {
			r.reqAt[ps] = max(r.reqAt[ps], delivered)
			if r.pend[ps]--; r.pend[ps] == 0 {
				r.wake(int(p.slotOwner[ps]))
			}
		}
		r.runAhead(rank)
	}
	// A well-formed repetition ends with every rank's program exhausted.
	for rank := 0; rank < n; rank++ {
		if r.cursor[rank] != p.rankOff[rank+1] {
			return nil, false
		}
	}
	return r.marks, true
}

// run executes rank's events from its cursor in program order until the
// rank reaches a send, which it enters in the frontier at its clock. It
// also stops, leaving the frontier, when the rank parks on a wait with an
// unbound request, arrives at a barrier, or runs out of events.
func (r *Replayer) run(rank int) {
	p := r.plan
	t := r.clocks[rank]
	cur, end := r.cursor[rank], p.rankOff[rank+1]
loop:
	for ; cur < end; cur++ {
		e := &p.events[cur]
		switch e.kind {
		case evSleep:
			t += p.durs[e.arg]
		case evMark:
			r.marks[r.nmarks] = t
			r.nmarks++
		case evRecv:
			s := e.slot
			r.reqAt[s] = max(r.reqAt[s], t)
			r.pend[s]--
		case evWait:
			// The wait resolves at the later of the clock and its
			// requests' completion times, the scheduler's scheduleKey. A
			// park keeps the partial max: re-taking it on wake is exact.
			for _, s := range p.waitSlots[e.arg : e.arg+e.slot] {
				if r.pend[s] != 0 {
					break loop
				}
				if v := r.reqAt[s]; v > t {
					t = v
				}
			}
		case evSend:
			r.clocks[rank], r.cursor[rank] = t, cur
			r.next[rank] = nextSend{planSend: p.sends[e.arg], slot: e.slot}
			r.front.set(rank, t)
			return
		case evBarrier:
			r.barrierMax = max(r.barrierMax, t)
			r.barrierN++
			break loop
		}
	}
	r.clocks[rank], r.cursor[rank] = t, cur
	r.front.clear(rank)
}

// runAhead runs rank ahead and, each time that completes a barrier,
// releases every rank from it at the latest arrival plus the barrier cost
// and runs them all ahead. Only the last rank run can complete the next
// barrier, so a chain of barriers loops here rather than recursing.
func (r *Replayer) runAhead(rank int) {
	r.run(rank)
	for r.barrierN == r.plan.nprocs {
		t := r.barrierMax + r.plan.barrierCost
		r.barrierN, r.barrierMax = 0, 0
		for i := range r.clocks {
			r.clocks[i] = t
			r.cursor[i]++
			r.run(i)
		}
	}
}

// wake resumes rank after one of its requests bound, if the rank is
// parked on a wait; run re-checks the wait's other requests.
func (r *Replayer) wake(rank int) {
	if c := r.cursor[rank]; c < r.plan.rankOff[rank+1] && r.plan.events[c].kind == evWait {
		r.runAhead(rank)
	}
}

// Clocks returns the per-rank clocks after the most recently replayed
// repetition. The slice is owned by the Replayer.
func (r *Replayer) Clocks() []float64 { return r.clocks }
