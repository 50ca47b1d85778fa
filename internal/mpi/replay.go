package mpi

import (
	"fmt"
	"math"

	"mpicollperf/internal/simnet"
)

// Replayer re-times a compiled Plan: one replay pass evaluates the same
// virtual-time arithmetic the scheduler would have — port occupancy
// through simnet.Ports, request binding through plan-local slots, barrier
// alignment through the plan's barrier cost — without goroutines,
// channels, or message matching. The global processing order, which fixes
// both the order jitter factors are drawn in and the order NIC ports are
// claimed in, is recomputed per repetition with the scheduler's exact
// discipline: every rank has at most one schedulable operation, and the
// one with the smallest (virtual time, rank) is processed next — the root
// of a winner tree over ranks (frontier). The replayed clocks are
// therefore bit-identical to the scheduler's.
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

	// Per-repetition scratch, reset at the start of each walk.
	cursor []int32   // per-rank index of the next unprocessed event
	reqAt  []float64 // per-slot bound completion time (max of its halves)
	pend   []uint8   // per-slot halves still outstanding
	parked []bool    // per-rank: cursor points at a wait with unbound slots
	front  frontier  // schedulable ranks; the root is the next event's

	barrierN   int
	barrierMax float64
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
	r.reqAt = grow(r.reqAt, plan.slots)
	r.pend = grow(r.pend, plan.slots)
	r.parked = grow(r.parked, plan.nprocs)
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

// Replay re-times the next repetition and returns its mark clocks, in the
// marking rank's program order. The returned slice is owned by the
// Replayer and valid until the next call.
//
// ok is false when the walk does not close over the plan (a rank left
// parked or mid-program); that means the plan does not describe a
// self-contained repetition, and the caller must fall back to the
// scheduler engine.
func (r *Replayer) Replay() (marks []float64, ok bool) {
	p := r.plan
	n := p.nprocs
	// The repetition's jitter factors: a view of the network's memo.
	jit := r.net.Jitter(p.draws)
	copy(r.cursor, p.rankOff[:n])
	copy(r.pend, p.slotPend)
	for i := range r.reqAt {
		r.reqAt[i] = 0
	}
	for i := range r.parked {
		r.parked[i] = false
	}
	r.front.reset()
	r.barrierN = 0
	r.barrierMax = 0
	ji, mi := 0, 0 // next jitter factor, next mark
	for rank := 0; rank < n; rank++ {
		r.advance(rank)
	}
	// The root holds the next event's rank. Its leaf stays in the tree
	// while the event is processed: wakes fix other ranks' paths against
	// its unchanged key, and advance then re-enters or removes the rank
	// with one root-ward walk.
	for {
		rank, key := r.front.min()
		if rank < 0 {
			break
		}
		cur := r.cursor[rank]
		r.cursor[rank] = cur + 1
		e := &p.events[cur]
		switch e.kind {
		case evSleep:
			key += p.durs[e.arg]
			r.clocks[rank] = key
		case evMark:
			r.marks[mi] = key
			mi++
		case evWait:
			r.clocks[rank] = key
		case evRecv:
			s := e.slot
			r.reqAt[s] = math.Max(r.reqAt[s], key)
			r.pend[s]--
			// The receive's own rank is busy here, so no wait can be
			// parked on it; no wake needed.
		case evSend:
			sd := &p.sends[e.arg]
			var sc, delivered float64
			if sd.lt.Local {
				sc, delivered = r.ports.TransmitLocal(sd.lt, key)
			} else {
				f := 1.0
				if sd.draws {
					f = jit[ji]
					ji++
				}
				sc, delivered = r.ports.Transmit(0, int(sd.srcNIC), int(sd.dstNIC), sd.lt, key, f)
			}
			r.reqAt[e.slot] = sc
			r.pend[e.slot] = 0
			if ps := sd.peerSlot; ps >= 0 {
				r.reqAt[ps] = math.Max(r.reqAt[ps], delivered)
				if r.pend[ps]--; r.pend[ps] == 0 {
					r.wake(int(p.slotOwner[ps]))
				}
			}
			key += sd.lt.SendOv
			r.clocks[rank] = key
		}
		r.advance(rank)
	}
	// A well-formed repetition ends with every rank's program exhausted.
	if r.barrierN != 0 {
		return nil, false
	}
	for rank := 0; rank < n; rank++ {
		if r.parked[rank] || r.cursor[rank] != p.rankOff[rank+1] {
			return nil, false
		}
	}
	return r.marks, true
}

// advance schedules rank's next event: barriers park the rank until all
// have arrived, a wait with unbound requests parks until its last message
// is delivered (wake), everything else sets the rank's frontier key to its
// current clock. A rank that parks or runs out of events leaves the
// frontier.
func (r *Replayer) advance(rank int) {
	p := r.plan
	cur := r.cursor[rank]
	if cur == p.rankOff[rank+1] {
		r.front.clear(rank)
		return
	}
	e := &p.events[cur]
	switch e.kind {
	case evBarrier:
		r.front.clear(rank)
		r.cursor[rank] = cur + 1
		r.barrierMax = math.Max(r.barrierMax, r.clocks[rank])
		if r.barrierN++; r.barrierN == p.nprocs {
			t := r.barrierMax + p.barrierCost
			r.barrierN = 0
			r.barrierMax = 0
			for i := range r.clocks {
				r.clocks[i] = t
			}
			for i := 0; i < p.nprocs; i++ {
				r.advance(i)
			}
		}
	case evWait:
		for _, s := range p.waitSlots[e.arg : e.arg+e.slot] {
			if r.pend[s] != 0 {
				r.parked[rank] = true
				r.front.clear(rank)
				return
			}
		}
		r.front.set(rank, r.waitKey(rank, e))
	default:
		r.front.set(rank, r.clocks[rank])
	}
}

// waitKey is the virtual time a wait resolves at: the later of the rank's
// clock and its requests' completion times — the scheduler's scheduleKey.
func (r *Replayer) waitKey(rank int, e *planEvent) float64 {
	t := r.clocks[rank]
	for _, s := range r.plan.waitSlots[e.arg : e.arg+e.slot] {
		if v := r.reqAt[s]; v > t {
			t = v
		}
	}
	return t
}

// wake re-examines rank's parked wait after a request bound.
func (r *Replayer) wake(rank int) {
	if !r.parked[rank] {
		return
	}
	e := &r.plan.events[r.cursor[rank]]
	for _, s := range r.plan.waitSlots[e.arg : e.arg+e.slot] {
		if r.pend[s] != 0 {
			return
		}
	}
	r.parked[rank] = false
	r.front.set(rank, r.waitKey(rank, e))
}

// Clocks returns the per-rank clocks after the most recently replayed
// repetition. The slice is owned by the Replayer.
func (r *Replayer) Clocks() []float64 { return r.clocks }
