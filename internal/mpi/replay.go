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
// Repetitions are evaluated in noise lanes (struct-of-arrays): Replay(k)
// draws the jitter factors for k successive repetitions from the
// network's single noise stream up front (lane l holds the stream stripe
// of repetition l of the batch), then walks each lane over its own port
// stripe, chained from its predecessor's barrier-aligned end state. The
// steady-state pass allocates nothing: every buffer is sized at
// construction.
type Replayer struct {
	plan  *Plan
	net   *simnet.Network
	ports *simnet.Ports
	lanes int
	// clocks holds per-lane rank clocks, lane-major stripes of nprocs.
	clocks []float64
	// jit holds the batch's jitter factors, lane-major stripes of
	// plan.Draws().
	jit []float64
	// marks holds the batch's mark clocks, lane-major stripes of
	// plan.Marks().
	marks []float64
	// last is the lane holding the most recently replayed repetition's
	// end state; the next batch chains from it.
	last int

	// Per-lane scratch, reset at the start of each lane's walk.
	cursor []int32   // per-rank index of the next unprocessed event
	reqAt  []float64 // per-slot bound completion time (max of its halves)
	pend   []uint8   // per-slot halves still outstanding
	parked []bool    // per-rank: cursor points at a wait with unbound slots
	front  frontier  // schedulable ranks; the root is the next event's

	lane       int
	laneClock  []float64 // current lane's stripe of clocks
	barrierN   int
	barrierMax float64
	ji, mi     int
}

// NewReplayer builds a Replayer for plan continuing the execution state of
// net (whose ports are snapshotted now and whose noise stream the replays
// will consume) with the given per-rank clocks — the clocks the ranks
// reach before the plan's first repetition (the measurement harness
// starts from its two calibration barriers). lanes bounds the batch size
// of Replay.
func NewReplayer(net *simnet.Network, plan *Plan, clocks []float64, lanes int) (*Replayer, error) {
	r := &Replayer{}
	if err := r.reinit(net, plan, clocks, lanes); err != nil {
		return nil, err
	}
	return r, nil
}

// reinit (re)shapes r for plan, reusing every backing buffer that is
// already large enough. Buffers grow monotonically: a Replayer recycled
// across a sweep's grid points stops allocating once it has seen the
// largest plan. Replays after reinit are bit-identical to a fresh
// NewReplayer — every buffer a lane reads is seeded or overwritten before
// use.
func (r *Replayer) reinit(net *simnet.Network, plan *Plan, clocks []float64, lanes int) error {
	if lanes < 1 {
		return fmt.Errorf("mpi: %d replay lanes, need >= 1", lanes)
	}
	if len(clocks) != plan.nprocs {
		return fmt.Errorf("mpi: %d start clocks for a %d-rank plan", len(clocks), plan.nprocs)
	}
	ports, err := net.SnapshotPortsInto(r.ports, lanes)
	if err != nil {
		return err
	}
	r.plan, r.net, r.ports, r.lanes = plan, net, ports, lanes
	r.clocks = grow(r.clocks, lanes*plan.nprocs)
	r.jit = grow(r.jit, lanes*plan.draws)
	r.marks = grow(r.marks, lanes*plan.marks)
	r.cursor = grow(r.cursor, plan.nprocs)
	r.reqAt = grow(r.reqAt, plan.slots)
	r.pend = grow(r.pend, plan.slots)
	r.parked = grow(r.parked, plan.nprocs)
	r.front.size(plan.nprocs)
	r.last = 0
	copy(r.clocks[:plan.nprocs], clocks)
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

// Lanes returns the maximum batch size.
func (r *Replayer) Lanes() int { return r.lanes }

// Replay re-times the next k repetitions (1 <= k <= Lanes) and returns
// the mark clocks, lane-major: the clocks of lane l's marks are
// marks[l*plan.Marks() : (l+1)*plan.Marks()], in the marking rank's
// program order. The returned slice is owned by the Replayer and valid
// until the next call.
//
// ok is false when a lane's walk does not close over the plan (a rank
// left parked or mid-program); that means the plan does not describe a
// self-contained repetition, and the caller must fall back to the
// scheduler engine.
func (r *Replayer) Replay(k int) (marks []float64, ok bool) {
	if k < 1 || k > r.lanes {
		panic(fmt.Errorf("mpi: Replay(%d) outside 1..%d", k, r.lanes))
	}
	p := r.plan
	n := p.nprocs
	// One pre-draw for the whole batch: the stream order is repetition
	// order, so lane l's stripe holds exactly the factors the scheduler
	// would have drawn during repetition l of the batch.
	r.net.DrawJitterInto(r.jit[:k*p.draws])
	for l := 0; l < k; l++ {
		// Chain the lane from the previous repetition's end state.
		r.ports.SeedLane(l, r.last)
		if l != r.last {
			copy(r.clocks[l*n:(l+1)*n], r.clocks[r.last*n:(r.last+1)*n])
		}
		if !r.replayLane(l) {
			return nil, false
		}
		r.last = l
	}
	return r.marks[:k*p.marks], true
}

// replayLane walks one repetition on lane l.
func (r *Replayer) replayLane(l int) bool {
	p := r.plan
	n := p.nprocs
	r.lane = l
	r.laneClock = r.clocks[l*n : (l+1)*n]
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
	r.ji = l * p.draws
	r.mi = l * p.marks
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
			key += p.binds[cur].dur
			r.laneClock[rank] = key
		case evMark:
			r.marks[r.mi] = key
			r.mi++
		case evWait:
			r.laneClock[rank] = key
		case evRecv:
			s := e.slot
			r.reqAt[s] = math.Max(r.reqAt[s], key)
			r.pend[s]--
			// The receive's own rank is busy here, so no wait can be
			// parked on it; no wake needed.
		case evSend:
			b := &p.binds[cur]
			var sc, delivered float64
			if b.lt.Local {
				sc, delivered = r.ports.TransmitLocal(b.lt, key)
			} else {
				f := 1.0
				if b.draws {
					f = r.jit[r.ji]
					r.ji++
				}
				sc, delivered = r.ports.Transmit(l, int(e.srcNIC), int(e.dstNIC), b.lt, key, f)
			}
			r.reqAt[e.slot] = sc
			r.pend[e.slot] = 0
			if ps := e.peerSlot; ps >= 0 {
				r.reqAt[ps] = math.Max(r.reqAt[ps], delivered)
				if r.pend[ps]--; r.pend[ps] == 0 {
					r.wake(int(p.slotOwner[ps]))
				}
			}
			key += b.lt.SendOv
			r.laneClock[rank] = key
		}
		r.advance(rank)
	}
	// A well-formed repetition ends with every rank's program exhausted.
	if r.barrierN != 0 {
		return false
	}
	for rank := 0; rank < n; rank++ {
		if r.parked[rank] || r.cursor[rank] != p.rankOff[rank+1] {
			return false
		}
	}
	return true
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
		r.barrierMax = math.Max(r.barrierMax, r.laneClock[rank])
		if r.barrierN++; r.barrierN == p.nprocs {
			t := r.barrierMax + p.barrierCost
			r.barrierN = 0
			r.barrierMax = 0
			for i := range r.laneClock {
				r.laneClock[i] = t
			}
			for i := 0; i < p.nprocs; i++ {
				r.advance(i)
			}
		}
	case evWait:
		for _, s := range p.waitSlots[e.wOff : e.wOff+e.wLen] {
			if r.pend[s] != 0 {
				r.parked[rank] = true
				r.front.clear(rank)
				return
			}
		}
		r.front.set(rank, r.waitKey(rank, e))
	default:
		r.front.set(rank, r.laneClock[rank])
	}
}

// waitKey is the virtual time a wait resolves at: the later of the rank's
// clock and its requests' completion times — the scheduler's scheduleKey.
func (r *Replayer) waitKey(rank int, e *planEvent) float64 {
	t := r.laneClock[rank]
	for _, s := range r.plan.waitSlots[e.wOff : e.wOff+e.wLen] {
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
	for _, s := range r.plan.waitSlots[e.wOff : e.wOff+e.wLen] {
		if r.pend[s] != 0 {
			return
		}
	}
	r.parked[rank] = false
	r.front.set(rank, r.waitKey(rank, e))
}

// Clocks returns the per-rank clocks after the most recently replayed
// repetition. The slice is owned by the Replayer.
func (r *Replayer) Clocks() []float64 {
	n := r.plan.nprocs
	return r.clocks[r.last*n : (r.last+1)*n]
}
