package mpi

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"mpicollperf/internal/simnet"
)

// scheduler is the deterministic coordinator. It owns all mutable state;
// rank goroutines only touch it through the ops channel.
//
// The scheduler is designed for reuse: a Runner resets the same scheduler
// between runs, so in steady state the per-operation path — admit, the
// pending heap, message matching, release — performs no heap allocations.
// Operations are recycled through a freelist, the pending queue is an
// indexed binary min-heap with the schedule key cached on the operation,
// and the matching engine reuses its per-(src, tag) FIFO queues.
type scheduler struct {
	net    *simnet.Network
	nprocs int
	opts   Options
	ops    chan operation
	// resumes are per-rank reply channels; they persist across runs of a
	// reused scheduler.
	resumes []chan reply

	// running counts ranks currently executing user code (they will submit
	// exactly one operation each before the scheduler may proceed).
	running int
	live    int

	// pending is a binary min-heap of schedulable operations ordered by
	// (key, rank, seq); a rank has at most one operation in flight, so the
	// heap never exceeds nprocs entries.
	pending []*operation
	// blocked[r] is rank r's wait whose requests are not yet all bound, or
	// nil. A rank has at most one in-flight operation, so a fixed per-rank
	// slot replaces the former scan list.
	blocked   []*operation
	inBarrier []*operation // ranks parked in the current barrier

	// match holds per-destination message matching state.
	match []*matchState

	// opFree recycles operation objects across the whole run (and across
	// runs when the scheduler is reused by a Runner).
	opFree []*operation

	finish  []float64
	failErr error
	aborted bool
	// nops counts processed operations for Result.Ops; it feeds metrics
	// only and never influences scheduling.
	nops int64
}

// matchState is the matching engine for one destination rank. The queues
// are never removed from the maps once created, so a reused scheduler
// reaches a steady state where matching allocates nothing.
type matchState struct {
	// posted receives and unexpected messages, keyed by (src, tag), each
	// FIFO — this provides the MPI non-overtaking guarantee.
	posted     map[matchKey]*opQueue
	unexpected map[matchKey]*msgQueue
}

type matchKey struct{ src, tag int }

type inFlight struct {
	data      []byte
	bytes     int
	delivered float64
}

// opQueue is a reusable FIFO of posted receives for one (src, tag): pops
// advance a head index, and the backing array is rewound as soon as the
// queue drains, so steady-state traffic never reallocates it.
type opQueue struct {
	head  int
	items []*operation
}

func (q *opQueue) empty() bool { return q.head == len(q.items) }

func (q *opQueue) push(o *operation) { q.items = append(q.items, o) }

func (q *opQueue) pop() *operation {
	o := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.head, q.items = 0, q.items[:0]
	}
	return o
}

// msgQueue is the unexpected-message counterpart of opQueue.
type msgQueue struct {
	head  int
	items []inFlight
}

func (q *msgQueue) empty() bool { return q.head == len(q.items) }

func (q *msgQueue) push(m inFlight) { q.items = append(q.items, m) }

func (q *msgQueue) pop() inFlight {
	m := q.items[q.head]
	q.items[q.head] = inFlight{}
	q.head++
	if q.head == len(q.items) {
		q.head, q.items = 0, q.items[:0]
	}
	return m
}

func newMatchState() *matchState {
	return &matchState{
		posted:     make(map[matchKey]*opQueue),
		unexpected: make(map[matchKey]*msgQueue),
	}
}

// reset drains both queue families in place, recycling leftover posted
// receives (ranks may legally exit with unwaited receives outstanding)
// into the scheduler's operation freelist.
func (ms *matchState) reset(s *scheduler) {
	for _, q := range ms.posted {
		for i := q.head; i < len(q.items); i++ {
			s.putOp(q.items[i])
			q.items[i] = nil
		}
		q.head, q.items = 0, q.items[:0]
	}
	for _, q := range ms.unexpected {
		for i := q.head; i < len(q.items); i++ {
			q.items[i] = inFlight{}
		}
		q.head, q.items = 0, q.items[:0]
	}
}

// reset prepares the scheduler for a fresh run of nprocs ranks. All
// per-rank structures, queue capacities, and the operation freelist are
// retained from previous runs, which is what makes a warm Runner's
// steady-state operation path allocation-free.
func (s *scheduler) reset(net *simnet.Network, nprocs int, opts Options) {
	s.net = net
	s.nprocs = nprocs
	s.opts = opts
	s.running = nprocs
	s.live = nprocs
	s.failErr = nil
	s.aborted = false
	s.nops = 0

	if s.ops == nil || cap(s.ops) < nprocs {
		s.ops = make(chan operation, nprocs)
	}
	for len(s.resumes) < nprocs {
		s.resumes = append(s.resumes, make(chan reply, 1))
	}
	for len(s.match) < nprocs {
		s.match = append(s.match, newMatchState())
	}
	for _, ms := range s.match[:nprocs] {
		ms.reset(s)
	}
	if cap(s.pending) < nprocs {
		s.pending = make([]*operation, 0, nprocs)
	} else {
		for i := range s.pending {
			s.pending[i] = nil
		}
		s.pending = s.pending[:0]
	}
	if cap(s.blocked) < nprocs {
		s.blocked = make([]*operation, nprocs)
	} else {
		s.blocked = s.blocked[:nprocs]
		for i := range s.blocked {
			s.blocked[i] = nil
		}
	}
	if cap(s.inBarrier) < nprocs {
		s.inBarrier = make([]*operation, 0, nprocs)
	} else {
		s.inBarrier = s.inBarrier[:0]
	}
	if cap(s.finish) < nprocs {
		s.finish = make([]float64, nprocs)
	} else {
		s.finish = s.finish[:nprocs]
		for i := range s.finish {
			s.finish[i] = 0
		}
	}
}

// getOp copies a submitted operation into a pooled object.
func (s *scheduler) getOp(op operation) *operation {
	if n := len(s.opFree); n > 0 {
		o := s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
		*o = op
		return o
	}
	o := new(operation)
	*o = op
	return o
}

// putOp recycles a processed operation, dropping payload and request
// references so the freelist never retains user memory.
func (s *scheduler) putOp(o *operation) {
	o.data = nil
	o.req = nil
	o.reqs = nil
	o.err = nil
	s.opFree = append(s.opFree, o)
}

// loop runs the simulation to completion.
func (s *scheduler) loop() (Result, error) {
	for s.live > 0 {
		// Lockstep: wait until every live, unparked rank has submitted its
		// next operation, so min-clock selection sees the full frontier.
		for s.running > 0 {
			op := <-s.ops
			s.running--
			s.admit(op)
		}
		if s.live == 0 {
			break
		}
		op := s.takeNext()
		if op == nil {
			s.abort(s.deadlockError())
			continue
		}
		s.nops++
		s.process(op)
	}
	if s.failErr != nil {
		return Result{}, s.failErr
	}
	// The finish slice is reused by the next run of a shared scheduler, so
	// the caller gets its own copy.
	ft := make([]float64, s.nprocs)
	copy(ft, s.finish[:s.nprocs])
	res := Result{FinishTimes: ft, Transfers: s.net.Transfers(), Ops: s.nops}
	for _, t := range ft {
		res.MakeSpan = math.Max(res.MakeSpan, t)
	}
	return res, nil
}

// admit routes a freshly submitted operation to the right queue.
func (s *scheduler) admit(op operation) {
	switch op.kind {
	case opExit:
		s.live--
		s.finish[op.rank] = op.clock
		if op.err != nil && !errors.Is(op.err, errAborted) && s.failErr == nil {
			s.failErr = fmt.Errorf("rank %d: %w", op.rank, op.err)
		}
		if op.err != nil && !s.aborted {
			s.abortLater()
		}
		return
	}
	if s.aborted {
		s.release(op.rank, reply{abort: true})
		return
	}
	switch op.kind {
	case opBarrier:
		if s.live < s.nprocs {
			s.abort(fmt.Errorf("mpi: rank %d entered a barrier after another rank already exited", op.rank))
			s.release(op.rank, reply{abort: true})
			return
		}
		s.inBarrier = append(s.inBarrier, s.getOp(op))
		s.maybeReleaseBarrier()
	case opWait:
		o := s.getOp(op)
		if allBound(o.reqs) {
			s.pushPending(o)
		} else {
			s.blocked[o.rank] = o
		}
	default:
		s.pushPending(s.getOp(op))
	}
}

func allBound(rs []*Request) bool {
	for _, r := range rs {
		if !r.bound {
			return false
		}
	}
	return true
}

// scheduleKey returns the virtual time at which processing op takes effect,
// used for min-clock selection. For a wait it is only meaningful once all
// of the wait's requests are bound; pushPending caches it on the operation
// at that moment, so it is computed once per enqueue, not once per
// comparison.
func scheduleKey(op *operation) float64 {
	if op.kind == opWait {
		t := op.clock
		for _, r := range op.reqs {
			if r.at > t {
				t = r.at
			}
		}
		return t
	}
	return op.clock
}

// opLess is the strict scheduling order: smallest key first, ties broken
// by lowest rank, then submission order. (rank, seq) is unique per
// operation, so this is a total order and the heap minimum is exactly the
// operation the former linear scan selected — virtual timings are
// bit-identical to the O(n) implementation.
func opLess(a, b *operation) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

// pushPending inserts op into the pending min-heap, caching its schedule
// key (fixed from this moment: a wait enters only once all its requests
// are bound, and bound completion times never change).
func (s *scheduler) pushPending(o *operation) {
	o.key = scheduleKey(o)
	h := append(s.pending, o)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !opLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.pending = h
}

// takeNext removes and returns the pending operation with the smallest
// schedule key (ties: lowest rank, then submission order). It returns nil
// when nothing is schedulable.
func (s *scheduler) takeNext() *operation {
	h := s.pending
	n := len(h)
	if n == 0 {
		return nil
	}
	top := h[0]
	last := h[n-1]
	h[n-1] = nil
	h = h[:n-1]
	if len(h) > 0 {
		h[0] = last
		i := 0
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && opLess(h[l], h[m]) {
				m = l
			}
			if r < len(h) && opLess(h[r], h[m]) {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	s.pending = h
	return top
}

// process applies one operation's effects and resumes its rank. Every
// non-queued operation is recycled here; posted receives are recycled by
// deliver when a message matches them.
func (s *scheduler) process(op *operation) {
	switch op.kind {
	case opSleep:
		s.release(op.rank, reply{clock: op.clock + op.dur})
		s.putOp(op)
	case opWait:
		s.release(op.rank, reply{clock: op.key})
		s.putOp(op)
	case opIsend:
		tr, err := s.net.Transmit(op.rank, op.peer, op.bytes, op.clock)
		if err != nil {
			s.abort(fmt.Errorf("rank %d: %w", op.rank, err))
			s.release(op.rank, reply{abort: true})
			s.putOp(op)
			return
		}
		op.req.bound = true
		op.req.at = tr.SendComplete
		s.deliver(op.rank, op.peer, op.tag, op.data, op.bytes, tr.Delivered)
		if s.aborted {
			s.release(op.rank, reply{abort: true})
			s.putOp(op)
			return
		}
		s.release(op.rank, reply{clock: op.clock + s.net.SendOverheadOf(op.rank)})
		s.putOp(op)
	case opIrecv:
		ms := s.match[op.rank]
		key := matchKey{src: op.peer, tag: op.tag}
		if q := ms.unexpected[key]; q != nil && !q.empty() {
			msg := q.pop()
			if !s.bindRecv(op, msg) {
				s.release(op.rank, reply{abort: true})
				s.putOp(op)
				return
			}
			s.release(op.rank, reply{clock: op.clock})
			s.putOp(op)
		} else {
			q := ms.posted[key]
			if q == nil {
				q = &opQueue{}
				ms.posted[key] = q
			}
			q.push(op)
			s.release(op.rank, reply{clock: op.clock})
		}
	default:
		s.abort(fmt.Errorf("mpi: internal: unexpected op %v", op.kind))
		s.release(op.rank, reply{abort: true})
		s.putOp(op)
	}
}

// deliver matches an arriving message against the destination's posted
// receives or stores it as unexpected.
func (s *scheduler) deliver(src, dst, tag int, data []byte, bytes int, delivered float64) {
	ms := s.match[dst]
	key := matchKey{src: src, tag: tag}
	if q := ms.posted[key]; q != nil && !q.empty() {
		recvOp := q.pop()
		ok := s.bindRecv(recvOp, inFlight{data: data, bytes: bytes, delivered: delivered})
		if ok {
			s.wakeWaiters(recvOp.rank)
		}
		s.putOp(recvOp)
		return
	}
	q := ms.unexpected[key]
	if q == nil {
		q = &msgQueue{}
		ms.unexpected[key] = q
	}
	q.push(inFlight{data: data, bytes: bytes, delivered: delivered})
}

// bindRecv completes a posted receive with a matched message. It reports
// false if the run was aborted (truncation error).
func (s *scheduler) bindRecv(recvOp *operation, msg inFlight) bool {
	if recvOp.data != nil {
		if msg.bytes > len(recvOp.data) {
			s.failErr = fmt.Errorf("mpi: rank %d: message truncation: %d-byte message from %d (tag %d) into %d-byte buffer",
				recvOp.rank, msg.bytes, recvOp.peer, recvOp.tag, len(recvOp.data))
			s.abort(s.failErr)
			return false
		}
		if msg.data != nil {
			copy(recvOp.data, msg.data)
		}
	}
	recvOp.req.bound = true
	recvOp.req.at = math.Max(msg.delivered, recvOp.clock)
	recvOp.req.bytes = msg.bytes
	return true
}

// wakeWaiters promotes the given rank's blocked wait once its requests are
// all bound. A rank has at most one in-flight operation, so this is a
// single indexed lookup.
func (s *scheduler) wakeWaiters(rank int) {
	op := s.blocked[rank]
	if op != nil && allBound(op.reqs) {
		s.blocked[rank] = nil
		s.pushPending(op)
	}
}

// maybeReleaseBarrier releases the barrier once every rank is in it.
func (s *scheduler) maybeReleaseBarrier() {
	if len(s.inBarrier) < s.nprocs {
		return
	}
	t := 0.0
	for _, op := range s.inBarrier {
		t = math.Max(t, op.clock)
	}
	t += s.barrierCost()
	for i, op := range s.inBarrier {
		s.release(op.rank, reply{clock: t})
		s.putOp(op)
		s.inBarrier[i] = nil
	}
	s.inBarrier = s.inBarrier[:0]
}

// barrierCost models a dissemination barrier: ceil(log2 P) rounds of a
// zero-byte exchange.
// barrierCost is an analytical constant, deliberately computed from the
// unperturbed Config: barriers are global separators between repetitions,
// and keeping their cost perturbation-free keeps scheduler and replay
// trivially consistent (the plan stores the same constant).
func (s *scheduler) barrierCost() float64 {
	return barrierCostFor(s.opts, s.net.Config(), s.nprocs)
}

// barrierCostFor is the barrier-cost formula shared by the scheduler and
// Runner.Compile: a compiled plan must carry bit-for-bit the barrier cost
// a scheduler run on the same network and options releases barriers with.
func barrierCostFor(opts Options, cfg simnet.Config, nprocs int) float64 {
	rounds := opts.BarrierRounds
	if rounds <= 0 {
		rounds = ceilLog2(nprocs)
	}
	return float64(rounds) * (cfg.SendOverhead + cfg.Latency + cfg.RecvOverhead)
}

func ceilLog2(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// release resumes a rank's goroutine with the given reply.
func (s *scheduler) release(rank int, rep reply) {
	s.running++
	s.resumes[rank] <- rep
}

// abortLater arranges for the run to unwind: every parked rank is released
// with the abort flag, and all future operations are bounced.
func (s *scheduler) abortLater() {
	s.aborted = true
	for i, op := range s.pending {
		s.release(op.rank, reply{abort: true})
		s.putOp(op)
		s.pending[i] = nil
	}
	s.pending = s.pending[:0]
	for i, op := range s.blocked[:s.nprocs] {
		if op != nil {
			s.release(op.rank, reply{abort: true})
			s.putOp(op)
			s.blocked[i] = nil
		}
	}
	for i, op := range s.inBarrier {
		s.release(op.rank, reply{abort: true})
		s.putOp(op)
		s.inBarrier[i] = nil
	}
	s.inBarrier = s.inBarrier[:0]
}

func (s *scheduler) abort(err error) {
	if s.failErr == nil {
		s.failErr = err
	}
	s.abortLater()
}

// deadlockError describes why no rank can make progress.
func (s *scheduler) deadlockError() error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rank(s) blocked", s.live)
	var states []string
	for _, op := range s.blocked[:s.nprocs] {
		if op == nil {
			continue
		}
		pend := 0
		for _, r := range op.reqs {
			if !r.bound {
				pend++
			}
		}
		states = append(states, fmt.Sprintf("rank %d waiting on %d unmatched request(s) at t=%.9f", op.rank, pend, op.clock))
	}
	for _, op := range s.inBarrier {
		states = append(states, fmt.Sprintf("rank %d in barrier at t=%.9f", op.rank, op.clock))
	}
	sort.Strings(states)
	for _, st := range states {
		b.WriteString("; ")
		b.WriteString(st)
	}
	return fmt.Errorf("%w: %s", ErrDeadlock, b.String())
}
