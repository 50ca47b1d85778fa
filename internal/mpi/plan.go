package mpi

import (
	"fmt"

	"mpicollperf/internal/simnet"
)

// Plan capture: a Runner.RunCapture run records, in scheduler processing
// order, the complete structure of the program — every transfer with its
// matched receive, every wait with the requests it joins, every barrier
// release and marker — while changing nothing about timing. A repetition's
// slice of that trace, compiled by Capture.Plan, is an immutable Plan that
// a Replayer (replay.go) can re-time without goroutines, channels, or
// matching.
//
// The trace is structural: it holds ranks, NICs, byte counts, and request
// wiring, never virtual times. Whether a given structure is valid for
// every repetition is decided by the caller, by capturing two repetitions
// and byte-comparing their Plans (EquivalentTo): identical structure under
// two different jitter draws is the gate for replaying the rest; a
// mismatch (timing-dependent control flow) falls back to the scheduler.

// evKind enumerates plan/trace event kinds.
type evKind uint8

const (
	evSleep evKind = iota
	evSend
	evRecv
	evWait
	evBarrier
	evMark
)

// capEvent is one recorded trace event. Slot numbers are capture-global
// (assigned in processing order) and remapped to plan-local slots by
// Capture.Plan.
type capEvent struct {
	kind evKind
	rank int32
	// send / recv
	peer     int   // send: destination rank; recv: source rank
	tag      int   // message tag
	bytes    int   // send: message size
	slot     int32 // send/recv request slot
	peerSlot int32 // send: the recv slot the message binds, -1 if never received
	posted   bool  // send: recv was posted first; recv: message arrived first
	// sleep
	dur float64
	// wait: slots live at waitSlots[wOff : wOff+wLen]
	wOff, wLen int32
}

// capKey identifies one unexpected-message FIFO during capture.
type capKey struct {
	dst int
	src int
	tag int
}

// capture records the trace of one run. It is owned by the scheduler
// goroutine; all methods are called from there.
type capture struct {
	nprocs      int
	net         *simnet.Network
	cfg         simnet.Config
	barrierCost float64
	events      []capEvent
	waitSlots   []int32
	marks       []int32 // indices into events, in order
	nextSlot    int32   // slot ids live on the requests themselves (Request.slot)
	payload     bool    // some send carried real payload bytes
	// unexp mirrors the scheduler's unexpected-message queues with the
	// indices of the send events whose messages sit in them, so a receive
	// that pops an unexpected message can be wired to the send that
	// produced it.
	unexp map[capKey][]int32
}

func newCapture(net *simnet.Network, nprocs int, barrierCost float64) *capture {
	return &capture{
		nprocs:      nprocs,
		net:         net,
		cfg:         net.Config(),
		barrierCost: barrierCost,
		unexp:       make(map[capKey][]int32),
	}
}

// reset re-arms a capture for another run, keeping the capacity of every
// buffer — a Runner recycles one capture across RunCapture calls so a
// measurement sweep pays the trace allocation once per worker, not once
// per grid point.
func (c *capture) reset(net *simnet.Network, nprocs int, barrierCost float64) {
	c.nprocs = nprocs
	c.net = net
	c.cfg = net.Config()
	c.barrierCost = barrierCost
	c.events = c.events[:0]
	c.waitSlots = c.waitSlots[:0]
	c.marks = c.marks[:0]
	c.nextSlot = 0
	c.payload = false
	// A completed run leaves the unexpected-message mirror empty unless it
	// ended with undelivered sends; clear any leftovers.
	for k := range c.unexp {
		delete(c.unexp, k)
	}
}

func (c *capture) sleep(op *operation) {
	c.events = append(c.events, capEvent{kind: evSleep, rank: int32(op.rank), dur: op.dur})
}

func (c *capture) mark(op *operation) {
	c.marks = append(c.marks, int32(len(c.events)))
	c.events = append(c.events, capEvent{kind: evMark, rank: int32(op.rank)})
}

func (c *capture) wait(op *operation) {
	off := int32(len(c.waitSlots))
	for _, r := range op.reqs {
		c.waitSlots = append(c.waitSlots, r.slot)
	}
	c.events = append(c.events, capEvent{kind: evWait, rank: int32(op.rank), wOff: off, wLen: int32(len(op.reqs))})
}

func (c *capture) barrier() {
	c.events = append(c.events, capEvent{kind: evBarrier})
}

// send records a transmitted message; the matching outcome is filled in by
// the deliverPosted/deliverUnexpected/recvPending hook that follows.
func (c *capture) send(op *operation) {
	slot := c.nextSlot
	c.nextSlot++
	op.req.slot = slot
	if op.data != nil {
		c.payload = true
	}
	c.events = append(c.events, capEvent{
		kind: evSend, rank: int32(op.rank), peer: op.peer, tag: op.tag,
		bytes: op.bytes, slot: slot, peerSlot: -1,
	})
}

// deliverPosted wires the send event just recorded to the already-posted
// receive it matched.
func (c *capture) deliverPosted(recvOp *operation) {
	e := &c.events[len(c.events)-1]
	e.peerSlot = recvOp.req.slot
	e.posted = true
}

// deliverUnexpected parks the send event just recorded in the mirror of
// the destination's unexpected queue.
func (c *capture) deliverUnexpected(dst int, key matchKey) {
	k := capKey{dst: dst, src: key.src, tag: key.tag}
	c.unexp[k] = append(c.unexp[k], int32(len(c.events)-1))
}

// recvPosted records a receive that was queued to wait for its message.
func (c *capture) recvPosted(op *operation) {
	slot := c.nextSlot
	c.nextSlot++
	op.req.slot = slot
	c.events = append(c.events, capEvent{kind: evRecv, rank: int32(op.rank), peer: op.peer, tag: op.tag, slot: slot})
}

// recvPending records a receive that popped an already-delivered
// unexpected message, and wires the matching send event to it.
func (c *capture) recvPending(op *operation, key matchKey) {
	slot := c.nextSlot
	c.nextSlot++
	op.req.slot = slot
	k := capKey{dst: op.rank, src: key.src, tag: key.tag}
	q := c.unexp[k]
	sendIdx := q[0]
	c.unexp[k] = q[1:]
	c.events[sendIdx].peerSlot = slot
	c.events[sendIdx].posted = false
	c.events = append(c.events, capEvent{kind: evRecv, rank: int32(op.rank), peer: op.peer, tag: op.tag, slot: slot, posted: true})
}

// Capture is the immutable trace of one RunCapture run.
type Capture struct {
	nprocs      int
	net         *simnet.Network
	cfg         simnet.Config
	barrierCost float64
	slots       int
	payload     bool
	events      []capEvent
	waitSlots   []int32
	marks       []int32
}

// MarkCount returns the number of Mark calls recorded.
func (c *Capture) MarkCount() int { return len(c.marks) }

// HasPayload reports whether any send in the trace carried real payload
// bytes. Payload delivery cannot be reproduced by an echo validation run
// (plans record structure, not data), so payload-carrying programs must
// stay on the scheduler engine.
func (c *Capture) HasPayload() bool { return c.payload }

// planEvent is one structural event of a compiled Plan: the part of an
// event that is a function of the program's communication pattern alone —
// kind, endpoints, request wiring — and therefore shared by every grid
// point of the same structure class. The owning rank is implicit: events
// are stored rank-major (see Plan.rankOff). Per-point quantities (byte
// counts, link timings, sleep durations, jitter-draw flags) live in the
// parallel planBind array, so a template's skeleton can be rebound to a
// new operation without recompiling (Runner.Rebind).
type planEvent struct {
	kind   evKind
	srcNIC int32
	dstNIC int32
	slot   int32
	// send: the recv slot the message binds, -1 if never received.
	peerSlot int32
	// peer rank and message tag, kept so an echo or rebind pass can
	// compare a re-executed operation stream against the plan.
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

// Plan is the immutable, replayable structure of one repetition: the
// events between two marks of a captured trace, in canonical form. Build
// one with Capture.Plan, or goroutine-free with Runner.Compile (which
// yields the same canonical form without a trace); replay it with a
// Replayer.
//
// The canonical form is rank-major: each rank's events in its own program
// order, with barriers (global separators in the trace) appearing once in
// every rank's sequence, and request slots numbered in rank-major
// introduction order. The trace's global interleaving — which depends on
// the jitter drawn during the captured repetition — is deliberately
// erased: two repetitions of a timing-independent program compile to
// byte-identical Plans under any noise (the EquivalentTo gate), and the
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
	// binding (binds[i] belongs to events[i]). A rebound plan
	// (Runner.Rebind) aliases a template's skeleton slices and owns only
	// a fresh binds array.
	events    []planEvent
	binds     []planBind
	waitSlots []int32
	// slotOwner is the rank whose send/recv introduced each slot; slotPend
	// is the number of halves that must complete before the slot's request
	// is bound (1 for a send, 2 for a matched receive: the receive itself
	// and its message's delivery). slotEvent maps each slot to the event
	// that introduced it, so a rebind can back-fill receive byte counts
	// from their matched sends without a scratch pass.
	slotOwner []int32
	slotPend  []uint8
	slotEvent []int32
}

// Procs returns the number of ranks the plan spans.
func (p *Plan) Procs() int { return p.nprocs }

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
// The measurement harness uses it to reconstruct the capturing program's
// calibrated preamble clocks when replaying a rebound plan from scratch.
func (p *Plan) BarrierCost() float64 { return p.barrierCost }

// Clone returns a deep, independently-owned copy of the plan. Plans
// compiled by Runner.CompilePlan (and rebound by Runner.Rebind) share the
// Runner's recycled buffers; a caller that wants to outlive the next
// compilation — a template store in particular — clones first.
func (p *Plan) Clone() *Plan {
	q := &Plan{}
	*q = *p
	q.rankOff = append([]int32(nil), p.rankOff...)
	q.events = append([]planEvent(nil), p.events...)
	q.binds = append([]planBind(nil), p.binds...)
	q.waitSlots = append([]int32(nil), p.waitSlots...)
	q.slotOwner = append([]int32(nil), p.slotOwner...)
	q.slotPend = append([]uint8(nil), p.slotPend...)
	q.slotEvent = append([]int32(nil), p.slotEvent...)
	return q
}

// planScratch holds the temporary arrays of one Plan compilation, kept
// so a Runner can recycle them across grid points (Runner.CompilePlan).
type planScratch struct {
	counts, bucketOff, buckets, fill, remap []int32
	bound                                   []bool
}

// growI32 returns a length-n int32 slice reusing s's capacity. The
// contents are unspecified; callers overwrite every entry they read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Plan compiles the trace segment between two marks into a Plan: the
// events strictly after mark fromMark up to (and excluding) mark toMark,
// or to the end of the trace when toMark is negative. Marks between the
// boundaries are part of the plan (a replay pass reports the replayed
// clock at each).
//
// It fails if the segment's communication does not close over itself —
// a send matched by a receive outside the segment, a wait on such a
// receive, or a request posted outside the segment; such a structure
// cannot be replayed in isolation.
func (c *Capture) Plan(fromMark, toMark int) (*Plan, error) {
	return c.plan(&Plan{}, &planScratch{}, fromMark, toMark)
}

func (c *Capture) plan(p *Plan, scratch *planScratch, fromMark, toMark int) (*Plan, error) {
	if fromMark < 0 || fromMark >= len(c.marks) || (toMark >= 0 && (toMark >= len(c.marks) || toMark <= fromMark)) {
		return nil, fmt.Errorf("mpi: plan marks %d..%d outside trace with %d marks", fromMark, toMark, len(c.marks))
	}
	lo := int(c.marks[fromMark]) + 1
	hi := len(c.events)
	if toMark >= 0 {
		hi = int(c.marks[toMark])
	}
	*p = Plan{
		nprocs:      c.nprocs,
		nics:        c.cfg.NICs(),
		barrierCost: c.barrierCost,
		rankOff:     growI32(p.rankOff, c.nprocs+1),
		events:      p.events[:0],
		binds:       p.binds[:0],
		waitSlots:   p.waitSlots[:0],
		slotOwner:   p.slotOwner[:0],
		slotPend:    p.slotPend[:0],
		slotEvent:   p.slotEvent[:0],
	}
	if cap(p.events) < hi-lo {
		p.events = make([]planEvent, 0, hi-lo)
	}
	if cap(p.binds) < hi-lo {
		p.binds = make([]planBind, 0, hi-lo)
	}
	// Bucket the trace per rank. A rank's own events keep its program
	// order under any jitter; barriers release only once every rank has
	// arrived, so they are global separators and enter every sequence.
	// Bucket entries are trace indices, or -1 for a barrier marker.
	counts := growI32(scratch.counts, c.nprocs)
	scratch.counts = counts
	for i := range counts {
		counts[i] = 0
	}
	nbar := int32(0)
	for i := lo; i < hi; i++ {
		if c.events[i].kind == evBarrier {
			nbar++
		} else {
			counts[c.events[i].rank]++
		}
	}
	bucketOff := growI32(scratch.bucketOff, c.nprocs+1)
	scratch.bucketOff = bucketOff
	bucketOff[0] = 0
	for r := 0; r < c.nprocs; r++ {
		bucketOff[r+1] = bucketOff[r] + counts[r] + nbar
	}
	buckets := growI32(scratch.buckets, int(bucketOff[c.nprocs]))
	scratch.buckets = buckets
	fill := growI32(scratch.fill, c.nprocs)
	scratch.fill = fill
	copy(fill, bucketOff[:c.nprocs])
	for i := lo; i < hi; i++ {
		e := &c.events[i]
		if e.kind == evBarrier {
			for r := 0; r < c.nprocs; r++ {
				buckets[fill[r]] = -1
				fill[r]++
			}
			continue
		}
		buckets[fill[e.rank]] = int32(i)
		fill[e.rank]++
	}
	perRank := func(r int) []int32 { return buckets[bucketOff[r]:bucketOff[r+1]] }
	// Canonical slot numbers: rank-major introduction order. Capture slot
	// ids are dense, so the remap is a plain array (-1 = not in segment).
	remap := growI32(scratch.remap, c.slots)
	scratch.remap = remap
	for i := range remap {
		remap[i] = -1
	}
	nslots := int32(0)
	for r := 0; r < c.nprocs; r++ {
		for _, i := range perRank(r) {
			if i < 0 {
				continue
			}
			e := &c.events[i]
			if e.kind == evSend || e.kind == evRecv {
				remap[e.slot] = nslots
				nslots++
				p.slotOwner = append(p.slotOwner, int32(r))
				pend := uint8(1)
				if e.kind == evRecv {
					pend = 2
				}
				p.slotPend = append(p.slotPend, pend)
			}
		}
	}
	// bound marks canonical recv slots matched in-segment; p.slotEvent maps
	// each canonical slot to its introducing event index (kept on the plan:
	// a rebind pass reuses it to back-fill receive byte counts).
	if cap(scratch.bound) < int(nslots) {
		scratch.bound = make([]bool, nslots)
	}
	bound := scratch.bound[:nslots]
	for i := range bound {
		bound[i] = false
	}
	p.slotEvent = growI32(p.slotEvent, int(nslots))
	noisy := c.cfg.NoiseAmplitude > 0
	for r := 0; r < c.nprocs; r++ {
		p.rankOff[r] = int32(len(p.events))
		for _, i := range perRank(r) {
			if i < 0 {
				p.events = append(p.events, planEvent{kind: evBarrier, peerSlot: -1})
				p.binds = append(p.binds, planBind{})
				continue
			}
			e := &c.events[i]
			pe := planEvent{kind: e.kind, peerSlot: -1, peer: e.peer, tag: e.tag}
			pb := planBind{bytes: e.bytes, dur: e.dur}
			switch e.kind {
			case evSend:
				pe.slot = remap[e.slot]
				pe.srcNIC = int32(c.cfg.NIC(int(e.rank)))
				pe.dstNIC = int32(c.cfg.NIC(e.peer))
				pb.lt = c.net.TimingFor(int(e.rank), e.peer, e.bytes)
				if !pb.lt.Local {
					pb.draws = noisy && pb.lt.TxTime > 0
					if pb.draws {
						p.draws++
					}
				}
				p.sends++
				p.slotEvent[pe.slot] = int32(len(p.events))
				if e.peerSlot >= 0 {
					m := remap[e.peerSlot]
					if m < 0 {
						return nil, fmt.Errorf("mpi: plan: send matched by a receive outside the segment")
					}
					pe.peerSlot = m
					bound[m] = true
				}
			case evRecv:
				pe.slot = remap[e.slot]
				p.slotEvent[pe.slot] = int32(len(p.events))
			case evWait:
				pe.wOff = int32(len(p.waitSlots))
				pe.wLen = e.wLen
				for _, s := range c.waitSlots[e.wOff : e.wOff+e.wLen] {
					m := remap[s]
					if m < 0 {
						return nil, fmt.Errorf("mpi: plan: wait on request posted outside the segment")
					}
					p.waitSlots = append(p.waitSlots, m)
				}
			case evMark:
				p.marks++
			case evSleep:
				// nothing beyond the common fields
			}
			p.events = append(p.events, pe)
			p.binds = append(p.binds, pb)
		}
	}
	p.rankOff[c.nprocs] = int32(len(p.events))
	p.slots = int(nslots)
	// A receive's byte count is the matched message's size, known only at
	// the send event; copy it over now that every event is emitted.
	for i := range p.events {
		if e := &p.events[i]; e.kind == evSend && e.peerSlot >= 0 {
			p.binds[p.slotEvent[e.peerSlot]].bytes = p.binds[i].bytes
		}
	}
	// A waited receive whose message never arrives within the segment
	// would park its rank forever.
	for _, m := range p.waitSlots {
		if p.slotPend[m] == 2 && !bound[m] {
			return nil, fmt.Errorf("mpi: plan: wait on a receive matched outside the segment")
		}
	}
	return p, nil
}

// EquivalentTo reports whether two plans describe bit-for-bit the same
// communication structure: same per-rank programs, same NICs, byte
// times, request wiring, and barrier cost. The canonical form erases the
// captured interleaving, so two repetitions of a timing-independent
// program are equivalent under any jitter draws — that equivalence is
// the gate for replaying further repetitions from either plan.
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
