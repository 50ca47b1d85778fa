package mpi

import (
	"errors"
	"fmt"

	"mpicollperf/internal/simnet"
)

// Structural compile: the one way to build a replayable Plan. The runtime
// has no wildcard receives, so which send a receive matches is fixed by
// the per-rank operation streams alone: the k-th receive that rank d
// posts for (source s, tag t) takes the k-th message s sends to d with
// tag t — the scheduler's FIFO matching, with no timing involved.
// Runner.Compile therefore runs each rank's closure once, in rank order,
// on the caller's goroutine (scheduler off, clocks frozen), records every
// operation in program order, and then wires sends to receives by that
// (src, dst, tag, k) rule. Replaying the result is bit-identical to the
// scheduler.
//
// Soundness rests on the program's structure being a function of its
// inputs, never of virtual time or received data. The pass enforces what
// it can see: a Proc.Now read fails the compile, and so does a send that
// carries payload bytes (payload delivery is not replayable). Received
// message sizes read 0 during the pass. Runner.Verify covers the rest: it
// runs the same pass a second time with every receive reading the size
// its matched send carries in the first plan, so a program that branches
// on received sizes, or whose structure changes between invocations,
// compiles to a different second plan.

// ErrPayload is wrapped by the *CompileError of a program whose send
// carries payload bytes: plans hold structure, not data, so such a
// program can only run under the scheduler.
var ErrPayload = errors.New("send carries payload bytes")

// CompileError reports that a program could not be compiled into a plan
// goroutine-free. It is the typed signal for the measurement harness to
// fall back to the scheduler, which reproduces whatever error the
// program really has.
type CompileError struct {
	// Rank is the rank whose program failed (-1 for plan-level failures
	// such as ranks disagreeing on their barrier count).
	Rank int
	// Why describes the failure.
	Why string
	err error // sentinel the failure wraps (ErrPayload), or nil
}

func (e *CompileError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: compile: %s", e.Why)
	}
	return fmt.Sprintf("mpi: compile: rank %d: %s", e.Rank, e.Why)
}

// Unwrap returns the sentinel the failure wraps, if any.
func (e *CompileError) Unwrap() error { return e.err }

// compileRank is the state of one rank's compile pass: operations are
// appended straight to the plan under construction, whose events are
// rank-major because ranks run in rank order.
type compileRank struct {
	r    *Runner
	cfg  simnet.Config
	plan *Plan
	// ref, when non-nil, is the plan a Verify pass checks against:
	// receives read the sizes its matched sends carry.
	ref      *Plan
	barriers int // barriers this rank entered
}

// sendKey is the compile-only matching key of one send, parallel to
// Plan.sends: its stream's (src, dst) pair index, its tag, and its own
// request slot (whose byte count a matched receive takes).
type sendKey struct {
	pair int32
	slot int32
	tag  int
}

// recvStream holds one (src, dst, tag) stream's receive slots in the
// destination's program order; head is the next one a send binds. The
// streams of one (src, dst) pair form a short list through next.
type recvStream struct {
	pair  int32
	next  int32 // next stream of the same pair, -1 at the end
	tag   int
	slots []int32
	head  int
}

// compileStep records one submitted operation. Every slot is introduced
// in rank-major program order, which is the Plan's canonical numbering.
func (p *Proc) compileStep(op *operation) {
	c := p.compile
	pl := c.plan
	pe := planEvent{}
	switch op.kind {
	case opSleep:
		pe.kind = evSleep
		pe.arg = int32(len(pl.durs))
		pl.durs = push(pl.durs, op.dur)
	case opMark:
		pe.kind = evMark
		pl.marks++
	case opBarrier:
		pe.kind = evBarrier
		c.barriers++
	case opIsend:
		if op.data != nil {
			panic(&CompileError{Rank: p.rank, Why: ErrPayload.Error(), err: ErrPayload})
		}
		pe.kind = evSend
		pe.slot = pl.newSlot(p.rank, 1, op.bytes)
		pe.arg = int32(len(pl.sends))
		srcNIC, dstNIC := int32(c.cfg.NIC(p.rank)), int32(c.cfg.NIC(op.peer))
		t := c.timing(p.rank, op.peer, srcNIC, dstNIC, op.bytes)
		if pl.timings[t].draws {
			pl.draws++
		}
		pl.sends = push(pl.sends, planSend{timing: t, srcNIC: srcNIC, dstNIC: dstNIC, peerSlot: -1})
		c.r.sendKeys = push(c.r.sendKeys, sendKey{
			pair: int32(p.rank*pl.nprocs + op.peer), slot: pe.slot, tag: op.tag,
		})
		op.req.slot = pe.slot
	case opIrecv:
		pe.kind = evRecv
		pe.slot = pl.newSlot(p.rank, 2, 0)
		op.req.slot = pe.slot
		op.req.bytes = 0
		if ref := c.ref; ref != nil && int(pe.slot) < ref.slots {
			op.req.bytes = ref.slotBytes[pe.slot]
		}
		s := c.r.stream(int32(op.peer*pl.nprocs+p.rank), op.tag)
		s.slots = push(s.slots, pe.slot)
	case opWait:
		pe.kind = evWait
		pe.slot = int32(len(op.reqs))
		pe.arg = int32(len(pl.waitSlots))
		for _, r := range op.reqs {
			pl.waitSlots = push(pl.waitSlots, r.slot)
		}
	default:
		panic(&CompileError{Rank: p.rank, Why: fmt.Sprintf("%v is not replayable", op.kind)})
	}
	pl.events = push(pl.events, pe)
}

// timingMemoBits sizes the Runner's timing memo: 1<<timingMemoBits
// direct-mapped entries. The calibration's largest plan uses 88 keys.
const timingMemoBits = 8

// timingKey is one entry of the Runner's timing memo: the Plan.timings
// index of the timing of a send of bytes from srcNIC to dstNIC. The zero
// entry is empty (idx holds the index plus one).
type timingKey struct {
	src, dst int32
	idx      int32
	bytes    int
}

// timing returns the index into the plan's timing table of the timing
// of a send of bytes from rank src (on srcNIC) to rank dst (on dstNIC),
// appending the timing on a memo miss. simnet.Network.TimingFor is a
// function of the two NICs and the byte count alone, and the draw flag a
// function of the timing and the network's noise amplitude, so a memo hit
// can skip both. A collision evicts the older key: its next send appends
// its timing again, a duplicate entry that replays the same.
func (c *compileRank) timing(src, dst int, srcNIC, dstNIC int32, bytes int) int32 {
	h := (uint32(srcNIC)*0x9e3779b1 ^ uint32(dstNIC)*0x85ebca77 ^ uint32(bytes)*0xc2b2ae3d) >> (32 - timingMemoBits)
	e := &c.r.timingMemo[h]
	if e.idx != 0 && e.src == srcNIC && e.dst == dstNIC && e.bytes == bytes {
		return e.idx - 1
	}
	pl := c.plan
	t := planTiming{lt: c.r.net.TimingFor(src, dst, bytes)}
	t.draws = !t.lt.Local && c.cfg.NoiseAmplitude > 0 && t.lt.TxTime > 0
	pl.timings = push(pl.timings, t)
	*e = timingKey{src: srcNIC, dst: dstNIC, idx: int32(len(pl.timings)), bytes: bytes}
	return e.idx - 1
}

// newSlot introduces the next canonical request slot, owned by rank,
// with pend halves to complete and bytes as its message size.
func (p *Plan) newSlot(rank int, pend uint8, bytes int) int32 {
	s := int32(len(p.slotOwner))
	p.slotOwner = push(p.slotOwner, int32(rank))
	p.slotPend = push(p.slotPend, pend)
	p.slotBytes = push(p.slotBytes, bytes)
	return s
}

// stream returns the receive stream of (pair, tag), creating it on first
// use (a send nobody receives gets an empty one). pairStream indexes each
// (src, dst) pair's first stream, so a lookup walks only that pair's
// tags. Streams are recycled across compiles: a new one reuses an old
// entry's slot buffer, so steady-state matching allocates nothing.
func (r *Runner) stream(pair int32, tag int) *recvStream {
	for i := r.pairStream[pair]; i >= 0; {
		s := &r.streams[i]
		if s.tag == tag {
			return s
		}
		i = s.next
	}
	i := int32(len(r.streams))
	if cap(r.streams) > len(r.streams) {
		r.streams = r.streams[:i+1]
	} else {
		r.streams = push(r.streams, recvStream{})
	}
	s := &r.streams[i]
	*s = recvStream{pair: pair, next: r.pairStream[pair], tag: tag, slots: s.slots[:0]}
	r.pairStream[pair] = i
	return s
}

// Compile builds the replayable Plan of fn on nprocs ranks without a
// scheduler run: each rank's closure runs once, sequentially and
// goroutine-free, with its clock frozen at zero; its operations are
// recorded in program order (barriers in every rank's sequence) and
// receives are matched to sends by the (src, dst, tag) FIFO rule. Link
// timings, jitter-draw flags and the barrier cost are bound from the
// Runner's network, so replaying the plan is bit-identical to the
// scheduler. Receives read 0 bytes during the pass; Verify checks that
// the program did not depend on them.
//
// Compile fails with a *CompileError when the program cannot be compiled
// goroutine-free: a send carries payload (wrapping ErrPayload), a rank
// reads Proc.Now, ranks disagree on their barrier count, a rank waits on
// a receive that no send matches, or a rank returns an error or panics.
// A plan that compiles may still deadlock (a cycle of waits); a Replayer
// reports that as a walk that does not close.
//
// The returned Plan shares the Runner's recycled plan buffers: it is
// valid only until the next Compile on this Runner.
func (r *Runner) Compile(nprocs int, fn func(*Proc) error) (*Plan, error) {
	p, err := r.compileInto(&r.plan, nil, nprocs, fn)
	if err == nil {
		r.opts.Metrics.Histogram("mpi_plan_events").Observe(float64(p.Events()))
	}
	return p, err
}

// Verify runs Compile's pass over fn a second time, into a second
// recycled plan buffer, with every receive's Request.Bytes reading the
// size its matched send carries in ref. It returns nil only when the
// result is EquivalentTo ref. Time cannot enter a compiled structure
// (Proc.Now fails the pass), so a nil error means the program's
// structure depended neither on the received sizes nor on which of its
// two invocations ran: ref replays it bit-identically to the scheduler.
//
// ref is normally the plan Compile just returned for fn on this Runner.
func (r *Runner) Verify(ref *Plan, fn func(*Proc) error) error {
	got, err := r.compileInto(&r.check, ref, ref.nprocs, fn)
	if err != nil {
		return err
	}
	if !got.EquivalentTo(ref) {
		return fmt.Errorf("mpi: verify: the second compile pass differs from the plan")
	}
	return nil
}

// compileInto is the structural pass behind Compile and Verify: it
// compiles fn into p, reusing p's buffers, with receives reading their
// sizes from ref when ref is non-nil.
func (r *Runner) compileInto(p *Plan, ref *Plan, nprocs int, fn func(*Proc) error) (*Plan, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("mpi: nprocs = %d, need >= 1", nprocs)
	}
	if nprocs > r.net.Nodes() {
		return nil, fmt.Errorf("mpi: nprocs %d exceeds cluster size %d", nprocs, r.net.Nodes())
	}
	cfg := r.net.Config()
	*p = Plan{
		nprocs:      nprocs,
		nics:        cfg.NICs(),
		barrierCost: barrierCostFor(r.opts, cfg, nprocs),
		rankOff:     grow(p.rankOff, nprocs+1),
		events:      p.events[:0],
		sends:       p.sends[:0],
		timings:     p.timings[:0],
		durs:        p.durs[:0],
		waitSlots:   p.waitSlots[:0],
		slotOwner:   p.slotOwner[:0],
		slotPend:    p.slotPend[:0],
		slotBytes:   p.slotBytes[:0],
	}
	for _, s := range r.streams {
		r.pairStream[s.pair] = -1
	}
	r.streams = r.streams[:0]
	r.sendKeys = r.sendKeys[:0]
	clear(r.timingMemo[:])
	if len(r.pairStream) < nprocs*nprocs {
		r.pairStream = make([]int32, nprocs*nprocs)
		for i := range r.pairStream {
			r.pairStream[i] = -1
		}
	}

	for len(r.procs) < nprocs {
		r.procs = append(r.procs, &Proc{rank: len(r.procs)})
	}
	r.compileCur = compileRank{r: r, cfg: cfg, plan: p, ref: ref}
	cr := &r.compileCur
	barriers := 0
	for rank := 0; rank < nprocs; rank++ {
		proc := r.procs[rank]
		proc.size = nprocs
		proc.clock = 0
		proc.seq = 0
		p.rankOff[rank] = int32(len(p.events))
		cr.barriers = 0
		proc.compile = cr
		err := runCompileRank(proc, fn)
		proc.compile = nil
		if err != nil {
			return nil, err
		}
		if rank == 0 {
			barriers = cr.barriers
		} else if cr.barriers != barriers {
			return nil, &CompileError{Rank: -1, Why: fmt.Sprintf("rank 0 enters %d barriers, rank %d enters %d", barriers, rank, cr.barriers)}
		}
	}
	p.rankOff[nprocs] = int32(len(p.events))
	p.slots = len(p.slotOwner)

	// Match: the k-th send of each (src, dst, tag) stream binds the k-th
	// receive of that stream, and hands the receive its byte count.
	bound := grow(r.bound, p.slots)
	r.bound = bound
	for i := range bound {
		bound[i] = false
	}
	for i, k := range r.sendKeys {
		s := r.stream(k.pair, k.tag)
		if s.head == len(s.slots) {
			continue // never received: the message stays unexpected
		}
		m := s.slots[s.head]
		s.head++
		p.sends[i].peerSlot = m
		bound[m] = true
		p.slotBytes[m] = p.slotBytes[k.slot]
	}
	for _, m := range p.waitSlots {
		if p.slotPend[m] == 2 && !bound[m] {
			return nil, &CompileError{Rank: int(p.slotOwner[m]), Why: "wait on a receive that no send matches"}
		}
	}
	return p, nil
}

// runCompileRank runs one rank's closure in compile mode, converting
// panics (payload, Now, API misuse) and returned errors into a
// *CompileError.
func runCompileRank(p *Proc, fn func(*Proc) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if ce, ok := rec.(*CompileError); ok {
				err = ce
			} else {
				err = &CompileError{Rank: p.rank, Why: fmt.Sprintf("panicked: %v", rec)}
			}
		}
	}()
	if err := fn(p); err != nil {
		return &CompileError{Rank: p.rank, Why: err.Error()}
	}
	return nil
}
