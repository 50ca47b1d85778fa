package mpi

import (
	"fmt"

	"mpicollperf/internal/simnet"
)

// Structural compile: the goroutine-free way to build a replayable Plan.
// The runtime has no wildcard receives, so which send a receive matches
// is fixed by the per-rank operation streams alone: the k-th receive
// that rank d posts for (source s, tag t) takes the k-th message s sends
// to d with tag t — the scheduler's FIFO matching, with no timing
// involved. Runner.Compile therefore runs each rank's closure once, in
// rank order, on the caller's goroutine (scheduler off, clocks frozen),
// records every operation in program order, and then wires sends to
// receives by that (src, dst, tag, k) rule. The result is exactly the
// canonical Plan a capturing scheduler run would compile (EquivalentTo
// holds), without a scheduler run or an echo run.
//
// Soundness rests on the program's structure being a function of its
// inputs, never of virtual time or received data. The pass enforces what
// it can see: a Proc.Now read fails the compile, and so does a send that
// carries payload bytes (payload delivery is not replayable). Received
// message sizes read 0 during the pass, so programs must not branch on
// Request.Bytes; the measurement layer compiles only stages that declare
// themselves timing-independent, which the shipped collectives satisfy.

// CompileError reports that a program could not be compiled into a plan
// goroutine-free. It is the typed signal for the measurement harness to
// fall back to a scheduler capture of the point, which reproduces
// whatever error the program really has.
type CompileError struct {
	// Rank is the rank whose program failed (-1 for plan-level failures
	// such as ranks disagreeing on their barrier count).
	Rank int
	// Why describes the failure.
	Why string
}

func (e *CompileError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: compile: %s", e.Why)
	}
	return fmt.Sprintf("mpi: compile: rank %d: %s", e.Rank, e.Why)
}

// compileRank is the state of one rank's compile pass: operations are
// appended straight to the plan under construction, whose events are
// rank-major because ranks run in rank order.
type compileRank struct {
	r        *Runner
	cfg      simnet.Config
	plan     *Plan
	barriers int // barriers this rank entered
}

// streamKey names one FIFO message stream: sends from src to dst with tag.
type streamKey struct{ src, dst, tag int }

// recvStream holds a stream's receive slots in the destination's program
// order; head is the next one a send binds. Streams persist across
// compiles on a Runner (reset, never deleted), so steady-state matching
// allocates nothing.
type recvStream struct {
	slots []int32
	head  int
}

// compileStep records one submitted operation. Every slot is introduced
// in rank-major program order, which is the Plan's canonical numbering.
func (p *Proc) compileStep(op *operation) {
	c := p.compile
	pl := c.plan
	pe := planEvent{peerSlot: -1}
	pb := planBind{}
	idx := int32(len(pl.events))
	switch op.kind {
	case opSleep:
		pe.kind = evSleep
		pb.dur = op.dur
	case opMark:
		pe.kind = evMark
		pl.marks++
	case opBarrier:
		pe.kind = evBarrier
		c.barriers++
	case opIsend:
		if op.data != nil {
			panic(&CompileError{Rank: p.rank, Why: "send carries payload bytes"})
		}
		pe.kind = evSend
		pe.peer, pe.tag = op.peer, op.tag
		pe.slot = pl.newSlot(p.rank, 1, idx)
		pe.srcNIC = int32(c.cfg.NIC(p.rank))
		pe.dstNIC = int32(c.cfg.NIC(op.peer))
		pb.bytes = op.bytes
		pb.lt = c.r.net.TimingFor(p.rank, op.peer, op.bytes)
		if !pb.lt.Local && c.cfg.NoiseAmplitude > 0 && pb.lt.TxTime > 0 {
			pb.draws = true
			pl.draws++
		}
		pl.sends++
		op.req.slot = pe.slot
	case opIrecv:
		pe.kind = evRecv
		pe.peer, pe.tag = op.peer, op.tag
		pe.slot = pl.newSlot(p.rank, 2, idx)
		op.req.slot = pe.slot
		op.req.bytes = 0
		s := c.r.stream(streamKey{src: op.peer, dst: p.rank, tag: op.tag})
		s.slots = append(s.slots, pe.slot)
	case opWait:
		pe.kind = evWait
		pe.wOff = int32(len(pl.waitSlots))
		pe.wLen = int32(len(op.reqs))
		for _, r := range op.reqs {
			pl.waitSlots = append(pl.waitSlots, r.slot)
		}
	default:
		panic(&CompileError{Rank: p.rank, Why: fmt.Sprintf("%v is not replayable", op.kind)})
	}
	pl.events = append(pl.events, pe)
	pl.binds = append(pl.binds, pb)
}

// newSlot introduces the next canonical request slot, owned by rank and
// introduced by event idx, with pend halves to complete.
func (p *Plan) newSlot(rank int, pend uint8, idx int32) int32 {
	s := int32(len(p.slotOwner))
	p.slotOwner = append(p.slotOwner, int32(rank))
	p.slotPend = append(p.slotPend, pend)
	p.slotEvent = append(p.slotEvent, idx)
	return s
}

// stream returns the receive stream for k, creating it on first use.
func (r *Runner) stream(k streamKey) *recvStream {
	s := r.streams[k]
	if s == nil {
		if r.streams == nil {
			r.streams = make(map[streamKey]*recvStream)
		}
		s = &recvStream{}
		r.streams[k] = s
	}
	if len(s.slots) == 0 {
		r.touched = append(r.touched, s)
	}
	return s
}

// Compile builds the replayable Plan of fn on nprocs ranks without a
// scheduler run: each rank's closure runs once, sequentially and
// goroutine-free, with its clock frozen at zero; its operations are
// recorded in program order (barriers in every rank's sequence) and
// receives are matched to sends by the (src, dst, tag) FIFO rule. Link
// timings, jitter-draw flags and the barrier cost are bound from the
// Runner's network exactly as Capture.Plan binds them, so the result is
// EquivalentTo the plan a RunCapture of fn followed by CompilePlan over
// its whole trace would produce, and replaying it is bit-identical to
// the scheduler.
//
// Compile fails with a *CompileError when the program cannot be compiled
// goroutine-free: a send carries payload, a rank reads Proc.Now, ranks
// disagree on their barrier count, a rank waits on a receive that no
// send matches, or a rank returns an error or panics. A plan that
// compiles may still deadlock (a cycle of waits); a Replayer reports
// that as a walk that does not close.
//
// The returned Plan shares the Runner's recycled plan buffers: it is
// valid only until the next Compile or CompilePlan on this Runner.
func (r *Runner) Compile(nprocs int, fn func(*Proc) error) (*Plan, error) {
	if nprocs < 1 {
		return nil, fmt.Errorf("mpi: nprocs = %d, need >= 1", nprocs)
	}
	if nprocs > r.net.Nodes() {
		return nil, fmt.Errorf("mpi: nprocs %d exceeds cluster size %d", nprocs, r.net.Nodes())
	}
	cfg := r.net.Config()
	if r.plan == nil {
		r.plan = &Plan{}
		r.planScratch = &planScratch{}
	}
	p := r.plan
	*p = Plan{
		nprocs:      nprocs,
		nics:        cfg.NICs(),
		barrierCost: barrierCostFor(r.opts, cfg, nprocs),
		rankOff:     growI32(p.rankOff, nprocs+1),
		events:      p.events[:0],
		binds:       p.binds[:0],
		waitSlots:   p.waitSlots[:0],
		slotOwner:   p.slotOwner[:0],
		slotPend:    p.slotPend[:0],
		slotEvent:   p.slotEvent[:0],
	}
	for _, s := range r.touched {
		s.slots, s.head = s.slots[:0], 0
	}
	r.touched = r.touched[:0]

	for len(r.procs) < nprocs {
		r.procs = append(r.procs, &Proc{rank: len(r.procs)})
	}
	r.compileCur = compileRank{r: r, cfg: cfg, plan: p}
	cr := &r.compileCur
	barriers := 0
	for rank := 0; rank < nprocs; rank++ {
		proc := r.procs[rank]
		proc.size = nprocs
		proc.clock = 0
		proc.seq = 0
		proc.echo = nil
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
	sc := r.planScratch
	if cap(sc.bound) < p.slots {
		sc.bound = make([]bool, p.slots)
	}
	bound := sc.bound[:p.slots]
	for i := range bound {
		bound[i] = false
	}
	for rank := 0; rank < nprocs; rank++ {
		for i := p.rankOff[rank]; i < p.rankOff[rank+1]; i++ {
			e := &p.events[i]
			if e.kind != evSend {
				continue
			}
			s := r.streams[streamKey{src: rank, dst: e.peer, tag: e.tag}]
			if s == nil || s.head == len(s.slots) {
				continue // never received: the message stays unexpected
			}
			m := s.slots[s.head]
			s.head++
			e.peerSlot = m
			bound[m] = true
			p.binds[p.slotEvent[m]].bytes = p.binds[i].bytes
		}
	}
	for _, m := range p.waitSlots {
		if p.slotPend[m] == 2 && !bound[m] {
			return nil, &CompileError{Rank: int(p.slotOwner[m]), Why: "wait on a receive that no send matches"}
		}
	}
	r.opts.Metrics.Histogram("mpi_plan_events").Observe(float64(p.Events()))
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
