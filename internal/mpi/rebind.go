package mpi

import (
	"fmt"
)

// Plan rebinding: the replay engine's template path. A Plan's *structure*
// — event kinds, peers, tags, slots, wait sets — is a function of the
// operation's shape (algorithm, communicator size, segment count), not of
// its byte sizes. Two grid points of the same structure class therefore
// share a skeleton, and the second point only needs a new binding: byte
// counts harvested from its closures, link timings recomputed from the
// network, jitter-draw flags and durations re-derived.
//
// Rebind produces that binding without a single goroutine: each rank's
// closure runs sequentially on the caller's goroutine with the scheduler
// switched off, every submitted operation checked against the template's
// skeleton (any mismatch is a typed RebindError — the caller compiles the
// point afresh) while its sizes are written into the new binding. Unlike
// a structural compile (compile.go) it needs no message matching: the
// template's wiring is reused. Clocks are frozen during the pass: the
// closures under measurement never read Proc.Now, and all virtual times
// are produced later by the Replayer, which is bit-identical to the
// scheduler.
//
// Soundness: templates are compiled (Runner.Compile) from stages that
// declare a structure class, which promises the stage's structure does
// not depend on virtual time, received data or its invocation count; the
// compile rejects Now reads and payload, and the rebind pass structurally
// compares every operation of the new point against the template. What
// neither pass can see is a program whose *sizes* depend on received
// data or on virtual time — Request.Bytes reads 0 and Now is frozen
// during the pass — so callers must key templates by everything that
// determines structure and sizes (the experiment layer's structure-class
// keys do). The shipped collective operations read neither.

// RebindError reports that a program's operation stream diverged from the
// template it was being rebound against. It is the typed signal for the
// measurement harness to compile the point afresh.
type RebindError struct {
	// Rank is the rank whose stream diverged (-1 for plan-level
	// mismatches such as a wrong network shape).
	Rank int
	// Why describes the divergence.
	Why string
}

func (e *RebindError) Error() string {
	if e.Rank < 0 {
		return fmt.Sprintf("mpi: rebind: %s", e.Why)
	}
	return fmt.Sprintf("mpi: rebind: rank %d: %s", e.Rank, e.Why)
}

// rebindRank is one rank's cursor over the template during a rebind pass.
// The plan's skeleton slices alias the template's; only binds is written.
type rebindRank struct {
	plan *Plan // the rebound plan under construction
	next int32 // next unconsumed event in the rank's slice
	end  int32
}

// rebindStep validates one submitted operation against the template's
// skeleton and harvests its sizes into the new binding. The rank's clock
// is frozen; divergence panics with a *RebindError (recovered by Rebind).
func (p *Proc) rebindStep(op *operation) {
	rb := p.rebind
	if rb.next >= rb.end {
		p.rebindFail(op, "past the end of the template")
	}
	idx := rb.next
	rb.next++
	pe := &rb.plan.events[idx]
	pb := &rb.plan.binds[idx]
	*pb = planBind{}
	want := evKind(0)
	switch op.kind {
	case opSleep:
		want = evSleep
		pb.dur = op.dur
	case opMark:
		want = evMark
	case opBarrier:
		want = evBarrier
	case opIsend:
		want = evSend
		if pe.kind == evSend {
			if op.data != nil {
				p.rebindFail(op, "send carries payload bytes")
			}
			if pe.peer != op.peer || pe.tag != op.tag {
				p.rebindFail(op, "destination or tag diverges from the template")
			}
			pb.bytes = op.bytes
			op.req.slot = pe.slot
		}
	case opIrecv:
		want = evRecv
		if pe.kind == evRecv && (pe.peer != op.peer || pe.tag != op.tag) {
			p.rebindFail(op, "source or tag diverges from the template")
		}
		op.req.slot = pe.slot
		op.req.bytes = 0
	case opWait:
		want = evWait
		if pe.kind == evWait {
			if int(pe.wLen) != len(op.reqs) {
				p.rebindFail(op, "request count diverges from the template")
			}
			for i, r := range op.reqs {
				if r.slot != rb.plan.waitSlots[pe.wOff+int32(i)] {
					p.rebindFail(op, "request set diverges from the template")
				}
			}
		}
	default:
		p.rebindFail(op, "operation kind not replayable")
	}
	if pe.kind != want {
		p.rebindFail(op, fmt.Sprintf("template has %v here, got %v", pe.kind, op.kind))
	}
}

func (p *Proc) rebindFail(op *operation, why string) {
	panic(&RebindError{Rank: p.rank, Why: fmt.Sprintf("%v: %s", op.kind, why)})
}

// Rebind binds the template tpl to a new operation: fn is re-executed for
// every rank, sequentially and goroutine-free, against the template's
// structural skeleton. Each submitted operation must match the skeleton's
// kind, peer, tag, and request wiring — any divergence returns a
// *RebindError, telling the caller to compile the point afresh — while
// its byte counts and sleep durations are harvested into a fresh binding.
// Link timings, jitter-draw flags, and the barrier cost are then
// recomputed from the Runner's network exactly as a capture of the new
// point would have computed them, so replaying the rebound plan is
// bit-identical to capture-then-replay of that point.
//
// The returned Plan aliases the template's skeleton (which stays
// untouched) and the Runner's recycled binding buffer: it is valid only
// until the next Rebind on this Runner, and the template must not be
// mutated concurrently (TemplateStore hands out immutable clones). The
// network must have the shape the template was compiled on (same NIC
// count, at least Procs nodes); the caller keys templates per profile.
//
// Clocks are frozen at zero during the pass: fn must not branch on
// Proc.Now or on received message sizes (Request.Bytes reads 0). The
// measurement closures and the shipped collectives satisfy this; the
// differential fuzz target FuzzRebindMatchesCapture guards it.
func (r *Runner) Rebind(tpl *Plan, fn func(*Proc) error) (*Plan, error) {
	n := tpl.nprocs
	cfg := r.net.Config()
	if n > r.net.Nodes() {
		return nil, &RebindError{Rank: -1, Why: fmt.Sprintf("template spans %d ranks, network has %d nodes", n, r.net.Nodes())}
	}
	if tpl.nics != cfg.NICs() {
		return nil, &RebindError{Rank: -1, Why: fmt.Sprintf("template compiled on %d NICs, network has %d", tpl.nics, cfg.NICs())}
	}
	if r.rebound == nil {
		r.rebound = &Plan{}
	}
	// The binding buffer is Runner-owned and grow-only (the rebound plan's
	// binds field aliases it, so it must not be recycled through the plan:
	// *p = *tpl overwrites that field with the template's own array).
	r.rebindBinds = grow(r.rebindBinds, len(tpl.events))
	p := r.rebound
	*p = *tpl // alias the immutable skeleton slices
	p.binds = r.rebindBinds
	p.draws = 0
	p.barrierCost = barrierCostFor(r.opts, cfg, n)

	for len(r.procs) < n {
		r.procs = append(r.procs, &Proc{rank: len(r.procs)})
	}
	r.rebindCur.plan = p
	for rank := 0; rank < n; rank++ {
		proc := r.procs[rank]
		proc.size = n
		proc.clock = 0
		proc.seq = 0
		proc.echo = nil
		r.rebindCur.next = tpl.rankOff[rank]
		r.rebindCur.end = tpl.rankOff[rank+1]
		proc.rebind = &r.rebindCur
		err := runRebindRank(proc, fn)
		proc.rebind = nil
		if err != nil {
			r.rebindCur.plan = nil
			if re, ok := err.(*RebindError); ok {
				return nil, re
			}
			return nil, &RebindError{Rank: rank, Why: err.Error()}
		}
	}
	r.rebindCur.plan = nil

	// Second pass: recompute every send's effective link timing and jitter
	// draw from the new byte counts, and back-fill receive byte counts
	// from their matched sends — exactly what Capture.plan computes for a
	// fresh capture of this point.
	noisy := cfg.NoiseAmplitude > 0
	for rank := 0; rank < n; rank++ {
		for i := tpl.rankOff[rank]; i < tpl.rankOff[rank+1]; i++ {
			pe := &tpl.events[i]
			if pe.kind != evSend {
				continue
			}
			pb := &p.binds[i]
			pb.lt = r.net.TimingFor(rank, pe.peer, pb.bytes)
			if !pb.lt.Local && noisy && pb.lt.TxTime > 0 {
				pb.draws = true
				p.draws++
			}
			if ps := pe.peerSlot; ps >= 0 {
				p.binds[tpl.slotEvent[ps]].bytes = pb.bytes
			}
		}
	}
	return p, nil
}

// runRebindRank runs one rank's closure in rebind mode, converting panics
// (divergence, API misuse) into errors and checking that the rank
// consumed exactly its slice of the template.
func runRebindRank(p *Proc, fn func(*Proc) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if e, ok := rec.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("mpi: rebind: rank %d panicked: %v", p.rank, rec)
			}
		}
		if err == nil && p.rebind.next != p.rebind.end {
			err = &RebindError{Rank: p.rank, Why: fmt.Sprintf("stopped %d events short of the template", p.rebind.end-p.rebind.next)}
		}
	}()
	err = fn(p)
	return err
}
