package mpi

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mpicollperf/internal/simnet"
)

// sizedPattern is a pipeline chain, per-rank compute and ack fan-in
// with parametrised byte counts: the same communication structure at
// different sizes, as two grid points of one collective. The request
// slice is fixed-size so the pattern itself allocates nothing.
func sizedPattern(p *Proc, seg, ack int) {
	n, r := p.Size(), p.Rank()
	const segs = 3
	if r == 0 {
		for s := 0; s < segs; s++ {
			p.Send(1, s, nil, seg)
		}
	} else {
		var fwd [segs]*Request
		k := 0
		for s := 0; s < segs; s++ {
			p.Recv(r-1, s, nil)
			if r+1 < n {
				fwd[k] = p.Isend(r+1, s, nil, seg)
				k++
			}
		}
		if k > 0 {
			p.WaitAll(fwd[:k]...)
		}
	}
	p.Sleep(float64(r) * 1e-7)
	if r == 0 {
		for d := 1; d < n; d++ {
			p.Recv(d, 99, nil)
		}
	} else {
		p.Send(0, 99, nil, ack+r)
	}
}

// sizedClosure is one marked repetition of sizedPattern: the span a
// measurement's plan covers.
func sizedClosure(seg, ack int) func(*Proc) error {
	return markedRep(func(p *Proc) { sizedPattern(p, seg, ack) })
}

// loosePattern exercises the matching corners a structural compile must
// get right: several same-tag messages on one stream (non-overtaking), a
// send nobody receives, a receive nobody sends to and nobody waits on, a
// barrier in the middle of the program and a stream whose receiver posts
// before the sender runs (rank 0 receives from the last rank).
func loosePattern(p *Proc) {
	n, r := p.Size(), p.Rank()
	last := n - 1
	switch r {
	case 0:
		in := p.Irecv(last, 7, nil)
		for k := 0; k < 3; k++ {
			p.Send(1, 5, nil, 1000*(k+1))
		}
		p.Isend(1, 6, nil, 64) // never received
		p.Barrier()
		p.Wait(in)
	case 1:
		reqs := [3]*Request{p.Irecv(0, 5, nil), p.Irecv(0, 5, nil), p.Irecv(0, 5, nil)}
		p.Irecv(0, 8, nil) // never sent, never waited
		p.WaitAll(reqs[:]...)
	}
	if r != 0 {
		p.Barrier()
	}
	p.Sleep(float64(r) * 2e-7)
	if r == last {
		p.Send(0, 7, nil, 4096)
	}
}

// compileVsScheduler compiles one marked repetition of body, checks that
// a second compile on the same warm Runner verifies against it, and
// replays it: every repetition's span must be bit-identical to the
// scheduler running the same repetition loop.
func compileVsScheduler(t *testing.T, cfg simnet.Config, nprocs int, body func(*Proc)) {
	t.Helper()
	const reps = 6
	want := schedulerSpans(t, cfg, nprocs, reps, body)
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.Compile(nprocs, markedRep(body))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// A second pass on the same Runner reuses its buffers and streams.
	if err := r.Verify(plan, markedRep(body)); err != nil {
		t.Fatalf("verify on a warm Runner: %v", err)
	}
	got := replaySpans(t, r, plan, preambleClocks(plan), reps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repetition %d: replay %x, scheduler %x", i, got[i], want[i])
		}
	}
}

// TestCompileMatchesCapture: for every communication mix the replay tests
// use, on one- and two-process-per-node networks with and without noise,
// the goroutine-free compile replays bit-identically to the scheduler.
func TestCompileMatchesCapture(t *testing.T) {
	const nprocs = 8
	bodies := map[string]func(*Proc){
		"pipeline": func(p *Proc) { sizedPattern(p, 8192, 256) },
		"resized":  func(p *Proc) { sizedPattern(p, 4096, 512) },
		"loose":    loosePattern,
	}
	for cname, cfg := range map[string]simnet.Config{
		"one_per_node": replayTestConfig(nprocs),
		"two_per_node": replayDualConfig(nprocs),
		"noise_free":   testConfig(nprocs),
	} {
		for bname, body := range bodies {
			t.Run(cname+"/"+bname, func(t *testing.T) {
				compileVsScheduler(t, cfg, nprocs, body)
			})
		}
	}
}

// TestCompileErrors: each program a structural compile cannot handle is
// reported as a typed *CompileError (wrapping ErrPayload for payload
// bytes only), and the Runner compiles and runs normally afterwards.
func TestCompileErrors(t *testing.T) {
	const nprocs = 4
	cases := map[string]struct {
		fn  func(*Proc) error
		why string
	}{
		"payload": {func(p *Proc) error {
			if p.Rank() == 0 {
				p.Send(1, 0, []byte{1, 2, 3}, -1)
			} else if p.Rank() == 1 {
				p.Recv(0, 0, make([]byte, 3))
			}
			return nil
		}, "payload"},
		"now": {func(p *Proc) error {
			if p.Now() > 0 {
				p.Sleep(1e-6)
			}
			return nil
		}, "Now"},
		"barriers": {func(p *Proc) error {
			if p.Rank() != 2 {
				p.Barrier()
			}
			return nil
		}, "barriers"},
		"unmatched": {func(p *Proc) error {
			if p.Rank() == 0 {
				p.Recv(1, 0, nil)
			}
			return nil
		}, "no send matches"},
		"rank error": {func(p *Proc) error {
			if p.Rank() == 3 {
				return errors.New("boom")
			}
			return nil
		}, "boom"},
		"misuse": {func(p *Proc) error {
			p.Send(p.Rank(), 0, nil, 8)
			return nil
		}, "to self"},
	}
	r, err := NewRunner(replayTestConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range cases {
		_, err := r.Compile(nprocs, c.fn)
		var ce *CompileError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want a *CompileError", name, err)
		}
		if !strings.Contains(ce.Error(), c.why) {
			t.Fatalf("%s: error %q does not mention %q", name, ce, c.why)
		}
		if errors.Is(err, ErrPayload) != (name == "payload") {
			t.Fatalf("%s: errors.Is(%v, ErrPayload) = %v", name, err, !(name == "payload"))
		}
	}
	if _, err := r.Compile(0, sizedClosure(8192, 256)); err == nil {
		t.Fatal("compile of 0 ranks succeeded")
	}
	if _, err := r.Compile(nprocs+1, sizedClosure(8192, 256)); err == nil {
		t.Fatal("compile beyond the network size succeeded")
	}
	// The Runner is intact: Now works again outside a compile, and both a
	// compile and a scheduler run succeed.
	if _, err := r.Compile(nprocs, sizedClosure(8192, 256)); err != nil {
		t.Fatalf("compile after failures: %v", err)
	}
	if _, err := r.Run(nprocs, func(p *Proc) error { sizedPattern(p, 8192, 256); _ = p.Now(); return nil }); err != nil {
		t.Fatalf("run after failed compiles: %v", err)
	}
}

// TestCompileDeadlockDoesNotReplay: a cycle of waits is structurally
// matched, so it compiles, but its replay cannot close — the Replayer
// reports the walk as failed, as the scheduler reports a deadlock.
func TestCompileDeadlockDoesNotReplay(t *testing.T) {
	const nprocs = 2
	cross := func(p *Proc) error {
		peer := 1 - p.Rank()
		p.Recv(peer, 0, nil)
		p.Send(peer, 0, nil, 8)
		return nil
	}
	r, err := NewRunner(testConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(nprocs, cross); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("scheduler: got %v, want a deadlock", err)
	}
	plan, err := r.Compile(nprocs, cross)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rp, err := r.NewReplayer(plan, make([]float64, nprocs))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rp.Replay(); ok {
		t.Fatal("a deadlocking plan replayed to completion")
	}
}

// clonePlan deep-copies p's tables, so a test can mutate the copy.
func clonePlan(p *Plan) *Plan {
	q := *p
	q.rankOff = slices.Clone(p.rankOff)
	q.events = slices.Clone(p.events)
	q.sends = slices.Clone(p.sends)
	q.durs = slices.Clone(p.durs)
	q.waitSlots = slices.Clone(p.waitSlots)
	q.slotOwner = slices.Clone(p.slotOwner)
	q.slotPend = slices.Clone(p.slotPend)
	q.slotBytes = slices.Clone(p.slotBytes)
	return &q
}

// TestPlanEquivalentToDetectsEveryField: Verify's soundness rests on
// EquivalentTo comparing every table replay reads, so changing exactly
// one entry of any of them — a send's timing, NICs, bound receive or
// jitter draw, a sleep's duration, one slot a wait joins or its length,
// a slot's bytes, owner or pend count, a rank's event offset — must make
// two otherwise identical plans differ.
func TestPlanEquivalentToDetectsEveryField(t *testing.T) {
	const nprocs = 8
	r, err := NewRunner(replayDualConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.Compile(nprocs, sizedClosure(8192, 256))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.EquivalentTo(clonePlan(plan)) {
		t.Fatal("a plan is not equivalent to its copy")
	}
	lastSleep := len(plan.durs) - 1
	wait := slices.IndexFunc(plan.events, func(e planEvent) bool { return e.kind == evWait && e.slot > 0 })
	send, matched := 0, slices.IndexFunc(plan.sends, func(s planSend) bool { return s.peerSlot >= 0 })
	if lastSleep < 0 || wait < 0 || matched < 0 || plan.durs[lastSleep] == 0 {
		t.Fatal("the program compiled no nonzero sleep, wait or matched send")
	}
	mutations := map[string]func(q *Plan){
		"send timing":    func(q *Plan) { q.sends[send].lt.TxTime *= 2 },
		"send local":     func(q *Plan) { q.sends[send].lt.Local = !q.sends[send].lt.Local },
		"send src NIC":   func(q *Plan) { q.sends[send].srcNIC++ },
		"send dst NIC":   func(q *Plan) { q.sends[send].dstNIC++ },
		"send peer slot": func(q *Plan) { q.sends[matched].peerSlot = -1 },
		"send draws":     func(q *Plan) { q.sends[send].draws = !q.sends[send].draws },
		"sleep duration": func(q *Plan) { q.durs[lastSleep] *= 2 },
		"wait slot":      func(q *Plan) { q.waitSlots[q.events[wait].arg]++ },
		"wait length":    func(q *Plan) { q.events[wait].slot-- },
		"slot bytes":     func(q *Plan) { q.slotBytes[0]++ },
		"slot owner":     func(q *Plan) { q.slotOwner[0]++ },
		"slot pend":      func(q *Plan) { q.slotPend[0]++ },
		"rank offset":    func(q *Plan) { q.rankOff[1]++ },
	}
	for name, mutate := range mutations {
		q := clonePlan(plan)
		mutate(q)
		if plan.EquivalentTo(q) || q.EquivalentTo(plan) {
			t.Errorf("%s: a plan with one changed entry is still equivalent", name)
		}
	}
}
