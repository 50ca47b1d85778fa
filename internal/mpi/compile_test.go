package mpi

import (
	"errors"
	"strings"
	"testing"

	"mpicollperf/internal/simnet"
)

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

// compileVsCapture captures body behind a boundary mark and compiles the
// segment, and compiles body structurally on a second Runner over the
// same configuration; the two plans must be equivalent.
func compileVsCapture(t *testing.T, cfg simnet.Config, nprocs int, body func(*Proc) error) {
	t.Helper()
	rc, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cap, err := rc.RunCapture(nprocs, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Mark()
		}
		return body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rc.CompilePlan(cap, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Compile(nprocs, body)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !got.EquivalentTo(want) {
		t.Fatal("compiled plan is not equivalent to the captured one")
	}
	// A second compile on the same Runner reuses its buffers and streams.
	again, err := r.Compile(nprocs, body)
	if err != nil || !again.EquivalentTo(want) {
		t.Fatalf("recompile on a warm Runner: equivalent=%v err=%v", err == nil && again.EquivalentTo(want), err)
	}
}

// TestCompileMatchesCapture: for every communication mix the replay tests
// use, on one- and two-process-per-node networks with and without noise,
// the goroutine-free compile yields the plan a scheduler capture yields.
func TestCompileMatchesCapture(t *testing.T) {
	const nprocs = 8
	bodies := map[string]func(*Proc) error{
		"pipeline": rebindClosure(8192, 256),
		"resized":  rebindClosure(4096, 512),
		"loose": func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			loosePattern(p)
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			return nil
		},
	}
	for cname, cfg := range map[string]simnet.Config{
		"one_per_node": replayTestConfig(nprocs),
		"two_per_node": replayDualConfig(nprocs),
		"noise_free":   testConfig(nprocs),
	} {
		for bname, body := range bodies {
			t.Run(cname+"/"+bname, func(t *testing.T) {
				compileVsCapture(t, cfg, nprocs, body)
			})
		}
	}
}

// TestCompileErrors: each program a structural compile cannot handle is
// reported as a typed *CompileError, and the Runner compiles and runs
// normally afterwards.
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
	}
	if _, err := r.Compile(0, rebindClosure(8192, 256)); err == nil {
		t.Fatal("compile of 0 ranks succeeded")
	}
	if _, err := r.Compile(nprocs+1, rebindClosure(8192, 256)); err == nil {
		t.Fatal("compile beyond the network size succeeded")
	}
	// The Runner is intact: Now works again outside a compile, and both a
	// compile and a scheduler run succeed.
	if _, err := r.Compile(nprocs, rebindClosure(8192, 256)); err != nil {
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
	rp, err := r.NewReplayer(plan, make([]float64, nprocs), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rp.Replay(1); ok {
		t.Fatal("a deadlocking plan replayed to completion")
	}
}

// TestCompileSteadyStateAllocs: a warm Runner compiles and replays a
// point without allocating. The program uses blocking calls only: a
// WaitAll over a caller-built request slice would allocate that slice in
// the program itself, whatever the engine.
func TestCompileSteadyStateAllocs(t *testing.T) {
	const nprocs, lanes = 8, 4
	r, err := NewRunner(replayTestConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := func(p *Proc) error {
		n, rank := p.Size(), p.Rank()
		p.Barrier()
		if rank == 0 {
			p.Mark()
		}
		for s := 0; s < 3; s++ {
			if rank == 0 {
				p.Send(1, s, nil, 4096)
			} else {
				p.Recv(rank-1, s, nil)
				if rank+1 < n {
					p.Send(rank+1, s, nil, 4096)
				}
			}
		}
		p.Barrier()
		if rank == 0 {
			p.Mark()
		}
		return nil
	}
	start := make([]float64, nprocs)
	point := func() {
		plan, err := r.Compile(nprocs, fn)
		if err != nil {
			t.Fatal(err)
		}
		r.Network().Reset()
		rp, err := r.NewReplayer(plan, start, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rp.Replay(lanes); !ok {
			t.Fatal("replay failed")
		}
	}
	point() // grow the buffers
	if avg := testing.AllocsPerRun(20, point); avg > 0 {
		t.Errorf("steady-state compile+replay allocates %v times per point, want 0", avg)
	}
}
