package mpi

import (
	"testing"

	"mpicollperf/internal/simnet"
)

func TestRunnerMatchesRunOn(t *testing.T) {
	cfg := testConfig(8)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 2718
	prog := func(p *Proc) error {
		if p.Rank() == 0 {
			for d := 1; d < p.Size(); d++ {
				p.Send(d, 0, nil, 4096*d)
			}
		} else {
			p.Sleep(float64(p.Rank()) * 1e-6)
			p.Recv(0, 0, nil)
		}
		p.Barrier()
		return nil
	}
	want, err := Run(cfg, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := r.Run(8, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got.MakeSpan != want.MakeSpan || got.Transfers != want.Transfers {
			t.Fatalf("run %d diverged from fresh Run: %v/%d vs %v/%d",
				i, got.MakeSpan, got.Transfers, want.MakeSpan, want.Transfers)
		}
		for rk := range want.FinishTimes {
			if got.FinishTimes[rk] != want.FinishTimes[rk] {
				t.Fatalf("run %d rank %d finish diverged", i, rk)
			}
		}
	}
}

func TestRunnerVaryingNprocs(t *testing.T) {
	fanout := func(p *Proc) error {
		if p.Rank() == 0 {
			for d := 1; d < p.Size(); d++ {
				p.Send(d, 0, nil, 1024)
			}
		} else {
			p.Recv(0, 0, nil)
		}
		return nil
	}
	pattern := func(p *Proc) error {
		replayPattern(p)
		return nil
	}
	// The noisy input checks that a Runner dirtied by runs at other sizes
	// draws the same jitter as a fresh one.
	for _, tc := range []struct {
		name string
		cfg  simnet.Config
		prog func(*Proc) error
	}{
		{"quiet", testConfig(16), fanout},
		{"noisy", replayTestConfig(16), pattern},
	} {
		r, err := NewRunner(tc.cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Grow, shrink, regrow: per-rank state must be resized and reset
		// correctly, and each size must match a fresh dedicated run.
		for _, np := range []int{4, 16, 2, 9, 16} {
			got, err := r.Run(np, tc.prog)
			if err != nil {
				t.Fatalf("%s nprocs %d: %v", tc.name, np, err)
			}
			want, err := Run(tc.cfg, np, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			if got.MakeSpan != want.MakeSpan || got.Transfers != want.Transfers {
				t.Fatalf("%s nprocs %d diverged: %v/%d vs %v/%d", tc.name, np, got.MakeSpan, got.Transfers, want.MakeSpan, want.Transfers)
			}
			for rk := range want.FinishTimes {
				if got.FinishTimes[rk] != want.FinishTimes[rk] {
					t.Fatalf("%s nprocs %d: rank %d finish %v vs fresh %v", tc.name, np, rk, got.FinishTimes[rk], want.FinishTimes[rk])
				}
			}
		}
	}
}

func TestRunnerValidation(t *testing.T) {
	r, err := NewRunner(testConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("nprocs 0 should fail")
	}
	if _, err := r.Run(3, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("nprocs > nodes should fail")
	}
	if _, err := NewRunner(simnet.Config{Nodes: -1}, Options{}); err == nil {
		t.Fatal("bad network config should fail")
	}
}

func TestRunnerRecoversAfterFailedRun(t *testing.T) {
	r, err := NewRunner(testConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A deadlocking run, then an aborting run, must leave the pooled
	// scheduler state clean for the next healthy run.
	if _, err := r.Run(2, func(p *Proc) error {
		p.Recv(1-p.Rank(), 0, nil)
		return nil
	}); err == nil {
		t.Fatal("expected deadlock")
	}
	if _, err := r.Run(3, func(p *Proc) error {
		if p.Rank() == 1 {
			panic("induced")
		}
		p.Barrier()
		return nil
	}); err == nil {
		t.Fatal("expected panic error")
	}
	want, err := Run(testConfig(4), 4, pingPongish)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run(4, pingPongish)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakeSpan != want.MakeSpan || got.Transfers != want.Transfers {
		t.Fatalf("post-failure run diverged: %v/%d vs %v/%d", got.MakeSpan, got.Transfers, want.MakeSpan, want.Transfers)
	}
}

// pingPongish is a small healthy program used by the recovery test.
func pingPongish(p *Proc) error {
	next := (p.Rank() + 1) % p.Size()
	prev := (p.Rank() - 1 + p.Size()) % p.Size()
	if p.Rank() == 0 {
		p.Send(next, 0, nil, 256)
		p.Recv(prev, 0, nil)
	} else {
		p.Recv(prev, 0, nil)
		p.Send(next, 0, nil, 256)
	}
	p.Barrier()
	return nil
}

// TestSteadyStateZeroAllocsPerOperation is the acceptance check for the
// allocation-free hot path: on a warm Runner, adding 1000 extra
// send/recv/wait operations to a run must add zero heap allocations. The
// per-run constant (goroutine spawn, the FinishTimes copy, the closure)
// cancels out in the comparison.
func TestSteadyStateZeroAllocsPerOperation(t *testing.T) {
	r, err := NewRunner(testConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(iters int) func(*Proc) error {
		return func(p *Proc) error {
			for i := 0; i < iters; i++ {
				if p.Rank() == 0 {
					p.Send(1, 0, nil, 8192)
					p.Recv(1, 1, nil)
				} else {
					p.Recv(0, 0, nil)
					p.Send(0, 1, nil, 8192)
				}
			}
			return nil
		}
	}
	measure := func(iters int) float64 {
		prog := run(iters)
		return testing.AllocsPerRun(20, func() {
			if _, err := r.Run(2, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Warm the Runner: freelists and queue capacities fill on first use.
	if _, err := r.Run(2, run(1100)); err != nil {
		t.Fatal(err)
	}
	small := measure(100)
	large := measure(1100)
	perOp := (large - small) / 1000 / 4 // 4 operations per round trip
	if perOp > 0.001 {
		t.Fatalf("steady-state path allocates: %.4f allocs/op (runs: %v vs %v allocs)", perOp, small, large)
	}
}
