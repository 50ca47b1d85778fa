package mpi

import (
	"errors"
	"testing"

	"mpicollperf/internal/simnet"
)

// replayTestConfig is a noisy cluster for the replay differential tests.
func replayTestConfig(nodes int) simnet.Config {
	cfg := testConfig(nodes)
	cfg.NoiseAmplitude = 0.05
	cfg.NoiseSeed = 4242
	return cfg
}

// replayDualConfig co-locates pairs of processes on shared NICs, so plans
// contain local (port-free, jitter-free) transfers alongside NIC ones.
func replayDualConfig(procs int) simnet.Config {
	cfg := replayTestConfig(procs)
	cfg.ProcsPerNode = 2
	cfg.IntraNodeLatency = 1e-6
	cfg.IntraNodeByteTime = 1e-10
	return cfg
}

// replayPattern is the communication mix the replay tests exercise: a
// segmented pipeline chain (receive segment s, forward it non-blocking),
// per-rank compute time, and a fan-in of differently-sized acks onto rank
// 0 whose arrival order depends on the jitter (unexpected-message
// pressure).
func replayPattern(p *Proc) {
	n, r := p.Size(), p.Rank()
	const segs = 3
	if r == 0 {
		for s := 0; s < segs; s++ {
			p.Send(1, s, nil, 8192)
		}
	} else {
		var fwd []*Request
		for s := 0; s < segs; s++ {
			p.Recv(r-1, s, nil)
			if r+1 < n {
				fwd = append(fwd, p.Isend(r+1, s, nil, 8192))
			}
		}
		if len(fwd) > 0 {
			p.WaitAll(fwd...)
		}
	}
	p.Sleep(float64(r) * 1e-7)
	if r == 0 {
		for d := 1; d < n; d++ {
			p.Recv(d, 99, nil)
		}
	} else {
		p.Send(0, 99, nil, 256+r)
	}
}

// markedRep is one marked repetition of body: open barrier, start mark,
// body, close barrier, end mark.
func markedRep(body func(*Proc)) func(*Proc) error {
	return func(p *Proc) error {
		root := p.Rank() == 0
		p.Barrier()
		if root {
			p.Mark()
		}
		body(p)
		p.Barrier()
		if root {
			p.Mark()
		}
		return nil
	}
}

// preambleClocks are the clocks a scheduler program reaches after two
// barriers from clock zero — where the measurement harness starts
// replaying a plan from.
func preambleClocks(plan *Plan) []float64 {
	start := make([]float64, plan.nprocs)
	for i := range start {
		start[i] = 2 * plan.BarrierCost()
	}
	return start
}

// compileOneRep compiles one marked repetition of body on a fresh
// Runner, returning the plan and the clocks to replay it from.
func compileOneRep(t testing.TB, cfg simnet.Config, nprocs int, body func(*Proc)) (*Runner, *Plan, []float64) {
	t.Helper()
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.Compile(nprocs, markedRep(body))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Marks() != 2 {
		t.Fatalf("plan has %d marks, want 2", plan.Marks())
	}
	return r, plan, preambleClocks(plan)
}

// schedulerSpans runs reps marked repetitions of body in one scheduler
// program after a two-barrier preamble, and returns each repetition's
// span between its start and end marks, as rank 0 reads its clock.
func schedulerSpans(t testing.TB, cfg simnet.Config, nprocs, reps int, body func(*Proc)) []float64 {
	t.Helper()
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var spans []float64
	if _, err := r.Run(nprocs, func(p *Proc) error {
		p.Barrier()
		p.Barrier()
		for rep := 0; rep < reps; rep++ {
			p.Barrier()
			start := p.Now()
			body(p)
			p.Barrier()
			if p.Rank() == 0 {
				spans = append(spans, p.Now()-start)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return spans
}

// replaySpans replays reps repetitions of plan from start and returns
// each repetition's span between its two marks.
func replaySpans(t testing.TB, r *Runner, plan *Plan, start []float64, reps int) []float64 {
	t.Helper()
	r.Network().Reset()
	rp, err := r.NewReplayer(plan, start)
	if err != nil {
		t.Fatal(err)
	}
	var spans []float64
	for len(spans) < reps {
		marks, ok := rp.Replay()
		if !ok {
			t.Fatal("replay did not close over the plan")
		}
		spans = append(spans, marks[1]-marks[0])
	}
	return spans
}

// exchangePattern is a personalised exchange: every rank posts a receive
// from and a send to every other rank, then waits for all of them in one
// WaitAll that joins send and receive requests. Every third rank sends
// zero bytes, which occupy no port time but still move the port's clock.
func exchangePattern(p *Proc) {
	n, r := p.Size(), p.Rank()
	reqs := make([]*Request, 0, 2*(n-1))
	for d := 1; d < n; d++ {
		reqs = append(reqs, p.Irecv((r-d+n)%n, 7, nil), p.Isend((r+d)%n, 7, nil, 4096*(r%3)))
	}
	p.WaitAll(reqs...)
}

// barrierChainPattern releases three barriers in a row with no send
// between them, then runs replayPattern.
func barrierChainPattern(p *Proc) {
	p.Barrier()
	p.Sleep(float64(p.Rank()) * 1e-7)
	p.Barrier()
	p.Barrier()
	replayPattern(p)
}

// TestReplayMatchesScheduler is the engine differential: replaying a
// compiled repetition R times must produce per-repetition durations
// bit-identical to a scheduler run executing the same repetition loop
// R times, on both one-process-per-node and co-located clusters, and on
// a cluster with zero latency and CPU overheads, where a zero-byte
// message is delivered at its sender's clock: the woken rank's wait ties
// the sender, and the rank tie-break orders the sends that follow.
func TestReplayMatchesScheduler(t *testing.T) {
	const nprocs, reps = 8, 12
	zero := replayTestConfig(nprocs)
	zero.Latency, zero.SendOverhead, zero.RecvOverhead = 0, 0, 0
	patterns := map[string]func(*Proc){
		"pipeline":      replayPattern,
		"exchange":      exchangePattern,
		"barrier_chain": barrierChainPattern,
	}
	for name, cfg := range map[string]simnet.Config{
		"one_per_node":  replayTestConfig(nprocs),
		"two_per_node":  replayDualConfig(nprocs),
		"noise_free":    testConfig(nprocs),
		"dual_no_noise": func() simnet.Config { c := replayDualConfig(nprocs); c.NoiseAmplitude = 0; return c }(),
		"zero_cost":     zero,
	} {
		t.Run(name, func(t *testing.T) {
			for pname, body := range patterns {
				t.Run(pname, func(t *testing.T) {
					want := schedulerSpans(t, cfg, nprocs, reps, body)
					r, plan, start := compileOneRep(t, cfg, nprocs, body)
					got := replaySpans(t, r, plan, start, reps)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("repetition %d: replay %x, scheduler %x", i, got[i], want[i])
						}
					}
				})
			}
		})
	}
}

// TestMarkIsTimingNeutral asserts that Mark calls change nothing about
// a program's virtual timing: under the scheduler a Mark is a no-op, and
// a compiled plan's mark events cost nothing when replayed.
func TestMarkIsTimingNeutral(t *testing.T) {
	const nprocs = 6
	cfg := replayTestConfig(nprocs)
	plain := func(p *Proc) error {
		p.Barrier()
		replayPattern(p)
		p.Barrier()
		return nil
	}
	marked := func(p *Proc) error {
		if p.Rank() == 0 {
			p.Mark()
		}
		p.Barrier()
		if p.Rank() == 0 {
			p.Mark()
		}
		replayPattern(p)
		p.Barrier()
		if p.Rank() == 2 {
			p.Mark()
		}
		return nil
	}
	r1, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := r1.Run(nprocs, plain)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Run(nprocs, marked)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakeSpan != want.MakeSpan || got.Transfers != want.Transfers || got.Ops != want.Ops {
		t.Fatalf("marks changed the run: %x/%d/%d vs %x/%d/%d", got.MakeSpan, got.Transfers, got.Ops, want.MakeSpan, want.Transfers, want.Ops)
	}
	for i := range want.FinishTimes {
		if got.FinishTimes[i] != want.FinishTimes[i] {
			t.Fatalf("rank %d finish: %x vs %x", i, got.FinishTimes[i], want.FinishTimes[i])
		}
	}
	// Replayed, the marked plan ends every rank exactly where the plain
	// one does.
	var clocks [2][]float64
	for i, fn := range []func(*Proc) error{plain, marked} {
		plan, err := r2.Compile(nprocs, fn)
		if err != nil {
			t.Fatal(err)
		}
		if want := 3 * i; plan.Marks() != want {
			t.Fatalf("plan %d has %d marks, want %d", i, plan.Marks(), want)
		}
		r2.Network().Reset()
		rp, err := r2.NewReplayer(plan, make([]float64, nprocs))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rp.Replay(); !ok {
			t.Fatal("replay failed")
		}
		clocks[i] = append([]float64(nil), rp.Clocks()...)
	}
	for i := range clocks[0] {
		if clocks[1][i] != clocks[0][i] || clocks[0][i] != want.FinishTimes[i] {
			t.Fatalf("rank %d: replayed %x (marked) and %x (plain), scheduler %x", i, clocks[1][i], clocks[0][i], want.FinishTimes[i])
		}
	}
}

// TestReplayZeroAllocsPerRep pins the steady-state replay pass at zero
// heap allocations: every buffer is sized at construction, and once the
// noise memo holds a repetition's factors, a rewound stream re-reads them.
func TestReplayZeroAllocsPerRep(t *testing.T) {
	r, plan, start := compileOneRep(t, replayTestConfig(8), 8, replayPattern)
	rp, err := r.NewReplayer(plan, start)
	if err != nil {
		t.Fatal(err)
	}
	rep := func() {
		r.Network().Reset()
		if _, ok := rp.Replay(); !ok {
			t.Fatal("replay failed")
		}
	}
	rep() // warm: nothing left to grow
	if avg := testing.AllocsPerRun(20, rep); avg != 0 {
		t.Fatalf("steady-state Replay allocates %v times per repetition, want 0", avg)
	}
}

// TestEchoValidatesAndDetectsDivergence: Runner.Verify accepts a program
// compiled a second time unchanged, and rejects any structural deviation
// from the reference plan — a changed size, an extra operation, a
// missing one, a program that forwards a received size.
func TestEchoValidatesAndDetectsDivergence(t *testing.T) {
	const nprocs = 6
	r, err := NewRunner(replayTestConfig(nprocs), Options{})
	if err != nil {
		t.Fatal(err)
	}
	faithful := markedRep(func(p *Proc) { sizedPattern(p, 8192, 256) })
	plan, err := r.Compile(nprocs, faithful)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(plan, faithful); err != nil {
		t.Fatalf("faithful program rejected: %v", err)
	}
	// Verifying the same plan twice must work (buffers reset per pass).
	if err := r.Verify(plan, faithful); err != nil {
		t.Fatalf("second faithful verify rejected: %v", err)
	}
	for name, body := range map[string]func(p *Proc){
		"changed_size":  func(p *Proc) { sizedPattern(p, 8192, 257) },
		"extra_sleep":   func(p *Proc) { sizedPattern(p, 8192, 256); p.Sleep(1e-9) },
		"extra_message": func(p *Proc) { sizedPattern(p, 8192, 256); sendRecvPair(p) },
		"reordered": func(p *Proc) {
			sendRecvPair(p)
			sizedPattern(p, 8192, 256)
		},
	} {
		if err := r.Verify(plan, markedRep(body)); err == nil {
			t.Errorf("%s: diverging program accepted", name)
		}
	}
	// A missing operation: the reference carries one more sleep.
	longer, err := r.Compile(nprocs, markedRep(func(p *Proc) { sizedPattern(p, 8192, 256); p.Sleep(1e-9) }))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(longer, faithful); err == nil {
		t.Error("missing operation accepted")
	}
	// A program that forwards a received size compiles with a 0-byte
	// forward, then verifies with the real size.
	forward := markedRep(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, nil, 4096)
		case 1:
			p.Send(2, 0, nil, p.Recv(0, 0, nil))
		case 2:
			p.Recv(1, 0, nil)
		}
	})
	fplan, err := r.Compile(nprocs, forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(fplan, forward); err == nil {
		t.Error("size-forwarding program accepted")
	}
	// After verifying, the Runner must still run normal programs.
	if _, err := r.Run(nprocs, func(p *Proc) error {
		p.Barrier()
		return nil
	}); err != nil {
		t.Fatalf("runner broken after verify passes: %v", err)
	}
}

func sendRecvPair(p *Proc) {
	if p.Rank() == 0 {
		p.Send(1, 123, nil, 64)
	} else if p.Rank() == 1 {
		p.Recv(0, 123, nil)
	}
}

// TestEchoRunValidation covers the failure modes of Runner.Verify that
// are not structural mismatches: a reference plan wider than the
// Runner's network, and a program that no longer compiles.
func TestEchoRunValidation(t *testing.T) {
	_, plan, _ := compileOneRep(t, replayTestConfig(8), 8, replayPattern)
	narrow, err := NewRunner(replayTestConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.Verify(plan, markedRep(replayPattern)); err == nil {
		t.Error("plan wider than the network accepted")
	}
	r, plan, _ := compileOneRep(t, replayTestConfig(4), 4, replayPattern)
	var ce *CompileError
	if err := r.Verify(plan, func(p *Proc) error { _ = p.Now(); return nil }); !errors.As(err, &ce) {
		t.Errorf("program reading Now: got %v, want a *CompileError", err)
	}
}

// BenchmarkReplayRep measures one replayed repetition of the 16-rank
// pipeline/fan-in pattern — the unit of work the measurement harness pays
// per repetition on the replay engine (compare BenchmarkSchedulerPingPong
// territory: the same structure under the scheduler costs a full run).
// The noise stream is rewound every iteration, so the memo stays one
// repetition long and each pass reads it warm.
func BenchmarkReplayRep(b *testing.B) {
	b.ReportAllocs()
	r, plan, start := compileOneRep(b, replayTestConfig(16), 16, replayPattern)
	rp, err := r.NewReplayer(plan, start)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Network().Reset()
		if _, ok := rp.Replay(); !ok {
			b.Fatal("replay failed")
		}
	}
}

// BenchmarkReplayCompile measures the one-off cost of a point that is
// not declared timing-independent: the compile of one repetition plus
// the verify pass — what the replay engine pays before its first
// replayed repetition.
func BenchmarkReplayCompile(b *testing.B) {
	b.ReportAllocs()
	r, err := NewRunner(replayTestConfig(16), Options{})
	if err != nil {
		b.Fatal(err)
	}
	rep := markedRep(replayPattern)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := r.Compile(16, rep)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Verify(plan, rep); err != nil {
			b.Fatal(err)
		}
	}
}
