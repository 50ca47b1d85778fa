package experiment

import (
	"context"
	"fmt"
	"os"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/stats"
)

// benchGrid is a full six-algorithm Grisou sweep at two process counts
// (16 and 32 on the 32-node profile) with a reduced repetition budget:
// 72 points, enough work per sweep that the worker-scaling curve
// measures scheduling rather than per-sweep setup noise, while one
// serial pass stays in the seconds range. For a stable
// curve, run with -benchtime=3x or more (one timed sweep per iteration);
// `make bench` records it into BENCH_sweepscale.json.
func benchGrid(b *testing.B) (cluster.Profile, []Point) {
	b.Helper()
	pr, err := cluster.Grisou().WithNodes(32)
	if err != nil {
		b.Fatal(err)
	}
	sizes := stats.LogSpaceBytes(8192, 4<<20, 6)
	grid := BcastGrid(16, coll.BcastAlgorithms(), sizes, pr.SegmentSize)
	return pr, append(grid, BcastGrid(pr.Nodes, coll.BcastAlgorithms(), sizes, pr.SegmentSize)...)
}

// benchSweepSettings honours the SWEEP_ENGINE environment variable
// (scheduler, replay, auto) so `make bench` can record the same sweep
// benchmarks under both execution engines — the names stay identical,
// letting `benchjson -baseline` diff BENCH_replay.json against
// BENCH_sched.json directly.
func benchSweepSettings(b *testing.B) Settings {
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	if env := os.Getenv("SWEEP_ENGINE"); env != "" {
		engine, err := ParseEngine(env)
		if err != nil {
			b.Fatalf("SWEEP_ENGINE: %v", err)
		}
		set.Engine = engine
	}
	return set
}

// BenchmarkSweep measures the wall-clock of the full six-algorithm Grisou
// grid at increasing worker counts. Every grid point is an independent
// single-threaded simulation, so on a machine with >= 8 cores the
// workers=8 line approaches an 8x speedup over workers=1 (compare ns/op
// across the sub-benchmarks); on fewer cores it saturates at the core
// count. Results are byte-identical at every worker count, which
// TestSweepDeterministicAcrossWorkerCounts enforces.
func BenchmarkSweep(b *testing.B) {
	pr, grid := benchGrid(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			// One untimed warm-up sweep grows the workers' buffers so every
			// timed iteration measures the homogeneous steady state, as
			// BenchmarkSweepWarmPool and BenchmarkSweepCached do; the cost
			// of one point is recorded per path by BenchmarkPlanCache.
			sw := Sweep{Profile: pr, Settings: benchSweepSettings(b), Workers: workers}
			b.ReportMetric(float64(len(grid)), "points/sweep")
			if _, err := sw.Run(context.Background(), grid); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Run(context.Background(), grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanCache breaks one grid point's cost down by measurement
// path: the full scheduler loop, compile + verify + replay (the path of
// operations not declared timing-independent), and compile + replay
// (every timing-independent point). BENCH_plancache.json records the
// three side by side.
func BenchmarkPlanCache(b *testing.B) {
	pr, err := cluster.Grisou().WithNodes(32)
	if err != nil {
		b.Fatal(err)
	}
	const m = 1 << 20
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	reuse, err := newProfileRunner(pr, nil)
	if err != nil {
		b.Fatal(err)
	}
	pt := Point{Stage: BcastStage(coll.BcastBinomial), Procs: pr.Nodes, MsgBytes: m, SegSize: pr.SegmentSize}
	point := func(b *testing.B, set Settings) {
		b.Helper()
		if _, err := measurePoint(reuse, pr, pt, set); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("path=scheduler", func(b *testing.B) {
		b.ReportAllocs()
		set := set
		set.Engine = EngineScheduler
		for i := 0; i < b.N; i++ {
			point(b, set)
		}
	})
	b.Run("path=verify", func(b *testing.B) {
		b.ReportAllocs()
		set := set
		set.Engine = EngineReplay
		// The same operation, not declared timing-independent: compiled
		// a second time to verify its plan.
		op := func(p *mpi.Proc) { pt.Stage.Run(p, pt.MsgBytes, pt.SegSize) }
		for i := 0; i < b.N; i++ {
			if _, err := MeasureOn(reuse, pt.Procs, set, Completion, op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path=compile", func(b *testing.B) {
		b.ReportAllocs()
		set := set
		set.Engine = EngineReplay
		for i := 0; i < b.N; i++ {
			point(b, set)
		}
	})
}

// BenchmarkSweepWarmPool is BenchmarkSweep with a pre-warmed RunnerPool
// attached: the delta against the pool-less workers=N line is what Runner
// (and simulator) construction costs a repeated sweep — the situation of
// every multi-stage calibration.
func BenchmarkSweepWarmPool(b *testing.B) {
	pr, grid := benchGrid(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			pool, err := NewRunnerPool(pr, workers, nil)
			if err != nil {
				b.Fatal(err)
			}
			sw := Sweep{Profile: pr, Settings: benchSweepSettings(b), Workers: workers, Pool: pool}
			if _, err := sw.Run(context.Background(), grid); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Run(context.Background(), grid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCached measures a fully warm sweep: every point served
// from the in-memory cache. The delta against BenchmarkSweep is what the
// cache saves a repeated pipeline stage (fitparams then decisiongen).
func BenchmarkSweepCached(b *testing.B) {
	b.ReportAllocs()
	pr, grid := benchGrid(b)
	sw := Sweep{Profile: pr, Settings: benchSweepSettings(b), Cache: NewCache()}
	if _, err := sw.Run(context.Background(), grid); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(context.Background(), grid); err != nil {
			b.Fatal(err)
		}
	}
}
