package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

// scalingGrid is a mid-size Grisou grid (six algorithms × six sizes at 32
// nodes) — big enough that per-point work dominates per-sweep setup,
// small enough to measure twice per worker count in a test.
func scalingGrid(t testing.TB) (cluster.Profile, []Point) {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(32)
	if err != nil {
		t.Fatal(err)
	}
	sizes := stats.LogSpaceBytes(8192, 4<<20, 6)
	return pr, BcastGrid(pr.Nodes, coll.BcastAlgorithms(), sizes, pr.SegmentSize)
}

// TestSweepScalingNotSlower is the anti-scaling regression guard: adding
// workers to a replay-engine sweep must never cost wall-clock. On a
// single-core box extra workers cannot help, so the assertion is a
// generous "not slower" bound rather than a speedup target; the speedup
// curve itself is recorded by BenchmarkSweep into BENCH_sweepscale.json
// and gated by `make benchdiff`.
func TestSweepScalingNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion; skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing assertion; skipped under the race detector")
	}
	pr, grid := scalingGrid(t)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1, Engine: EngineReplay}
	pool, err := NewRunnerPool(pr, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(workers int) time.Duration {
		sw := Sweep{Profile: pr, Settings: set, Workers: workers, Pool: pool}
		best := time.Duration(0)
		for i := 0; i < 3; i++ { // min of 3: first run also warms the pool
			start := time.Now()
			if _, err := sw.Run(context.Background(), grid); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	w1 := elapsed(1)
	w8 := elapsed(8)
	t.Logf("workers=1: %v, workers=8: %v (%.2fx)", w1, w8, float64(w1)/float64(w8))
	// 2x headroom over "equal": enough to absorb scheduler noise on a
	// loaded single-core CI box, tight enough that the old anti-scaling
	// regression (2x slower and worse) trips it.
	if w8 > 2*w1 {
		t.Fatalf("workers=8 sweep took %v, more than 2x the workers=1 %v", w8, w1)
	}
}

// TestSweepPoolBitIdenticalAndClamped checks the pooled sweep's two
// contracts: results are bit-identical to a pool-less sweep (across
// repeated Runs, reusing the now-warm Runners), and the effective worker
// count is clamped to the pool's capacity.
func TestSweepPoolBitIdenticalAndClamped(t *testing.T) {
	// Raise GOMAXPROCS so the pool-capacity clamp (not the core-count
	// clamp) decides the worker count, and so the concurrent sweep path
	// actually runs in parallel even on a single-core CI box.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pr, err := cluster.Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	grid := BcastGrid(pr.Nodes, coll.BcastAlgorithms(), []int{8192, 1 << 20}, pr.SegmentSize)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}

	want, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	m := obs.NewRegistry()
	pool, err := NewRunnerPool(pr, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	sw := Sweep{Profile: pr, Settings: set, Workers: 8, Pool: pool, Metrics: m}
	for pass := 0; pass < 3; pass++ {
		got, err := sw.Run(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Meas.Mean != want[i].Meas.Mean || got[i].Meas.Reps != want[i].Meas.Reps {
				t.Fatalf("pass %d point %d (%v): pooled mean %v (reps %d) != serial %v (reps %d)",
					pass, i, grid[i], got[i].Meas.Mean, got[i].Meas.Reps, want[i].Meas.Mean, want[i].Meas.Reps)
			}
		}
	}
	if got := m.Gauge("sweep_workers").Value(); got != 2 {
		t.Fatalf("sweep_workers = %v, want 2 (Workers=8 clamped to pool capacity)", got)
	}
	if created := m.Counter("mpi_runner_pool_created_total").Value(); created > 2 {
		t.Fatalf("pool built %d Runners across 3 sweeps, capacity is 2", created)
	}
	if inUse := m.Gauge("mpi_runner_pool_in_use").Value(); inUse != 0 {
		t.Fatalf("mpi_runner_pool_in_use = %v after sweeps returned, want 0", inUse)
	}
	if pending := m.Gauge("sweep_points_pending").Value(); pending != 0 {
		t.Fatalf("sweep_points_pending = %v after a complete sweep, want 0", pending)
	}
	measured := m.Counter("sweep_points_measured_total").Value()
	cached := m.Counter("sweep_points_cached_total").Value()
	if total := measured + cached; total != int64(3*len(grid)) {
		t.Fatalf("points measured %d + cached %d = %d over 3 sweeps, want %d", measured, cached, total, 3*len(grid))
	}
}

// TestCacheShardedConcurrent hammers one in-memory cache from many
// goroutines over overlapping keys: every get must return either a miss
// or the exact measurement put under that key, and the final entry count
// must equal the distinct keys written.
func TestCacheShardedConcurrent(t *testing.T) {
	c := NewCache()
	const keys, workers = 64, 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%d", (w+i)%keys)
				want := float64((w + i) % keys)
				if m, ok := c.get(k); ok && m.Mean != want {
					errs <- fmt.Errorf("key %s: got mean %v, want %v", k, m.Mean, want)
					return
				}
				c.put(k, Measurement{Mean: want, Reps: 1})
				if m, ok := c.get(k); !ok || m.Mean != want {
					errs <- fmt.Errorf("key %s: lost own put (ok=%v mean=%v)", k, ok, m.Mean)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Len(); got != keys {
		t.Fatalf("Len() = %d, want %d", got, keys)
	}
}

// TestCacheShardSpread sanity-checks the stripe function: real sha256
// cache keys must land on more than a couple of the 16 shards.
func TestCacheShardSpread(t *testing.T) {
	pr := cluster.Grisou()
	c := NewCache()
	seen := make(map[*cacheShard]bool)
	for m := 1; m <= 64; m++ {
		key := cacheKey(pr, bcastPoint(coll.BcastAlgorithms()[0], 8, m*1024, 0), Settings{})
		seen[c.shard(key)] = true
	}
	if len(seen) < cacheShards/2 {
		t.Fatalf("64 keys landed on only %d/%d shards", len(seen), cacheShards)
	}
}
