package experiment

import (
	"context"
	"runtime"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/simnet"
	"mpicollperf/internal/stats"
)

// templateProfile is the noisy 16-node platform the template tests
// measure on.
func templateProfile(t *testing.T) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestMeasureReboundBitIdentical is the fast path's core contract: a
// point measured by rebinding its class template — no scheduler run at
// all — must be bit-identical to the scheduler engine, for every
// algorithm, including a same-class point of a different message size.
func TestMeasureReboundBitIdentical(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	for _, alg := range coll.BcastAlgorithms() {
		// 65536 and 65528 land in the same structure class for every
		// algorithm (same segment count at seg 8192, and unsegmented
		// algorithms share one class per size anyway).
		for _, m := range []int{65536, 65528} {
			want, err := measureOne(pr, bcastPoint(alg, 16, m, 8192), Settings{Engine: EngineScheduler, Confidence: set.Confidence, Precision: set.Precision, MinReps: set.MinReps, MaxReps: set.MaxReps, Warmup: set.Warmup})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			r, err := newProfileRunner(pr, reg)
			if err != nil {
				t.Fatal(err)
			}
			store := mpi.NewTemplateStore()
			// First measurement compiles and publishes the template...
			first, err := measurePoint(r, pr, bcastPoint(alg, 16, 65536, 8192), set, store)
			if err != nil {
				t.Fatalf("%v: compile: %v", alg, err)
			}
			if m == 65536 {
				sameMeasurement(t, alg.String()+" compile", want, first)
			}
			if got := reg.Counter("experiment_plan_templates_total").Value(); got != 1 {
				t.Fatalf("%v: %d templates published, want 1", alg, got)
			}
			// ...and the point under test rebinds it.
			got, err := measurePoint(r, pr, bcastPoint(alg, 16, m, 8192), set, store)
			if err != nil {
				t.Fatalf("%v m=%d: rebind: %v", alg, m, err)
			}
			sameMeasurement(t, alg.String()+" rebound", want, got)
			if n := reg.Counter("experiment_plan_rebinds_total").Value(); n != 1 {
				t.Fatalf("%v m=%d: %d rebinds counted, want 1", alg, m, n)
			}
			if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 0 {
				t.Fatalf("%v m=%d: %d rebind-divergence fallbacks, want 0", alg, m, n)
			}
		}
	}
}

// TestRebindDivergenceFallsBackToCapture: a template published under a
// class key that a later point's structure does not match must be
// detected by the rebind pass; the point is then compiled afresh (still
// on the replay engine, bit-identically, with no scheduler run), the
// divergence is counted, and the refreshed template serves the class
// from then on.
func TestRebindDivergenceFallsBackToCapture(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	opBinary := func(p *mpi.Proc) { coll.Bcast(p, coll.BcastBinary, 0, coll.Synthetic(65536), 8192) }
	opChain := func(p *mpi.Proc) { coll.Bcast(p, coll.BcastChain, 0, coll.Synthetic(65536), 8192) }

	want, err := measureOne(pr, bcastPoint(coll.BcastChain, 16, 65536, 8192), Settings{Engine: EngineScheduler, Confidence: set.Confidence, Precision: set.Precision, MinReps: set.MinReps, MaxReps: set.MaxReps, Warmup: set.Warmup})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	r, err := newProfileRunner(pr, reg)
	if err != nil {
		t.Fatal(err)
	}
	store := mpi.NewTemplateStore()
	// Poison the key: publish the binary tree's template, then measure the
	// chain under the same key.
	cls := planClass{key: "poisoned-class", store: store}
	if _, err := measureOnClass(r, 16, set, Completion, opBinary, cls); err != nil {
		t.Fatal(err)
	}
	got, err := measureOnClass(r, 16, set, Completion, opChain, cls)
	if err != nil {
		t.Fatalf("divergent point failed instead of falling back: %v", err)
	}
	sameMeasurement(t, "diverged point", want, got)
	if got.Fallback != FallbackNone {
		t.Fatalf("measurement carries fallback %q; rebind divergence is metrics-only", got.Fallback)
	}
	if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 1 {
		t.Fatalf("%d rebind-divergence fallbacks counted, want 1", n)
	}
	if n := reg.Counter("experiment_plan_templates_total").Value(); n != 2 {
		t.Fatalf("%d templates published, want 2 (the compile refreshed the class)", n)
	}
	// The refreshed template now matches: the next chain point rebinds.
	got, err = measureOnClass(r, 16, set, Completion, opChain, cls)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, "refreshed class", want, got)
	if n := reg.Counter("experiment_plan_rebinds_total").Value(); n != 1 {
		t.Fatalf("%d rebinds counted after refresh, want 1", n)
	}
}

// distinctClasses counts the structure classes of a grid.
func distinctClasses(points []Point) int {
	keys := make(map[string]bool)
	for _, pt := range points {
		keys[pt.classKey()] = true
	}
	return len(keys)
}

// TestSweepTemplatesBitIdentical sweeps a grid (broadcasts and the
// bcast+gather estimation points) with templating on, off, and
// pre-warmed, serial and concurrent, and requires every variant to
// reproduce the scheduler engine's means bit for bit — while the
// template counters account for every point.
func TestSweepTemplatesBitIdentical(t *testing.T) {
	pr := templateProfile(t)
	set := fastSettings()
	grid := BcastGrid(16, coll.BcastAlgorithms(), []int{8192, 131072, 1 << 20}, pr.SegmentSize)
	for _, mg := range []int{64, 4096} {
		grid = append(grid, Point{Stage: BcastThenGatherStage(coll.BcastBinomial, mg), Procs: 16, MsgBytes: 131072, SegSize: pr.SegmentSize})
	}
	classes := distinctClasses(grid)
	if classes >= len(grid) {
		t.Fatalf("grid has %d classes over %d points; nothing would rebind", classes, len(grid))
	}

	base := Sweep{Profile: pr, Settings: set, Workers: 1, DisableTemplates: true}
	baseSet := base.Settings
	baseSet.Engine = EngineScheduler
	base.Settings = baseSet
	want, err := base.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}

	for _, engine := range []Engine{EngineAuto, EngineReplay} {
		for _, workers := range []int{1, 8} {
			for _, disabled := range []bool{false, true} {
				set := set
				set.Engine = engine
				reg := obs.NewRegistry()
				sw := Sweep{Profile: pr, Settings: set, Workers: workers, DisableTemplates: disabled, Metrics: reg}
				got, err := sw.Run(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				label := func(what string) string {
					return what + " (engine=" + engine.String() + ")"
				}
				for i := range got {
					if got[i].Meas.Mean != want[i].Meas.Mean {
						t.Fatalf("%s point %v: mean %x, scheduler %x (workers=%d disabled=%v)",
							label("sweep"), got[i].Point, got[i].Meas.Mean, want[i].Meas.Mean, workers, disabled)
					}
					for j := range got[i].Meas.Samples {
						if got[i].Meas.Samples[j] != want[i].Meas.Samples[j] {
							t.Fatalf("%s point %v sample %d diverges", label("sweep"), got[i].Point, j)
						}
					}
				}
				tpls := reg.Counter(mPlanTemplates).Value()
				compiles := reg.Counter(mPlanCompiles).Value()
				rebinds := reg.Counter(mPlanRebinds).Value()
				if runs := reg.Counter("mpi_runs_total").Value(); runs != 0 {
					t.Fatalf("%s: %d scheduler runs for a grid of class-keyed points (workers=%d disabled=%v)", label("metrics"), runs, workers, disabled)
				}
				if disabled {
					if tpls != 0 || rebinds != 0 || compiles != int64(len(grid)) {
						t.Fatalf("%s: templating disabled but %d templates / %d rebinds / %d compiles counted", label("metrics"), tpls, rebinds, compiles)
					}
					continue
				}
				// Every point either compiled or rebound; racing workers may
				// both compile a class before it is published, but each class
				// publishes exactly one template.
				if compiles+rebinds != int64(len(grid)) {
					t.Fatalf("%s: %d compiles + %d rebinds != %d points (workers=%d)", label("metrics"), compiles, rebinds, len(grid), workers)
				}
				if tpls != int64(classes) {
					t.Fatalf("%s: %d templates for %d classes (workers=%d)", label("metrics"), tpls, classes, workers)
				}
				if workers == 1 && compiles != int64(classes) {
					t.Fatalf("%s: serial sweep compiled %d times for %d classes — compile is not once-per-class", label("metrics"), compiles, classes)
				}
				if n := reg.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Value(); n != 0 {
					t.Fatalf("%s: %d unexplained rebind divergences", label("metrics"), n)
				}
			}
		}
	}

	// A pre-warmed persistent store: a second sweep over the same grid
	// compiles nothing at all.
	store := mpi.NewTemplateStore()
	warm := Sweep{Profile: pr, Settings: set, Workers: 4, Templates: store}
	if _, err := warm.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	warm.Metrics = reg
	got, err := warm.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Meas.Mean != want[i].Meas.Mean {
			t.Fatalf("warm sweep point %v: mean %x, scheduler %x", got[i].Point, got[i].Meas.Mean, want[i].Meas.Mean)
		}
	}
	if n := reg.Counter(mPlanCompiles).Value(); n != 0 {
		t.Fatalf("warm sweep compiled %d times, want 0", n)
	}
	if rebinds := reg.Counter("experiment_plan_rebinds_total").Value(); rebinds != int64(len(grid)) {
		t.Fatalf("warm sweep rebound %d points, want all %d", rebinds, len(grid))
	}
	if store.Len() != classes {
		t.Fatalf("store holds %d templates, want %d classes", store.Len(), classes)
	}
}

// TestSweepPoolTemplatesPersist: a pool-backed sweep publishes its
// templates into the pool's store, so a later sweep over the same pool
// rebinds every point without a single compile.
func TestSweepPoolTemplatesPersist(t *testing.T) {
	pr := templateProfile(t)
	grid := BcastGrid(16, []coll.BcastAlgorithm{coll.BcastBinary, coll.BcastChain}, []int{8192, 131072}, pr.SegmentSize)
	// The measurement counters live in the Runner's registry, and pooled
	// Runners carry the pool's — so the pool gets the registry here.
	reg := obs.NewRegistry()
	pool, err := NewRunnerPool(pr, 2, reg)
	if err != nil {
		t.Fatal(err)
	}
	first := Sweep{Profile: pr, Settings: fastSettings(), Workers: 2, Pool: pool}
	if _, err := first.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if pool.Templates().Len() == 0 {
		t.Fatal("sweep published nothing into the pool's template store")
	}
	tpls := reg.Counter("experiment_plan_templates_total").Value()
	rebinds := reg.Counter("experiment_plan_rebinds_total").Value()
	if tpls == 0 {
		t.Fatal("first sweep published nothing")
	}
	second := Sweep{Profile: pr, Settings: fastSettings(), Workers: 2, Pool: pool}
	if _, err := second.Run(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if d := reg.Counter("experiment_plan_templates_total").Value() - tpls; d != 0 {
		t.Fatalf("second sweep over the pool published %d templates, want 0", d)
	}
	if d := reg.Counter("experiment_plan_rebinds_total").Value() - rebinds; d != int64(len(grid)) {
		t.Fatalf("second sweep rebound %d points, want %d", d, len(grid))
	}
}

// TestTemplateOneClassConcurrent is the template store's concurrency test
// (meaningful under -race): eight workers sweep a grid whose every point
// belongs to ONE structure class — BcastLinear is unsegmented, so
// BcastClassKey pins segs=1 and all sixteen message sizes share a class.
// Workers that reach the class before its template is published compile
// it themselves (a compile costs about what a rebind does, so there is no
// election to wait on); the class still publishes exactly one template,
// every point is either compiled or rebound, and the means match a
// serial sweep bit for bit.
func TestTemplateOneClassConcurrent(t *testing.T) {
	// Raise GOMAXPROCS so the 8 workers actually run concurrently even on
	// a single-core CI box (Sweep.Run clamps workers to GOMAXPROCS).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	sizes := stats.LogSpaceBytes(8192, 1<<20, 16)
	grid := BcastGrid(pr.Nodes, []coll.BcastAlgorithm{coll.BcastLinear}, sizes, pr.SegmentSize)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1, Engine: EngineReplay}

	want, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewRegistry()
	got, err := Sweep{Profile: pr, Settings: set, Workers: 8, Metrics: m}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Meas.Mean != want[i].Meas.Mean || got[i].Meas.Reps != want[i].Meas.Reps {
			t.Fatalf("point %d (%v): concurrent mean %v (reps %d) != serial %v (reps %d)",
				i, grid[i], got[i].Meas.Mean, got[i].Meas.Reps, want[i].Meas.Mean, want[i].Meas.Reps)
		}
	}
	tpls := m.Counter(mPlanTemplates).Value()
	compiles := m.Counter(mPlanCompiles).Value()
	rebinds := m.Counter(mPlanRebinds).Value()
	if tpls != 1 {
		t.Errorf("one structure class published %d templates under 8 workers, want exactly 1", tpls)
	}
	if compiles < 1 || compiles+rebinds != int64(len(grid)) {
		t.Errorf("%d compiles + %d rebinds, want >= 1 compile and %d points in total", compiles, rebinds, len(grid))
	}
	for _, why := range fallbackReasonSet {
		if n := m.Counter(mFallbacksByWhy[why]).Value(); n != 0 {
			t.Errorf("%d %s fallbacks, want 0", n, why)
		}
	}
	if runs := m.Counter("mpi_runs_total").Value(); runs != 0 {
		t.Errorf("%d scheduler runs, want 0: every point is compiled or rebound", runs)
	}
}

// FuzzRebindMatchesCapture is the template fast path's differential fuzz
// target: for any cluster shape, algorithm, and pair of message sizes,
// measuring the two points through a shared template store (capture the
// first, rebind or capture the second, rebind the first again) must be
// bit-identical to measuring each on a fresh-path Runner with no store.
func FuzzRebindMatchesCapture(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint8(0), uint16(64), uint16(64), uint8(1), uint8(50), int64(1))
	f.Add(uint8(16), uint8(2), uint8(3), uint16(256), uint16(255), uint8(2), uint8(30), int64(1001))
	f.Add(uint8(5), uint8(1), uint8(5), uint16(8), uint16(512), uint8(0), uint8(0), int64(7))
	f.Add(uint8(12), uint8(3), uint8(2), uint16(1024), uint16(8), uint8(1), uint8(80), int64(-3))
	f.Add(uint8(3), uint8(2), uint8(4), uint16(1), uint16(2), uint8(3), uint8(10), int64(42))
	f.Fuzz(func(t *testing.T, nodes, ppn, algIdx uint8, m1KB, m2KB uint16, segSel, noiseMil uint8, seed int64) {
		nprocs := 2 + int(nodes)%15 // 2..16
		cfg := simnet.Config{
			Nodes:        nprocs,
			Latency:      20e-6,
			ByteTimeSend: 1e-9,
			ByteTimeRecv: 1e-9,
			SendOverhead: 1e-6,
			RecvOverhead: 1e-6,
		}
		if p := 1 + int(ppn)%3; p > 1 {
			cfg.ProcsPerNode = p
			cfg.IntraNodeLatency = 1e-6
			cfg.IntraNodeByteTime = 1e-10
		}
		if amp := float64(noiseMil%101) / 1000; amp > 0 {
			cfg.NoiseAmplitude = amp
			cfg.NoiseSeed = seed
		}
		algs := coll.BcastAlgorithms()
		alg := algs[int(algIdx)%len(algs)]
		seg := []int{0, 8192, 16384, 65536}[int(segSel)%4]
		sizes := []int{1024 * (1 + int(m1KB)%1024), 1024 * (1 + int(m2KB)%1024)}
		set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}
		newRunner := func() *mpi.Runner {
			net, err := simnet.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return mpi.NewRunnerOn(net, mpi.Options{})
		}
		measure := func(r *mpi.Runner, m int, store *mpi.TemplateStore) Measurement {
			cls := planClass{}
			if store != nil {
				cls = planClass{key: coll.BcastClassKey(alg, nprocs, m, seg), store: store}
			}
			meas, err := measureOnClass(r, nprocs, set, Completion, func(p *mpi.Proc) {
				coll.Bcast(p, alg, 0, coll.Synthetic(m), seg)
			}, cls)
			if err != nil {
				t.Fatalf("%v m=%d (store=%v): %v", alg, m, store != nil, err)
			}
			return meas
		}
		ref := newRunner()
		templated := newRunner()
		store := mpi.NewTemplateStore()
		// Sequence: m1 captures its class, m2 rebinds or captures, m1
		// rebinds — each must match a store-free measurement bit for bit.
		for _, m := range []int{sizes[0], sizes[1], sizes[0]} {
			want := measure(ref, m, nil)
			got := measure(templated, m, store)
			sameMeasurement(t, alg.String(), want, got)
		}
	})
}
