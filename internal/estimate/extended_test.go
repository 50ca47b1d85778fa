package estimate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

func TestAllSpecFamiliesComplete(t *testing.T) {
	fams := AllSpecFamilies()
	want := map[string]int{
		"allgather":      4,
		"allreduce":      3,
		"alltoall":       3,
		"reduce":         3,
		"gather":         3,
		"scatter":        2,
		"reduce_scatter": 3,
	}
	if len(fams) != len(want) {
		t.Fatalf("families = %d, want %d", len(fams), len(want))
	}
	for name, n := range want {
		specs := fams[name]
		if len(specs) != n {
			t.Errorf("%s: %d specs, want %d", name, len(specs), n)
		}
		for _, s := range specs {
			if !strings.HasPrefix(s.Name, name+"/") {
				t.Errorf("spec %q not under family %q", s.Name, name)
			}
			if s.Run == nil || s.Coefficients == nil || !s.TimingIndependent || s.Mode != experiment.Completion {
				t.Errorf("spec %q incomplete", s.Name)
			}
		}
	}
}

// TestBcastSpecs checks that the broadcast specs are the §4.2 stages —
// same names (and so the same measurement cache keys) and the root-timed
// mode — in coll.BcastAlgorithms order, with the gather's coefficients
// added to the algorithm's.
func TestBcastSpecs(t *testing.T) {
	const mg, P, m, seg = 256, 8, 1 << 20, 8192
	g := model.UnitGamma()
	specs := BcastSpecs(mg)
	algs := coll.BcastAlgorithms()
	if len(specs) != len(algs) {
		t.Fatalf("%d specs, want %d", len(specs), len(algs))
	}
	for i, alg := range algs {
		st := experiment.BcastThenGatherStage(alg, mg)
		s := specs[i]
		if s.Name != st.Name || s.Mode != experiment.RootTime || !s.TimingIndependent || s.Run == nil {
			t.Errorf("%v: spec %q mode %v, want stage %q", alg, s.Name, s.Mode, st.Name)
		}
		ab, bb := model.Coefficients(alg, P, m, seg, g)
		ag, bg := model.GatherLinearCoefficients(P, mg)
		if a, b := s.Coefficients(P, m, seg, g); a != ab+ag || b != bb+bg {
			t.Errorf("%v: coefficients (%v, %v), want (%v, %v)", alg, a, b, ab+ag, bb+bg)
		}
	}
}

// TestEverySpecRunsAndFits smoke-tests the generic estimation over every
// extended spec: the operation executes, the system is well-formed, and
// the fitted β is positive.
func TestEverySpecRunsAndFits(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	g := model.UnitGamma()
	cfg := AlphaBetaConfig{Procs: 8, Sizes: []int{2048, 16384, 131072}, Settings: fastSettings()}
	for name, specs := range AllSpecFamilies() {
		fits, err := AlphaBetaFamily(context.Background(), pr, specs, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, spec := range specs {
			res := fits[i]
			if res.Params.Beta <= 0 {
				t.Errorf("%s: β = %v", spec.Name, res.Params.Beta)
			}
			if len(res.Equations) != 3 {
				t.Errorf("%s: %d equations", spec.Name, len(res.Equations))
			}
			for _, eq := range res.Equations {
				if eq.A <= 0 || eq.T <= 0 {
					t.Errorf("%s: degenerate equation %+v", spec.Name, eq)
				}
			}
		}
	}
}

// TestSpecPredictionAccuracy checks that, for a representative spec of
// each family, the fitted model predicts a held-out size within tolerance.
func TestSpecPredictionAccuracy(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AlphaBetaConfig{Procs: 16, Sizes: []int{4096, 32768, 262144, 1 << 20}, Settings: fastSettings()}
	const held = 131072
	for _, spec := range []CollectiveSpec{
		AllgatherSpecs()[0],     // ring
		AllreduceSpecs()[2],     // ring
		AlltoallSpecs()[1],      // pairwise
		ReduceSpecs()[1],        // binomial
		GatherSpecs()[0],        // linear nosync
		ScatterSpecs()[1],       // binomial
		ReduceScatterSpecs()[0], // ring
	} {
		res, err := fitSpec(pr, spec, gr.Gamma, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := spec.Coefficients(16, held, pr.SegmentSize, gr.Gamma)
		pred := a*res.Params.Alpha + b*res.Params.Beta
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		meas, err := experiment.Measure(net, 16, fastSettings(), experiment.Completion, func(p *mpi.Proc) {
			spec.Run(p, held, pr.SegmentSize)
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(pred/meas.Mean - 1)
		if rel > 0.35 {
			t.Errorf("%s: prediction %v vs measured %v (%.0f%% off)",
				spec.Name, pred, meas.Mean, rel*100)
		}
	}
}

func TestAlphaBetaCollectiveValidation(t *testing.T) {
	pr, _ := cluster.Grisou().WithNodes(8)
	g := model.UnitGamma()
	good := AllgatherSpecs()[0]
	if _, err := fitSpec(pr, CollectiveSpec{Stage: experiment.Stage{Name: "nil"}}, g,
		AlphaBetaConfig{Procs: 4, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("nil spec members should fail")
	}
	if _, err := fitSpec(pr, good, g,
		AlphaBetaConfig{Procs: 999, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("bad procs should fail")
	}
	// Degenerate coefficients (P forced to 1 via spec) are rejected.
	degenerate := CollectiveSpec{
		Stage:        experiment.Stage{Name: "degenerate", Run: good.Run},
		Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) { return 0, 0 },
	}
	if _, err := fitSpec(pr, degenerate, g,
		AlphaBetaConfig{Procs: 4, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("zero coefficient should fail")
	}
}

// goldenExtendedDigest pins every extended spec's fitted α/β, bit for
// bit, on goldenExtendedConfig's grid with a unit γ. It was recorded from
// the pre-sweep serial path (one experiment.Measure per point on a fresh
// Runner), so it also pins the family sweep's equivalence to that path.
const goldenExtendedDigest = "92c75bd782645568"

// goldenExtendedConfig is the golden grid: a 16-node grisou at P = 12 (not
// a power of two, so recursive doubling takes its segmented fallback)
// over five sizes from 8 KiB to 4 MiB.
func goldenExtendedConfig(t testing.TB) (cluster.Profile, AlphaBetaConfig) {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	return pr, AlphaBetaConfig{
		Procs:    12,
		Sizes:    stats.LogSpaceBytes(8192, 4<<20, 5),
		Settings: experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1},
	}
}

// familyNames returns the extended family names in sorted order.
func familyNames() []string {
	names := make([]string, 0, 7)
	for name := range AllSpecFamilies() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// extendedDigest calibrates every family with cfg and fingerprints the
// fitted parameters' bits in sorted family order.
func extendedDigest(t *testing.T, pr cluster.Profile, cfg AlphaBetaConfig) string {
	t.Helper()
	h := sha256.New()
	fams := AllSpecFamilies()
	for _, name := range familyNames() {
		res, err := AlphaBetaFamily(context.Background(), pr, fams[name], model.UnitGamma(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, spec := range fams[name] {
			fmt.Fprintf(h, "%s=%016x,%016x;", spec.Name, math.Float64bits(res[i].Params.Alpha), math.Float64bits(res[i].Params.Beta))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenExtendedDeterminism pins the extended α/β across worker
// counts and both engines.
func TestGoldenExtendedDeterminism(t *testing.T) {
	pr, base := goldenExtendedConfig(t)
	for _, engine := range []experiment.Engine{experiment.EngineAuto, experiment.EngineScheduler} {
		for _, workers := range []int{1, 2, 8} {
			cfg := base
			cfg.Workers = workers
			cfg.Settings.Engine = engine
			if got := extendedDigest(t, pr, cfg); got != goldenExtendedDigest {
				t.Errorf("engine=%v workers=%d: digest %s, want %s", engine, workers, got, goldenExtendedDigest)
			}
		}
	}
}

// TestExtendedCompileAccounting checks the compile path on the default
// calibration grid (grisou, P = 45, ten sizes from 8 KiB to 4 MiB): each
// family sweep compiles every point exactly once, with no scheduler run
// and no compile fallback.
func TestExtendedCompileAccounting(t *testing.T) {
	pr := cluster.Grisou()
	cfg, err := AlphaBetaConfig{Settings: fastSettings(), Workers: 2}.withDefaults(pr)
	if err != nil {
		t.Fatal(err)
	}
	fams := AllSpecFamilies()
	for _, name := range familyNames() {
		reg := obs.NewRegistry()
		c := cfg
		c.Metrics = reg
		if _, err := AlphaBetaFamily(context.Background(), pr, fams[name], model.UnitGamma(), c); err != nil {
			t.Fatal(err)
		}
		points := int64(len(fams[name]) * len(cfg.Sizes))
		if got := reg.Counter("experiment_plan_compiles_total").Value(); got != points {
			t.Errorf("%s: %d compiles, want one per point (%d)", name, got, points)
		}
		if got := reg.Counter("mpi_runs_total").Value(); got != 0 {
			t.Errorf("%s: %d scheduler runs, want 0", name, got)
		}
		if got := reg.Counter(`experiment_fallbacks_total{reason="compile"}`).Value(); got != 0 {
			t.Errorf("%s: %d compile fallbacks, want 0", name, got)
		}
	}
}
