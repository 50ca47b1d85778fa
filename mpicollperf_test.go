package mpicollperf

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestFacadeWorkflow exercises the whole public API surface the README
// advertises: build a platform, calibrate (options API), select, predict,
// persist, reload.
func TestFacadeWorkflow(t *testing.T) {
	profile, err := Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	set := MeasureSettings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}
	sel, err := Calibrate(context.Background(), profile,
		WithProcs(6),
		WithSizes(8192, 65536, 524288),
		WithMeasureSettings(set),
	)
	if err != nil {
		t.Fatal(err)
	}

	choice, err := sel.Best(12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if choice.SegSize != profile.SegmentSize {
		t.Fatalf("segment size = %d", choice.SegSize)
	}
	found := false
	for _, alg := range BcastAlgorithms() {
		if alg == choice.Alg {
			found = true
		}
	}
	if !found {
		t.Fatalf("choice %v not among the six algorithms", choice.Alg)
	}

	ompi := OpenMPIDecision(12, 1<<20)
	if ompi.Alg != BcastSplitBinary && ompi.Alg != BcastChain && ompi.Alg != BcastBinomial {
		t.Fatalf("open mpi decision %v outside its known range", ompi)
	}

	path := filepath.Join(t.TempDir(), "cal.json")
	if err := sel.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCalibration(profile, path)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Best(12, 1<<20)
	if err != nil || again != choice {
		t.Fatalf("reloaded selection %v/%v, want %v", again, err, choice)
	}
}

// testSettings are quick measurement settings shared by the facade tests.
var testSettings = MeasureSettings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}

// TestFacadeExtendedCollectives exercises the collective-generic surface:
// Collectives/CollectiveSpecs enumeration, CalibrateExtended, the
// Selector.BestFor bundle, and the daemon-facing sentinel errors.
func TestFacadeExtendedCollectives(t *testing.T) {
	fams := Collectives()
	if len(fams) < 7 {
		t.Fatalf("extended families = %v, want at least the seven paper collectives", fams)
	}
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("Collectives() not sorted: %v", fams)
	}
	if _, err := CollectiveSpecs("no_such_collective"); err == nil {
		t.Fatal("unknown collective family must error")
	}

	profile, err := Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Calibrate(context.Background(), profile,
		WithProcs(6), WithSizes(8192, 524288), WithMeasureSettings(testSettings))
	if err != nil {
		t.Fatal(err)
	}

	// BestFor on the broadcast family agrees with Best.
	bc, err := sel.BestFor(OpBcast, 12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	best, err := sel.Best(12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if want := OpBcast + "/" + best.Alg.String(); bc.Algorithm != want {
		t.Fatalf("BestFor bcast = %q, Best = %q", bc.Algorithm, want)
	}

	// An uncalibrated extended family reports ErrNotCalibrated.
	if _, err := sel.BestFor("gather", 12, 1<<20); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated gather error = %v, want ErrNotCalibrated", err)
	}

	// CalibrateExtended fits a family standalone; its Best matches what
	// BestFor reports once the family is attached to the selector.
	specs, err := CollectiveSpecs("gather")
	if err != nil {
		t.Fatal(err)
	}
	cfg := CalibrationConfig{Procs: 6, Sizes: []int{8192, 524288}, Settings: testSettings}
	es, err := CalibrateExtended(profile, specs, sel.Models.Gamma, cfg)
	if err != nil {
		t.Fatal(err)
	}
	i, name := es.Best(12, 1<<20)
	if name == "" || es.Predict(i, 12, 1<<20) <= 0 {
		t.Fatalf("extended best = (%d, %q)", i, name)
	}
	if err := sel.CalibrateExtendedOp(context.Background(), "gather", cfg); err != nil {
		t.Fatal(err)
	}
	oc, err := sel.BestFor("gather", 12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Algorithm != name {
		t.Fatalf("BestFor gather = %q, standalone CalibrateExtended best = %q", oc.Algorithm, name)
	}
	if oc.Predicted <= 0 {
		t.Fatalf("predicted time %v", oc.Predicted)
	}
}

// TestFacadeOptionsCompose checks that option order does not matter for
// the engine/settings interaction, that WithEngine is honoured (replay
// would fail loudly on a program it cannot replay), and that WithWorkers,
// WithCache, and WithMetrics thread through to the pipeline.
func TestFacadeOptionsCompose(t *testing.T) {
	profile, err := Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewMeasurementCache()
	metrics := NewMetricsRegistry()
	base := []Option{WithProcs(6), WithSizes(8192, 524288), WithWorkers(2), WithCache(cache), WithMetrics(metrics)}
	a, err := Calibrate(context.Background(), profile,
		append([]Option{WithEngine(EngineScheduler), WithMeasureSettings(testSettings)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed engine/settings order, warm cache: same models.
	b, err := Calibrate(context.Background(), profile,
		append([]Option{WithMeasureSettings(testSettings), WithEngine(EngineScheduler)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Models, b.Models) {
		t.Fatal("option order changed the calibration")
	}
	if cache.Len() == 0 {
		t.Fatal("WithCache did not reach the sweep")
	}
	s := metrics.Snapshot()
	if len(s.Counters) == 0 {
		t.Fatal("WithMetrics did not reach the sweep")
	}
	// The second calibration was served from cache; the registry saw it.
	var cached int64
	for _, c := range s.Counters {
		if c.Name == "sweep_points_cached_total" {
			cached = c.Value
		}
	}
	if cached == 0 {
		t.Fatalf("expected cached points in %+v", s.Counters)
	}
}

// TestFacadePerturbationAndRobustness exercises the re-exported
// perturbation and robustness surfaces end to end on a tiny grid.
func TestFacadePerturbationAndRobustness(t *testing.T) {
	profile, err := Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	spec := RandomPerturbation(7, 0.5, profile.Net.NICs())
	if spec == nil || spec.Empty() {
		t.Fatal("random perturbation at intensity 0.5 should not be empty")
	}
	if _, err := ParsePerturbation("straggler:node=1,cpu=2.0;jitter:uniform"); err != nil {
		t.Fatalf("parse perturbation: %v", err)
	}
	perturbed := profile.Perturbed(spec)
	if perturbed.Name == profile.Name {
		t.Fatal("perturbed profile should be renamed")
	}

	sel, err := Calibrate(context.Background(), profile,
		WithProcs(6), WithSizes(8192, 524288), WithMeasureSettings(testSettings))
	if err != nil {
		t.Fatal(err)
	}
	metrics := NewMetricsRegistry()
	rep, err := Robustness(context.Background(), profile, sel, RobustnessConfig{
		P:           6,
		Sizes:       []int{65536},
		Intensities: []float64{0, 0.5},
		Seed:        7,
		Settings:    MeasureSettings{MinReps: 2, MaxReps: 4},
		Metrics:     metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("robustness rows = %d, want 2", len(rep.Rows))
	}
	if rep.Render() == "" || rep.CSV() == "" {
		t.Fatal("empty robustness renderings")
	}
	var agreement int64
	for _, c := range metrics.Snapshot().Counters {
		if base := c.Name; len(base) > len("selection_choices_total") && base[:len("selection_choices_total")] == "selection_choices_total" {
			agreement += c.Value
		}
	}
	if agreement != 4 { // 2 selectors × 1 size × 2 intensities
		t.Fatalf("selection agreement tally = %d, want 4", agreement)
	}
}

// TestLoadCalibrationVersion pins the model-file versioning contract:
// current files carry version 1 and round-trip; files with any other
// version are rejected with *UnsupportedVersionError.
func TestLoadCalibrationVersion(t *testing.T) {
	profile, err := Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Calibrate(context.Background(), profile,
		WithProcs(4), WithSizes(8192, 524288), WithMeasureSettings(testSettings))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := sel.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["version"] != float64(1) {
		t.Fatalf("saved version = %v, want 1", doc["version"])
	}
	for _, v := range []any{float64(99), nil} {
		if v == nil {
			delete(doc, "version") // pre-versioning file
		} else {
			doc["version"] = v
		}
		tampered, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, tampered, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = LoadCalibration(profile, path)
		var verr *UnsupportedVersionError
		if !errors.As(err, &verr) {
			t.Fatalf("version %v: error = %v, want UnsupportedVersionError", v, err)
		}
	}
}

func TestFacadePlatforms(t *testing.T) {
	if Grisou().Nodes != 90 || Gros().Nodes != 124 {
		t.Fatal("paper platform sizes")
	}
	custom, err := CustomCluster("lab", 8, 5e-6, 1e9)
	if err != nil || custom.Nodes != 8 {
		t.Fatalf("custom cluster: %v %v", custom, err)
	}
	if _, err := CustomCluster("bad", 8, 5e-6, -1); err == nil {
		t.Fatal("negative bandwidth should fail")
	}
}

func TestFacadeConstantsDistinct(t *testing.T) {
	algs := BcastAlgorithms()
	if len(algs) != 6 {
		t.Fatalf("expected the paper's six algorithms, got %d", len(algs))
	}
	seen := map[BcastAlgorithm]bool{}
	for _, a := range []BcastAlgorithm{
		BcastLinear, BcastChain, BcastKChain, BcastBinary, BcastSplitBinary, BcastBinomial,
	} {
		if seen[a] {
			t.Fatalf("duplicate constant %v", a)
		}
		seen[a] = true
	}
	if DefaultMeasureSettings().Precision != 0.025 {
		t.Fatal("paper precision is 2.5%")
	}
}

// TestCalibrationRunsNoScheduler: every point a default calibration
// measures — the γ(P) and α/β broadcast grid and all seven extended
// families — belongs to a timing-independent stage, so each is compiled
// goroutine-free and replayed: no simulator run goes through the
// scheduler, and nothing falls back.
func TestCalibrationRunsNoScheduler(t *testing.T) {
	reg := NewMetricsRegistry()
	ctx := context.Background()
	sel, err := Calibrate(ctx, Grisou(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range Collectives() {
		if err := sel.CalibrateExtendedOp(ctx, op, CalibrationConfig{Metrics: reg}); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Counter("mpi_runs_total").Value(); n != 0 {
		t.Errorf("mpi_runs_total = %d, want 0", n)
	}
	if n := reg.Counter(`experiment_reps_total{engine="scheduler"}`).Value(); n != 0 {
		t.Errorf("scheduler repetitions = %d, want 0", n)
	}
	if n := reg.Counter(`experiment_reps_total{engine="replay"}`).Value(); n == 0 {
		t.Error("no replayed repetitions recorded")
	}
	if n := reg.Counter("experiment_plan_compiles_total").Value(); n == 0 {
		t.Error("no compiled points recorded")
	}
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, "experiment_fallbacks_total") && c.Value != 0 {
			t.Errorf("%s = %d, want 0", c.Name, c.Value)
		}
	}
}
