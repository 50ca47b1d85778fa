// Golden verdict tests: the guideline checker's verdicts are part of the
// repository's determinism contract. On the canonical golden platform
// (Grisou at 16 nodes, the same profile golden_test.go pins the sweep
// engine to) the full registry must pass clean, and every execution
// engine and worker count must produce the identical check list bit for
// bit — the compile and replay engines are differentially checked against
// the scheduler through the verdicts they emit.
package guideline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
)

func goldenProfile(t *testing.T) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// goldenSettings mirrors the root golden_test.go sweep settings.
var goldenSettings = experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}

func goldenHarness(pr cluster.Profile, engine experiment.Engine, workers int, reg *obs.Registry) Harness {
	set := goldenSettings
	set.Engine = engine
	return Harness{
		Profiles: []cluster.Profile{pr},
		Procs:    []int{4, 8},
		Sizes:    []int{1 << 10, 64 << 10},
		Settings: set,
		Workers:  workers,
		Metrics:  reg,
	}
}

// TestGoldenGuidelineVerdicts runs the full registry on the golden
// platform across engines × worker counts: zero violations everywhere,
// and — the differential contract — every combination must reproduce the
// scheduler/workers=1 check list bit-identically (same grid order, same
// measured means, same ratios, same verdicts).
func TestGoldenGuidelineVerdicts(t *testing.T) {
	pr := goldenProfile(t)
	var baseline []CheckResult
	for _, engine := range []experiment.Engine{experiment.EngineScheduler, experiment.EngineAuto, experiment.EngineReplay} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("engine=%v/workers=%d", engine, workers), func(t *testing.T) {
				h := goldenHarness(pr, engine, workers, nil)
				rep, err := h.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Checks) == 0 {
					t.Fatal("no checks ran")
				}
				if rep.FamilyCount() != 5 {
					t.Errorf("checked %d families, want 5", rep.FamilyCount())
				}
				for _, v := range rep.Violations() {
					t.Errorf("violation on the clean golden platform: %s at P=%d m=%d (ratio %.4f)",
						v.Guideline, v.Procs, v.MsgBytes, v.Ratio)
				}
				if baseline == nil {
					baseline = rep.Checks
					return
				}
				if len(rep.Checks) != len(baseline) {
					t.Fatalf("%d checks, baseline has %d", len(rep.Checks), len(baseline))
				}
				for i, c := range rep.Checks {
					want := baseline[i]
					// The engine labels itself; everything else — including
					// the measured seconds, bit for bit — must match.
					c.Engine = want.Engine
					if c != want {
						t.Errorf("check %d diverged from the scheduler baseline:\n got %+v\nwant %+v", i, c, want)
					}
				}
			})
		}
	}
}

// TestGoldenInvertedComparator is the harness's self-test: deliberately
// inverting the pattern guidelines (composition ≾ best single collective
// — false by construction) must produce violations, a rendered violation
// table, and a violation-carrying artifact. A checker that cannot fail
// proves nothing by passing.
func TestGoldenInvertedComparator(t *testing.T) {
	pr := goldenProfile(t)
	var inverted []Guideline
	for _, g := range Registry() {
		if g.Family != FamilyPattern {
			continue
		}
		g.Name = "inverted:" + g.Name
		g.Left, g.Right = g.Right, g.Left
		inverted = append(inverted, g)
	}
	if len(inverted) != 3 {
		t.Fatalf("expected 3 pattern guidelines, got %d", len(inverted))
	}
	rep, err := Check(context.Background(), pr, inverted, []int{8}, []int{64 << 10}, goldenSettings)
	if err != nil {
		t.Fatal(err)
	}
	viol := rep.Violations()
	if len(viol) != len(rep.Checks) || len(viol) == 0 {
		t.Fatalf("inverted comparator: %d of %d checks violated, want all", len(viol), len(rep.Checks))
	}
	for _, v := range viol {
		if v.Ratio <= 1+v.Tolerance {
			t.Errorf("%s: ratio %.4f does not exceed tolerance %v", v.Guideline, v.Ratio, v.Tolerance)
		}
	}
	var buf strings.Builder
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "VIOLATIONS") {
		t.Error("violation table missing from rendered report")
	}
	if err := rep.WriteJSON(t.TempDir() + "/inverted.json"); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenGuidelineMetricsInvariance mirrors the sweep-engine metrics
// contract for the guideline layer: attaching a registry must not change
// a single verdict or measured mean, and the registry must come back
// populated with the run's counters. It also pins that each distinct
// point is measured — and compiled — exactly once: the registry's sweep
// points are the sanity fit's own plus one per distinct guideline point.
func TestGoldenGuidelineMetricsInvariance(t *testing.T) {
	pr := goldenProfile(t)
	bare, err := goldenHarness(pr, experiment.EngineAuto, 4, nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	withReg, err := goldenHarness(pr, experiment.EngineAuto, 4, reg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(withReg.Checks) != len(bare.Checks) {
		t.Fatalf("%d checks with metrics, %d without", len(withReg.Checks), len(bare.Checks))
	}
	for i, c := range withReg.Checks {
		if c != bare.Checks[i] {
			t.Errorf("check %d: metrics registry perturbed the verdict:\n got %+v\nwant %+v", i, c, bare.Checks[i])
		}
	}
	if got := reg.Counter("guideline_checks_total").Value(); got != int64(len(withReg.Checks)) {
		t.Errorf("guideline_checks_total = %d, want %d", got, len(withReg.Checks))
	}
	if got := reg.Counter("guideline_violations_total").Value(); got != 0 {
		t.Errorf("guideline_violations_total = %d, want 0", got)
	}
	name := obs.Name("guideline_ratio", "guideline", withReg.Checks[0].Guideline)
	if reg.Histogram(name).Count() == 0 {
		t.Errorf("%s not populated", name)
	}

	h := goldenHarness(pr, experiment.EngineAuto, 4, nil)
	fitReg := obs.NewRegistry()
	models, _, err := estimate.ModelsCtx(context.Background(), pr, estimate.AlphaBetaConfig{Settings: h.Settings, Metrics: fitReg})
	if err != nil {
		t.Fatal(err)
	}
	fitPoints := fitReg.Counter("sweep_points_measured_total").Value()
	sel := &selection.ModelBased{Models: models}
	distinct := make(map[pointKey]bool)
	for _, g := range Registry() {
		for _, p := range h.Procs {
			for _, m := range h.Sizes {
				cfg := Config{Profile: pr, Procs: p, MsgBytes: m}
				if !g.AppliesTo(cfg) {
					continue
				}
				for _, r := range []Recipe{g.Left, g.Right} {
					pts, err := r.Points(cfg, sel)
					if err != nil {
						t.Fatal(err)
					}
					for _, pt := range pts {
						distinct[keyOf(pt)] = true
					}
				}
			}
		}
	}
	measured := reg.Counter("sweep_points_measured_total").Value()
	if fitPoints == 0 || measured != fitPoints+int64(len(distinct)) {
		t.Errorf("%d points measured: want the fit's %d plus %d distinct guideline points", measured, fitPoints, len(distinct))
	}
	if compiles := reg.Counter("experiment_plan_compiles_total").Value(); compiles != measured {
		t.Errorf("experiment_plan_compiles_total = %d, sweep_points_measured_total = %d", compiles, measured)
	}
}
