package guideline

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/perturb"
)

func meas(mean, hw float64) experiment.Measurement {
	var m experiment.Measurement
	m.Mean = mean
	m.CI.HalfWidth = hw
	return m
}

func TestHolds(t *testing.T) {
	cases := []struct {
		name        string
		left, right experiment.Measurement
		tol         float64
		want        bool
	}{
		{"equal", meas(1, 0), meas(1, 0), 0, true},
		{"strictly-less", meas(0.5, 0), meas(1, 0), 0, true},
		{"within-tolerance", meas(1.04, 0), meas(1, 0), 0.05, true},
		{"beyond-tolerance", meas(1.2, 0), meas(1, 0), 0.05, false},
		{"noise-overlap", meas(1.2, 0.15), meas(1, 0.1), 0.0, true},
		{"noise-separated", meas(1.5, 0.01), meas(1, 0.01), 0.0, false},
		{"negative-tolerance-clamped", meas(1, 0), meas(1, 0), -1, true},
	}
	for _, c := range cases {
		if got := Holds(c.left, c.right, c.tol); got != c.want {
			t.Errorf("%s: Holds = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(meas(2, 0), meas(1, 0)); r != 2 {
		t.Errorf("Ratio(2, 1) = %v", r)
	}
	if r := Ratio(meas(1, 0), meas(0, 0)); !math.IsInf(r, 1) {
		t.Errorf("Ratio(1, 0) = %v, want +Inf", r)
	}
	if r := Ratio(meas(0, 0), meas(0, 0)); r != 1 {
		t.Errorf("Ratio(0, 0) = %v, want 1", r)
	}
}

func TestAppliesTo(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := pr.Perturbed(&perturb.Spec{Stragglers: []perturb.Straggler{{Node: 0, Compute: 2}}})
	even := func(cfg Config) bool { return cfg.MsgBytes%2 == 0 }
	g := Guideline{
		Left:  Recipe{OK: even},
		Right: Recipe{OK: func(cfg Config) bool { return cfg.MsgBytes%3 == 0 }},
	}
	cases := []struct {
		name string
		g    Guideline
		cfg  Config
		want bool
	}{
		{"ok", g, Config{Profile: pr, Procs: 4, MsgBytes: 6}, true},
		{"procs-too-small", g, Config{Profile: pr, Procs: 1, MsgBytes: 6}, false},
		{"procs-exceed-nodes", g, Config{Profile: pr, Procs: 17, MsgBytes: 6}, false},
		{"no-bytes", g, Config{Profile: pr, Procs: 4, MsgBytes: 0}, false},
		{"left-ok-rejects", g, Config{Profile: pr, Procs: 4, MsgBytes: 9}, false},
		{"right-ok-rejects", g, Config{Profile: pr, Procs: 4, MsgBytes: 4}, false},
		{"quiet-only-on-perturbed", Guideline{QuietOnly: true}, Config{Profile: perturbed, Procs: 4, MsgBytes: 6}, false},
		{"quiet-only-on-quiet", Guideline{QuietOnly: true}, Config{Profile: pr, Procs: 4, MsgBytes: 6}, true},
		{"guideline-predicate", Guideline{Applies: func(Config) bool { return false }}, Config{Profile: pr, Procs: 4, MsgBytes: 6}, false},
	}
	for _, c := range cases {
		if got := c.g.AppliesTo(c.cfg); got != c.want {
			t.Errorf("%s: AppliesTo = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRegistryShape pins the structural contract of the built-in set:
// all five families present, names unique, both sides of every guideline
// runnable, and the fuzz-facing Invariant subset restricted to the
// perturbation-robust families.
func TestRegistryShape(t *testing.T) {
	gls := Registry()
	if len(gls) < 20 {
		t.Fatalf("Registry has %d guidelines", len(gls))
	}
	names := make(map[string]bool)
	for _, g := range gls {
		if names[g.Name] {
			t.Errorf("duplicate guideline name %q", g.Name)
		}
		names[g.Name] = true
		if g.Left.Points == nil || g.Right.Points == nil {
			t.Errorf("%s: missing points func", g.Name)
		}
		if g.Doc == "" || g.Tolerance <= 0 {
			t.Errorf("%s: incomplete declaration (doc %q, tolerance %v)", g.Name, g.Doc, g.Tolerance)
		}
	}
	fams := Families(gls)
	if len(fams) != 5 {
		t.Errorf("Registry families = %v, want all 5", fams)
	}
	for _, fam := range Families(Invariant()) {
		if fam != FamilyPattern && fam != FamilyMonotoneSize {
			t.Errorf("Invariant includes non-robust family %q", fam)
		}
	}
	for _, g := range Registry() {
		switch g.Family {
		case FamilyMonotoneProcs, FamilySpecialized, FamilySanity:
			if !g.QuietOnly {
				t.Errorf("%s: family %s must be quiet-only", g.Name, g.Family)
			}
		}
	}
}

func TestReportSummaryAndArtifact(t *testing.T) {
	rep := &Report{
		Engine:    "auto",
		Workers:   2,
		Platforms: []string{"grisou"},
		Checks: []CheckResult{
			{Guideline: "g1", Family: FamilyPattern, Platform: "grisou", Procs: 4, MsgBytes: 1024, Ratio: 0.5},
			{Guideline: "g1", Family: FamilyPattern, Platform: "grisou", Procs: 8, MsgBytes: 1024, Ratio: 0.7},
			{Guideline: "g2", Family: FamilyMonotoneSize, Platform: "grisou", Procs: 4, MsgBytes: 1024,
				Ratio: math.Inf(1), Violated: true, Tolerance: 0.02},
		},
	}
	if n := rep.FamilyCount(); n != 2 {
		t.Errorf("FamilyCount = %d, want 2", n)
	}
	if v := rep.Violations(); len(v) != 1 || v[0].Guideline != "g2" {
		t.Errorf("Violations = %+v", v)
	}
	sums := rep.Summarize()
	if len(sums) != 2 || sums[0].Guideline != "g1" || sums[0].Checks != 2 || sums[0].MaxRatio != 0.7 {
		t.Errorf("Summarize = %+v", sums)
	}
	if sums[1].Violations != 1 {
		t.Errorf("g2 summary = %+v", sums[1])
	}

	var buf strings.Builder
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "VIOLATIONS") || !strings.Contains(out, "g2") {
		t.Errorf("Render output missing violation table:\n%s", out)
	}

	path := filepath.Join(t.TempDir(), "sub", "guidelines.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Engine     string        `json:"engine"`
		Checks     int           `json:"checks"`
		Violations int           `json:"violations"`
		Summary    []Summary     `json:"summary"`
		Rows       []CheckResult `json:"violation_rows"`
	}
	if err := json.Unmarshal(raw, &art); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if art.Engine != "auto" || art.Checks != 3 || art.Violations != 1 || len(art.Summary) != 2 || len(art.Rows) != 1 {
		t.Errorf("artifact = %+v", art)
	}
	// JSON cannot encode ±Inf; the writer clamps non-finite ratios to -1.
	if art.Rows[0].Ratio != -1 || art.Summary[1].MaxRatio != -1 {
		t.Errorf("non-finite ratios serialized as %v / %v, want -1", art.Rows[0].Ratio, art.Summary[1].MaxRatio)
	}
}

func TestHarnessContextCancellation(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	h := Harness{Profiles: []cluster.Profile{pr}, Guidelines: Invariant(), Procs: []int{4}, Sizes: []int{1 << 10}, Settings: set}
	if _, err := h.Run(ctx); err == nil {
		t.Fatal("cancelled context did not stop the run")
	}
}
