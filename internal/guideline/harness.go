package guideline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/selection"
)

// Harness checks a guideline × (P, m) × profile × perturbation grid. Per
// platform, every check's left and right points are collected into one
// de-duplicated grid — a point shared by many guidelines is measured once
// — and measured by one experiment.Sweep. Results are deterministic —
// grid order, measurement values, and verdicts do not depend on Workers
// or on which engine computes them.
type Harness struct {
	// Profiles are the base platforms; empty means the canonical pair
	// (grisou and gros, both truncated to 16 nodes).
	Profiles []cluster.Profile
	// Perturbations are explicit perturbation specs; each is composed
	// onto every base profile as an additional platform.
	Perturbations []*perturb.Spec
	// RandomPerturbations adds this many deterministic random platforms
	// per profile, drawn from perturb.Random(Seed+i, Intensity, nics).
	RandomPerturbations int
	// Seed feeds the random perturbation generator (default 1).
	Seed int64
	// Intensity scales the random perturbations (default 0.5).
	Intensity float64
	// Procs are the communicator sizes; empty means {4, 8, 16} clipped to
	// each profile's node count.
	Procs []int
	// Sizes are the total message sizes in bytes; empty means
	// {1 KiB, 16 KiB, 128 KiB, 1 MiB}.
	Sizes []int
	// Guidelines is the set to check; empty means Registry().
	Guidelines []Guideline
	// Settings drive the adaptive measurements; the zero value uses the
	// experiment defaults.
	Settings experiment.Settings
	// Workers bounds the concurrent measurements of each platform's sweep
	// (and of the sanity model fit): 0 means runtime.GOMAXPROCS(0), 1
	// reproduces the serial path bit for bit.
	Workers int
	// Metrics, if non-nil, receives guideline_checks_total,
	// guideline_violations_total, per-guideline ratio histograms, and the
	// guideline_run_seconds span.
	Metrics *obs.Registry
	// FitProcs is the communicator size of the algorithm-sanity model
	// fit; 0 uses the estimate package default (half the platform).
	FitProcs int
}

// task is one grid cell: guideline gi at configuration cfg, with the
// indices of its left and right points in the platform's sweep grid.
type task struct {
	gi          int
	cfg         Config
	left, right []int
}

// pointKey is a point's whole identity: Stage.Name and Mode name the
// operation (see experiment.Stage), so equal keys measure the same
// program and share one measurement.
type pointKey struct {
	stage         string
	mode          experiment.Mode
	procs, m, seg int
}

func keyOf(pt experiment.Point) pointKey {
	return pointKey{pt.Stage.Name, pt.Stage.Mode, pt.Procs, pt.MsgBytes, pt.SegSize}
}

// Run checks the whole grid and returns the aggregated report. A
// cancelled ctx stops the run promptly with the context's error.
func (h Harness) Run(ctx context.Context) (*Report, error) {
	start := time.Now()
	if h.Metrics != nil {
		defer h.Metrics.Span("guideline_run_seconds").End()
	}
	profiles := h.Profiles
	if len(profiles) == 0 {
		var err error
		if profiles, err = defaultProfiles(); err != nil {
			return nil, err
		}
	}
	gls := h.Guidelines
	if len(gls) == 0 {
		gls = Registry()
	}
	sizes := h.Sizes
	if len(sizes) == 0 {
		sizes = []int{1 << 10, 16 << 10, 128 << 10, 1 << 20}
	}
	workers := h.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seed := h.Seed
	if seed == 0 {
		seed = 1
	}
	intensity := h.Intensity
	if intensity == 0 {
		intensity = 0.5
	}

	rep := &Report{Engine: h.Settings.Engine.String(), Workers: workers}
	for _, base := range profiles {
		platforms := []cluster.Profile{base}
		for _, spec := range h.Perturbations {
			platforms = append(platforms, base.Perturbed(spec))
		}
		for i := 0; i < h.RandomPerturbations; i++ {
			spec := perturb.Random(seed+int64(i), intensity, base.Net.NICs())
			platforms = append(platforms, base.Perturbed(spec))
		}
		for _, pr := range platforms {
			checks, err := h.runPlatform(ctx, pr, gls, sizes, workers)
			if err != nil {
				return nil, err
			}
			rep.Checks = append(rep.Checks, checks...)
			rep.Platforms = append(rep.Platforms, pr.Name)
		}
	}
	rep.Elapsed = time.Since(start).Seconds()
	h.observe(rep)
	return rep, nil
}

// runPlatform checks every guideline × (P, m) cell of one platform. The
// task list and its point grid are enumerated deterministically and the
// sweep returns results in grid order, so the output is identical for
// any worker count.
func (h Harness) runPlatform(ctx context.Context, pr cluster.Profile, gls []Guideline, sizes []int, workers int) ([]CheckResult, error) {
	procs := h.Procs
	if len(procs) == 0 {
		for _, p := range []int{4, 8, 16} {
			if p <= pr.Nodes {
				procs = append(procs, p)
			}
		}
		if len(procs) == 0 {
			procs = []int{pr.Nodes}
		}
	}

	var tasks []task
	needFit := false
	for gi, g := range gls {
		for _, p := range procs {
			for _, m := range sizes {
				cfg := Config{Profile: pr, Procs: p, MsgBytes: m}
				if g.AppliesTo(cfg) {
					tasks = append(tasks, task{gi: gi, cfg: cfg})
					needFit = needFit || (g.Family == FamilySanity && cfg.Quiet())
				}
			}
		}
	}
	if len(tasks) == 0 {
		return nil, nil
	}

	var sel *selection.ModelBased
	if needFit {
		models, _, err := estimate.ModelsCtx(ctx, pr, estimate.AlphaBetaConfig{
			Procs:    h.FitProcs,
			Settings: h.Settings,
			Workers:  workers,
			Metrics:  h.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("fitting models for %s: %w", pr.Name, err)
		}
		sel = &selection.ModelBased{Models: models}
	}

	var points []experiment.Point
	index := make(map[pointKey]int)
	collect := func(r Recipe, cfg Config) ([]int, error) {
		pts, err := r.Points(cfg, sel)
		if err == nil && len(pts) == 0 {
			err = fmt.Errorf("no points to measure")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, err)
		}
		idx := make([]int, len(pts))
		for i, pt := range pts {
			k := keyOf(pt)
			j, ok := index[k]
			if !ok {
				j = len(points)
				index[k] = j
				points = append(points, pt)
			}
			idx[i] = j
		}
		return idx, nil
	}
	for i := range tasks {
		t := &tasks[i]
		g := gls[t.gi]
		var err error
		if t.left, err = collect(g.Left, t.cfg); err == nil {
			t.right, err = collect(g.Right, t.cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s at %s: %w", g.Name, t.cfg, err)
		}
	}

	sw := experiment.Sweep{Profile: pr, Settings: h.Settings, Workers: workers, Metrics: h.Metrics}
	measured, err := sw.Run(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("guidelines on %s: %w", pr.Name, err)
	}
	results := make([]CheckResult, len(tasks))
	for i, t := range tasks {
		results[i] = verdict(gls[t.gi], t.cfg, best(measured, t.left), best(measured, t.right), h.Settings)
	}
	return results, nil
}

// best is the minimum-mean measurement among measured[idx], the first on
// a tie.
func best(measured []experiment.Result, idx []int) experiment.Measurement {
	b := measured[idx[0]].Meas
	for _, j := range idx[1:] {
		if m := measured[j].Meas; m.Mean < b.Mean {
			b = m
		}
	}
	return b
}

// verdict folds one guideline's two measured sides at cfg into its check.
func verdict(g Guideline, cfg Config, left, right experiment.Measurement, set experiment.Settings) CheckResult {
	res := CheckResult{
		Guideline: g.Name,
		Family:    g.Family,
		Platform:  cfg.Profile.Name,
		Quiet:     cfg.Quiet(),
		Procs:     cfg.Procs,
		MsgBytes:  cfg.MsgBytes,
		Left:      g.Left.Name,
		Right:     g.Right.Name,
		LeftSec:   left.Mean,
		RightSec:  right.Mean,
		Ratio:     Ratio(left, right),
		Tolerance: g.Tolerance,
		Violated:  !Holds(left, right, g.Tolerance),
		Engine:    set.Engine.String(),
	}
	if left.Fallback != experiment.FallbackNone {
		res.Fallback = string(left.Fallback)
	} else if right.Fallback != experiment.FallbackNone {
		res.Fallback = string(right.Fallback)
	}
	return res
}

// observe publishes the run's counters and per-guideline ratio
// histograms.
func (h Harness) observe(rep *Report) {
	if h.Metrics == nil {
		return
	}
	h.Metrics.Counter("guideline_checks_total").Add(int64(len(rep.Checks)))
	h.Metrics.Counter("guideline_violations_total").Add(int64(len(rep.Violations())))
	for _, c := range rep.Checks {
		h.Metrics.Histogram(obs.Name("guideline_ratio", "guideline", c.Guideline)).Observe(c.Ratio)
	}
}

// defaultProfiles is the canonical platform pair, truncated to 16 nodes
// so the default grid matches the repository's golden profile scale.
func defaultProfiles() ([]cluster.Profile, error) {
	var out []cluster.Profile
	for _, name := range []string{"grisou", "gros"} {
		pr, err := cluster.ByName(name)
		if err != nil {
			return nil, err
		}
		if pr.Nodes > 16 {
			if pr, err = pr.WithNodes(16); err != nil {
				return nil, err
			}
		}
		out = append(out, pr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
