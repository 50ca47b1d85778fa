package estimate

import (
	"context"
	"fmt"
	"math"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

// GammaResult is the outcome of the γ(P) estimation.
type GammaResult struct {
	Gamma model.Gamma
	// T2 holds the measured mean linear-broadcast times per P.
	T2 map[int]float64
	// Measurements holds the full per-P measurement diagnostics.
	Measurements map[int]experiment.Measurement
}

// gammaMaxP returns the largest fanout the γ(P) experiments cover on the
// profile.
func gammaMaxP(pr cluster.Profile) (int, error) {
	maxP := pr.MaxLinearFanout
	if maxP > pr.Nodes {
		maxP = pr.Nodes
	}
	if maxP < 2 {
		return 0, fmt.Errorf("estimate: platform %s too small for γ estimation", pr.Name)
	}
	return maxP, nil
}

// gammaPoints builds the §4.1 grid: the non-blocking linear broadcast of
// one segment for P = 2..maxP.
func gammaPoints(pr cluster.Profile, maxP int) []experiment.Point {
	linear := experiment.BcastStage(coll.BcastLinear)
	points := make([]experiment.Point, 0, maxP-1)
	for p := 2; p <= maxP; p++ {
		points = append(points, experiment.Point{Stage: linear, Procs: p, MsgBytes: pr.SegmentSize})
	}
	return points
}

// Gamma estimates γ(P) for P = 2..pr.MaxLinearFanout on the profile,
// broadcasting one segment of pr.SegmentSize bytes, following §4.1. The
// per-P experiments are independent and run through a default-width
// sweep; results are identical to the serial loop.
func Gamma(pr cluster.Profile, set experiment.Settings) (GammaResult, error) {
	maxP, err := gammaMaxP(pr)
	if err != nil {
		return GammaResult{}, err
	}
	sw := experiment.Sweep{Profile: pr, Settings: set}
	res, err := sw.Run(context.Background(), gammaPoints(pr, maxP))
	if err != nil {
		return GammaResult{}, fmt.Errorf("estimate: γ: %w", err)
	}
	return gammaFromResults(maxP, res)
}

// gammaFromResults assembles a GammaResult from the measured §4.1 grid
// (res[i] is the P = i+2 experiment).
func gammaFromResults(maxP int, measured []experiment.Result) (GammaResult, error) {
	res := GammaResult{
		T2:           make(map[int]float64, maxP-1),
		Measurements: make(map[int]experiment.Measurement, maxP-1),
	}
	for i, r := range measured {
		p := i + 2
		res.T2[p] = r.Meas.Mean
		res.Measurements[p] = r.Meas
	}
	base := res.T2[2]
	if base <= 0 {
		return GammaResult{}, fmt.Errorf("estimate: non-positive T2(2) = %v", base)
	}
	table := make(map[int]float64, maxP-1)
	for p := 2; p <= maxP; p++ {
		g := res.T2[p] / base
		if g < 1 {
			g = 1 // measurement noise can nudge tiny ratios below 1
		}
		table[p] = g
	}
	gamma, err := model.NewGamma(table)
	if err != nil {
		return GammaResult{}, err
	}
	res.Gamma = gamma
	return res, nil
}

// AlphaBetaConfig parameterises the §4.2 experiments.
type AlphaBetaConfig struct {
	// Procs is the number of processes used in the experiments; the paper
	// uses about half the cluster on Grisou (40) and the full cluster on
	// Gros (124). Zero means half the platform (minimum 4).
	Procs int
	// Sizes are the broadcast message sizes; zero-length means the paper's
	// grid of 10 log-spaced sizes from 8 KB to 4 MB.
	Sizes []int
	// GatherBytes is m_g, the per-rank gather contribution; it must differ
	// from the segment size (the paper's m_g ≠ m_s) and should be small —
	// the paper designs the experiment so that "the total time ... would
	// be dominated by the time of [the algorithm's] execution", and a
	// large m_g lets the gather model's imperfections bleed into the
	// algorithm's fitted parameters. Zero means 256 bytes.
	GatherBytes int
	// Settings drive the adaptive measurements.
	Settings experiment.Settings
	// Workers bounds the measurement concurrency of the estimation
	// sweeps: 0 means runtime.GOMAXPROCS(0), 1 reproduces the serial
	// path. Concurrency never changes the results — every experiment
	// runs on its own simulator instance.
	Workers int
	// Cache, if non-nil, serves already-measured grid points (see
	// experiment.Cache); repeated calibrations of the same profile with
	// the same settings skip their measurements entirely.
	Cache *experiment.Cache
	// DisablePlanTemplates switches off the calibration sweep's
	// plan-template store (compile one execution plan per structure
	// class, rebind it for every other grid point); every point then
	// compiles its own plan, still goroutine-free. Fitted parameters are
	// bit-identical either way; the switch exists for benchmarking and
	// debugging.
	DisablePlanTemplates bool
	// Progress, if non-nil, observes every completed measurement.
	Progress experiment.Progress
	// Metrics, if non-nil, receives the calibration sweep's counters plus
	// per-algorithm fit spans, Huber iteration counts, and residual norms
	// (see fitAlphaBeta). Purely observational: fitted parameters are
	// bit-identical with or without it.
	Metrics *obs.Registry
}

// sweep builds the measurement engine the config describes.
func (c AlphaBetaConfig) sweep(pr cluster.Profile) experiment.Sweep {
	return experiment.Sweep{
		Profile:          pr,
		Settings:         c.Settings,
		Workers:          c.Workers,
		Cache:            c.Cache,
		DisableTemplates: c.DisablePlanTemplates,
		Progress:         c.Progress,
		Metrics:          c.Metrics,
	}
}

func (c AlphaBetaConfig) withDefaults(pr cluster.Profile) (AlphaBetaConfig, error) {
	if c.Procs == 0 {
		c.Procs = pr.Nodes / 2
		if c.Procs < 4 {
			c.Procs = min(4, pr.Nodes)
		}
	}
	if c.Procs < 2 || c.Procs > pr.Nodes {
		return c, fmt.Errorf("estimate: %d procs outside 2..%d on %s", c.Procs, pr.Nodes, pr.Name)
	}
	if len(c.Sizes) == 0 {
		c.Sizes = stats.LogSpaceBytes(8192, 4<<20, 10)
	}
	if len(c.Sizes) < 2 {
		return c, fmt.Errorf("estimate: need at least 2 message sizes")
	}
	if c.GatherBytes == 0 {
		c.GatherBytes = 256
	}
	if c.GatherBytes < 0 {
		return c, fmt.Errorf("estimate: negative gather size")
	}
	if c.GatherBytes == pr.SegmentSize {
		return c, fmt.Errorf("estimate: m_g must differ from the segment size %d (paper §4.2)", pr.SegmentSize)
	}
	return c, nil
}

// Equation is one row of the Fig. 4 system, kept for inspection.
type Equation struct {
	MsgBytes    int
	GatherBytes int
	// A and B are the α and β coefficients of the full experiment
	// (broadcast + gather).
	A, B float64
	// T is the measured experiment time.
	T float64
}

// AlphaBetaResult carries the fitted parameters and the system they came
// from.
type AlphaBetaResult struct {
	Params    model.Hockney
	Equations []Equation
	// Fit is the Huber regression over the canonical form.
	Fit stats.LinearFit
}

// alphaBetaPoints builds the §4.2 grid for one algorithm: the modelled
// broadcast followed by the small gather, one point per message size.
func alphaBetaPoints(pr cluster.Profile, alg coll.BcastAlgorithm, cfg AlphaBetaConfig) []experiment.Point {
	st := experiment.BcastThenGatherStage(alg, cfg.GatherBytes)
	points := make([]experiment.Point, 0, len(cfg.Sizes))
	for _, m := range cfg.Sizes {
		points = append(points, experiment.Point{Stage: st, Procs: cfg.Procs, MsgBytes: m, SegSize: pr.SegmentSize})
	}
	return points
}

// AlphaBeta estimates the algorithm-specific Hockney parameters for alg on
// the profile, given the platform's γ. The per-size experiments are
// independent and fan out over cfg.Workers; results are identical to the
// serial loop.
func AlphaBeta(pr cluster.Profile, alg coll.BcastAlgorithm, g model.Gamma, cfg AlphaBetaConfig) (AlphaBetaResult, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	measured, err := cfg.sweep(pr).Run(context.Background(), alphaBetaPoints(pr, alg, cfg))
	if err != nil {
		return AlphaBetaResult{}, fmt.Errorf("estimate: α/β for %v: %w", alg, err)
	}
	return fitAlphaBeta(pr, alg, g, cfg, measured)
}

// fitAlphaBeta solves the Fig. 4 system for one algorithm from its
// measured §4.2 grid (measured[i] is the cfg.Sizes[i] experiment).
func fitAlphaBeta(pr cluster.Profile, alg coll.BcastAlgorithm, g model.Gamma, cfg AlphaBetaConfig, measured []experiment.Result) (AlphaBetaResult, error) {
	eqs := make([]Equation, len(cfg.Sizes))
	for i, m := range cfg.Sizes {
		ab, bb := model.Coefficients(alg, cfg.Procs, m, pr.SegmentSize, g)
		ag, bg := model.GatherLinearCoefficients(cfg.Procs, cfg.GatherBytes)
		eqs[i] = Equation{
			MsgBytes:    m,
			GatherBytes: cfg.GatherBytes,
			A:           ab + ag,
			B:           bb + bg,
			T:           measured[i].Meas.Mean,
		}
	}
	return solve(alg.String(), eqs, cfg.Metrics)
}

// solve fits the Hockney parameters of the named algorithm to its system
// of equations a_i·α + b_i·β = T_i. Metrics, if non-nil, receives a fit
// span, the Huber iteration count and the residual norm, labelled by
// name.
func solve(name string, eqs []Equation, metrics *obs.Registry) (AlphaBetaResult, error) {
	sp := metrics.Span(obs.Name("estimate_fit", "alg", name))
	defer sp.End()
	xs := make([]float64, len(eqs))
	ys := make([]float64, len(eqs))
	for i, eq := range eqs {
		if eq.A <= 0 {
			return AlphaBetaResult{}, fmt.Errorf("estimate: degenerate coefficient a=%v for %s at m=%d", eq.A, name, eq.MsgBytes)
		}
		// Canonical form: α + β·(B/A) = T/A.
		xs[i] = eq.B / eq.A
		ys[i] = eq.T / eq.A
	}
	// Huber regression on relative residuals: the experiment times span
	// three decades across the message grid, and relative weighting keeps
	// the small-message equations (which pin down α) from being drowned by
	// the large-message ones (which pin down β).
	fit, err := stats.RelativeHuberRegression(xs, ys)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	if metrics != nil {
		metrics.Gauge(obs.Name("estimate_fit_iterations", "alg", name)).Set(float64(fit.Iterations))
		// Residual norm on the relative scale the regression minimised:
		// sqrt(mean((r_i / y_i)^2)) over the canonical-form equations.
		var ss float64
		for i, r := range fit.Residuals(xs, ys) {
			rel := r / ys[i]
			ss += rel * rel
		}
		metrics.Gauge(obs.Name("estimate_fit_residual_norm", "alg", name)).Set(math.Sqrt(ss / float64(len(xs))))
	}
	res := AlphaBetaResult{
		Equations: eqs,
		Fit:       fit,
		Params:    model.Hockney{Alpha: fit.Intercept, Beta: fit.Slope},
	}
	// Timing experiments cannot produce negative costs; clamp tiny
	// negative intercepts that the regression may emit when α is far
	// below the resolution of the experiments (the paper's fitted α are
	// as small as 1e-13 s).
	if res.Params.Alpha < 0 {
		res.Params.Alpha = 0
	}
	if res.Params.Beta < 0 {
		res.Params.Beta = 0
	}
	return res, nil
}

// Models runs the full §4 pipeline for a platform: γ estimation followed
// by per-algorithm α/β estimation for every broadcast algorithm, producing
// the BcastModels used by the run-time selector.
//
// The whole calibration is dispatched as one sweep: the γ(P) experiments
// and every algorithm's per-size experiments are measurement-independent
// (γ only enters the coefficient computation after the fact), so all
// (maxP-1) + algorithms × sizes grid points fan out over cfg.Workers at
// once. Results are bit-identical to the serial pipeline.
func Models(pr cluster.Profile, cfg AlphaBetaConfig) (model.BcastModels, GammaResult, error) {
	return ModelsCtx(context.Background(), pr, cfg)
}

// ModelsCtx is Models with cancellation: a cancelled ctx stops the
// calibration sweep promptly.
func ModelsCtx(ctx context.Context, pr cluster.Profile, cfg AlphaBetaConfig) (model.BcastModels, GammaResult, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return model.BcastModels{}, GammaResult{}, err
	}
	maxP, err := gammaMaxP(pr)
	if err != nil {
		return model.BcastModels{}, GammaResult{}, err
	}
	algs := coll.BcastAlgorithms()
	points := gammaPoints(pr, maxP)
	gammaN := len(points)
	for _, alg := range algs {
		points = append(points, alphaBetaPoints(pr, alg, cfg)...)
	}
	measured, err := cfg.sweep(pr).Run(ctx, points)
	if err != nil {
		return model.BcastModels{}, GammaResult{}, fmt.Errorf("estimate: calibration: %w", err)
	}
	gr, err := gammaFromResults(maxP, measured[:gammaN])
	if err != nil {
		return model.BcastModels{}, GammaResult{}, err
	}
	bm := model.BcastModels{
		Cluster: pr.Name,
		SegSize: pr.SegmentSize,
		Gamma:   gr.Gamma,
		Params:  make(map[coll.BcastAlgorithm]model.Hockney, len(algs)),
	}
	for i, alg := range algs {
		ab, err := fitAlphaBeta(pr, alg, gr.Gamma, cfg, measured[gammaN+i*len(cfg.Sizes):gammaN+(i+1)*len(cfg.Sizes)])
		if err != nil {
			return model.BcastModels{}, GammaResult{}, err
		}
		bm.Params[alg] = ab.Params
	}
	return bm, gr, nil
}

// CalibrationPoints returns the size of the measurement grids a full
// calibration of pr under cfg runs: the ModelsCtx sweep plus one
// AlphaBetaFamily sweep per named extended family. Progress observers
// spanning all of those sweeps use it as their total.
func CalibrationPoints(pr cluster.Profile, cfg AlphaBetaConfig, families []string) (int, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return 0, err
	}
	maxP, err := gammaMaxP(pr)
	if err != nil {
		return 0, err
	}
	specs := len(coll.BcastAlgorithms())
	fams := AllSpecFamilies()
	for _, name := range families {
		f, ok := fams[name]
		if !ok {
			return 0, fmt.Errorf("estimate: unknown collective family %q", name)
		}
		specs += len(f)
	}
	return maxP - 1 + specs*len(cfg.Sizes), nil
}
