package mpicollperf

import (
	"context"

	"mpicollperf/internal/core"
)

// Option configures a Calibrate call. Options compose freely and their
// order does not matter; the zero configuration (no options) reproduces
// the paper's defaults on the given platform.
type Option func(*options)

// options accumulates the effect of a Calibrate call's Options. The
// engine is tracked separately from the settings so WithEngine and
// WithMeasureSettings compose in either order.
type options struct {
	cfg          CalibrationConfig
	engine       Engine
	engineSet    bool
	perturbation *PerturbationSpec
}

// WithProcs sets the number of processes the calibration experiments use
// (default: half the platform, minimum 4).
func WithProcs(n int) Option {
	return func(o *options) { o.cfg.Procs = n }
}

// WithSizes sets the broadcast message sizes of the calibration grid
// (default: the paper's 10 log-spaced sizes from 8 KB to 4 MB).
func WithSizes(sizes ...int) Option {
	return func(o *options) { o.cfg.Sizes = sizes }
}

// WithWorkers bounds the measurement concurrency of the calibration
// sweep. 0 (the default) means GOMAXPROCS; 1 reproduces the serial path.
// The effective count is clamped to GOMAXPROCS — measurements are pure
// CPU, so oversubscribing cores only adds overhead — which makes any
// value safe to pass. Concurrency never changes the fitted parameters.
func WithWorkers(n int) Option {
	return func(o *options) { o.cfg.Workers = n }
}

// WithCache attaches a measurement cache: already-measured grid points
// are served from it, and fresh measurements fill it.
func WithCache(c *MeasurementCache) Option {
	return func(o *options) { o.cfg.Cache = c }
}

// WithEngine selects the measurement execution engine (default
// EngineAuto). Engines are bit-identical in their results; EngineReplay
// additionally asserts that the replay fast path is taken.
func WithEngine(e Engine) Option {
	return func(o *options) { o.engine, o.engineSet = e, true }
}

// WithPerturbation calibrates on the platform degraded by spec instead of
// the quiet platform — the scenario of the robustness experiments. A nil
// spec is a no-op.
func WithPerturbation(spec *PerturbationSpec) Option {
	return func(o *options) { o.perturbation = spec }
}

// WithMeasureSettings overrides the adaptive measurement loop's
// parameters. The zero value of each field falls back to its default
// (DefaultMeasureSettings documents them); the Engine field is ignored —
// use WithEngine.
func WithMeasureSettings(set MeasureSettings) Option {
	return func(o *options) {
		engine := o.cfg.Settings.Engine
		o.cfg.Settings = set
		o.cfg.Settings.Engine = engine
	}
}

// WithMetrics attaches a metrics registry: the calibration records sweep,
// cache, engine, and fit metrics into it (see internal/obs). Metrics are
// purely observational — calibrations are bit-identical with or without
// a registry attached.
func WithMetrics(m *MetricsRegistry) Option {
	return func(o *options) { o.cfg.Metrics = m }
}

// Calibrate runs the paper's offline estimation pipeline (§4) on a
// platform and returns a ready selector. A cancelled ctx stops the
// calibration sweep promptly. With no options it reproduces the paper's
// methodology; see the With* options for workers, caching, engine
// selection, perturbation, measurement settings, and metrics.
func Calibrate(ctx context.Context, pr Profile, opts ...Option) (*Selector, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.engineSet {
		o.cfg.Settings.Engine = o.engine
	}
	if o.perturbation != nil {
		pr = pr.Perturbed(o.perturbation)
	}
	return core.CalibrateCtx(ctx, pr, o.cfg)
}
