// Package mpicollperf reproduces "A New Model-Based Approach to
// Performance Comparison of MPI Collective Algorithms" (Nuriyev &
// Lastovetsky, PaCT 2021) as a self-contained Go library.
//
// The library bundles:
//
//   - a deterministic discrete-event cluster simulator standing in for the
//     paper's Grid'5000 Grisou and Gros testbeds;
//   - an MPI-like runtime and the six Open MPI 3.1 broadcast algorithms
//     (plus gather, scatter, reduce and barrier collectives);
//   - the paper's two contributions: implementation-derived analytical
//     models of the broadcast algorithms and per-algorithm estimation of
//     their Hockney parameters from collective communication experiments;
//   - three selectors — model-based (the paper's), Open MPI's fixed
//     decision function, and the measured oracle — and generators for
//     every table and figure of the paper's evaluation.
//
// This facade re-exports the high-level workflow — calibration with
// functional options (see Calibrate and the With* options), persistence,
// engine selection, perturbation, robustness scoring, and the metrics
// registry; power users can still reach the full machinery through the
// internal packages (the cmd tools and examples show how).
//
// Quick start:
//
//	profile := mpicollperf.Grisou()
//	sel, err := mpicollperf.Calibrate(context.Background(), profile)
//	if err != nil { ... }
//	choice, err := sel.Best(90, 1<<20) // which algorithm for 1 MB over 90 ranks?
//
// Beyond broadcast, Selector.BestFor(op, P, m) answers the same query for
// any calibrated collective family (see Collectives, CalibrateExtended);
// the mpicollperfd daemon serves both shapes over a versioned HTTP/JSON
// API (cmd/mpicollperfd, internal/serve).
package mpicollperf

import (
	"context"
	"fmt"
	"sort"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/selection"
)

// Daemon-facing sentinel errors (see internal/serve): match them with
// errors.Is to map selection failures to responses without string
// matching.
var (
	// ErrNotCalibrated reports a selection query against a (profile,
	// collective) pair that has no fitted models yet.
	ErrNotCalibrated = core.ErrNotCalibrated
	// ErrUnknownProfile reports a query referencing an unknown platform
	// profile.
	ErrUnknownProfile = core.ErrUnknownProfile
)

// Re-exported types: the calibrated selector and its inputs/outputs.
type (
	// Profile describes a simulated cluster platform.
	Profile = cluster.Profile
	// Selector is a calibrated run-time broadcast-algorithm selector.
	Selector = core.Selector
	// Choice is a selected algorithm plus segment size.
	Choice = selection.Choice
	// BcastAlgorithm identifies one of the six broadcast algorithms.
	BcastAlgorithm = coll.BcastAlgorithm
	// CalibrationConfig parameterises the offline estimation phase.
	CalibrationConfig = estimate.AlphaBetaConfig
	// MeasureSettings controls the adaptive measurement loop.
	MeasureSettings = experiment.Settings
	// Models bundles γ and per-algorithm Hockney parameters.
	Models = model.BcastModels
	// MeasurementCache is a content-addressed store of measurement
	// results; attach one with WithCache to make repeated calibrations of
	// the same platform skip already-measured grid points.
	MeasurementCache = experiment.Cache
	// Engine selects how measurement repetitions execute (attach with
	// WithEngine); all engines produce bit-identical results.
	Engine = experiment.Engine
	// PerturbationSpec is a deterministic platform degradation: stragglers,
	// link slowdowns, jitter, brownouts. Compose one onto a Profile with
	// Profile.Perturbed or calibrate under it with WithPerturbation.
	PerturbationSpec = perturb.Spec
	// MetricsRegistry collects the pipeline's counters, gauges, and
	// histogram/span metrics; attach one with WithMetrics and export it
	// with its WriteJSON/WritePrometheus/WriteTable methods.
	MetricsRegistry = obs.Registry
	// RobustnessConfig parameterises a Robustness sweep.
	RobustnessConfig = selection.RobustnessConfig
	// RobustnessReport scores the selectors over a perturbation-intensity
	// grid (render with its Render or CSV methods).
	RobustnessReport = selection.RobustnessReport
	// UnsupportedVersionError is returned by LoadCalibration for a model
	// file whose schema version this build does not understand.
	UnsupportedVersionError = core.UnsupportedVersionError
	// OpChoice is a collective-agnostic selection result — the winning
	// algorithm of one collective family for (P, m), as returned by
	// Selector.BestFor and served by the mpicollperfd daemon.
	OpChoice = core.OpChoice
	// ExtendedSelector applies the paper's model-based selection to any
	// collective family calibrated through CalibrateExtended — the
	// paper's future-work claim that the approach generalises beyond
	// broadcast.
	ExtendedSelector = selection.ExtendedSelector
	// CollectiveSpec describes one (collective, algorithm) pair of an
	// extended family: its implementation-derived model coefficients and
	// the operation to measure (see CollectiveSpecs).
	CollectiveSpec = estimate.CollectiveSpec
	// Gamma is the platform's estimated γ(P) function (Models.Gamma
	// carries the calibrated one).
	Gamma = model.Gamma
)

// OpBcast names the broadcast collective family in Selector.BestFor
// queries and daemon requests; Collectives lists the extended families.
const OpBcast = core.OpBcast

// NewMeasurementCache returns an in-memory measurement cache.
func NewMeasurementCache() *MeasurementCache { return experiment.NewCache() }

// NewDiskMeasurementCache returns a measurement cache persisted as JSON
// files under dir (created if missing), shared across process
// invocations.
func NewDiskMeasurementCache(dir string) (*MeasurementCache, error) {
	return experiment.NewDiskCache(dir)
}

// The six Open MPI 3.1 broadcast algorithms.
const (
	BcastLinear      = coll.BcastLinear
	BcastChain       = coll.BcastChain
	BcastKChain      = coll.BcastKChain
	BcastBinary      = coll.BcastBinary
	BcastSplitBinary = coll.BcastSplitBinary
	BcastBinomial    = coll.BcastBinomial
)

// The measurement execution engines (see Engine and WithEngine).
const (
	EngineAuto      = experiment.EngineAuto
	EngineScheduler = experiment.EngineScheduler
	EngineReplay    = experiment.EngineReplay
)

// ParseEngine parses an engine name ("auto", "scheduler", "replay"), as
// the cmd tools' -engine flags do.
func ParseEngine(s string) (Engine, error) { return experiment.ParseEngine(s) }

// NewMetricsRegistry returns an empty metrics registry for WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ParsePerturbation parses a perturbation spec from its textual form (the
// cmd tools' -perturb flag syntax, e.g.
// "straggler:node=3,cpu=2.0;link:src=0,dst=1,lat=1.5;jitter:uniform").
func ParsePerturbation(text string) (*PerturbationSpec, error) { return perturb.Parse(text) }

// RandomPerturbation generates a deterministic random perturbation of the
// given intensity in [0, 1] for a platform with nics network interfaces —
// the generator behind the robustness experiments. Same arguments, same
// spec.
func RandomPerturbation(seed int64, intensity float64, nics int) *PerturbationSpec {
	return perturb.Random(seed, intensity, nics)
}

// Robustness stress-tests a calibrated selector (and Open MPI's fixed
// one) on deterministically degraded versions of the platform, scoring
// each against the degraded oracle per perturbation intensity. The
// selector keeps deciding from its quiet-platform calibration — the
// deployment situation when a production cluster degrades under its
// tuning tables.
func Robustness(ctx context.Context, pr Profile, sel *Selector, cfg RobustnessConfig) (RobustnessReport, error) {
	return selection.Robustness(ctx, pr, selection.ModelBased{Models: sel.Models}, cfg)
}

// Grisou returns the simulated Grid'5000 Grisou platform (10 Gbps
// Ethernet, up to 90 processes).
func Grisou() Profile { return cluster.Grisou() }

// Gros returns the simulated Grid'5000 Gros platform (25 Gbps Ethernet,
// up to 124 processes).
func Gros() Profile { return cluster.Gros() }

// CustomCluster builds a platform from node count, one-way latency
// (seconds) and link bandwidth (bytes/second).
func CustomCluster(name string, nodes int, latency, bandwidthBps float64) (Profile, error) {
	return cluster.Custom(name, nodes, latency, bandwidthBps)
}

// LoadCalibration restores a selector from a JSON file written by
// Selector.SaveModels. A file with an unknown schema version is rejected
// with an *UnsupportedVersionError.
func LoadCalibration(pr Profile, path string) (*Selector, error) {
	return core.LoadModels(pr, path)
}

// OpenMPIDecision is Open MPI 3.1's hard-coded broadcast decision
// function, for comparison against a calibrated selector.
func OpenMPIDecision(P, m int) Choice { return selection.OpenMPIFixed(P, m) }

// DefaultMeasureSettings returns the paper's measurement methodology: 95%
// confidence, 2.5% precision.
func DefaultMeasureSettings() MeasureSettings { return experiment.DefaultSettings() }

// BcastAlgorithms lists the six algorithms in a stable order.
func BcastAlgorithms() []BcastAlgorithm { return coll.BcastAlgorithms() }

// Collectives lists every extended collective family CalibrateExtended
// and Selector.BestFor understand beyond OpBcast, sorted by name:
// allgather, allreduce, alltoall, gather, reduce, reduce_scatter,
// scatter.
func Collectives() []string {
	fams := estimate.AllSpecFamilies()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CollectiveSpecs returns the estimation specs of one extended collective
// family (every algorithm variant of the named collective), for
// CalibrateExtended.
func CollectiveSpecs(op string) ([]CollectiveSpec, error) {
	specs, ok := estimate.AllSpecFamilies()[op]
	if !ok {
		return nil, fmt.Errorf("mpicollperf: unknown collective family %q (have %v)", op, Collectives())
	}
	return specs, nil
}

// CalibrateExtended fits per-algorithm Hockney parameters for an extended
// collective family on a platform, reusing an already-estimated γ
// (typically Models.Gamma of a calibrated Selector), and returns a
// selector for that family — the generalisation of the paper's method
// beyond broadcast. The family's specs × sizes grid is measured as one
// sweep under cfg's Workers, Cache, Progress and Metrics. Selector.BestFor
// answers the same queries through the bundled shape the daemon serves.
func CalibrateExtended(pr Profile, specs []CollectiveSpec, g Gamma, cfg CalibrationConfig) (*ExtendedSelector, error) {
	return selection.CalibrateExtended(pr, specs, g, cfg)
}
