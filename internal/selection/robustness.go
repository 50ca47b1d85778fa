package selection

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
)

// Robustness experiment: the paper's selector comparison (Table 3) is run
// on a quiet, homogeneous platform. This file stress-tests the same
// selectors on degraded ones: for a grid of perturbation intensities, a
// deterministic random perturbation spec (perturb.Random) is composed
// onto the platform, the oracle re-ranks every algorithm on the degraded
// cluster, and each selector's penalty versus that oracle is scored. The
// selectors still decide from the *unperturbed* platform's knowledge —
// the model-based selector from models fitted on the quiet cluster, Open
// MPI from its hard-coded thresholds — which is exactly the deployment
// situation when a production cluster degrades under the tuning tables.

// RobustnessConfig parameterises a robustness sweep.
type RobustnessConfig struct {
	// P is the communicator size.
	P int
	// Sizes are the broadcast message sizes scored at each intensity.
	Sizes []int
	// Intensities is the perturbation intensity grid; 0 is the unperturbed
	// baseline and is allowed.
	Intensities []float64
	// Seed drives perturb.Random; the whole sweep is deterministic in it.
	Seed int64
	// Settings drive every measurement.
	Settings experiment.Settings
	// Workers bounds each sweep's worker pool (0 = GOMAXPROCS).
	Workers int
	// Cache, if non-nil, is shared by every intensity's sweep; perturbed
	// platforms never collide with quiet ones (the spec is part of the
	// platform identity, and so of the cache key).
	Cache *experiment.Cache
	// Metrics, if non-nil, receives each intensity's sweep counters plus
	// the selector-agreement tallies
	// selection_choices_total{selector,agrees} — how often each selector's
	// choice matched the degraded oracle's best algorithm. Scores are
	// bit-identical with or without it.
	Metrics *obs.Registry
}

// SelectorScore aggregates one selector's penalty over the message sizes
// of one perturbation intensity.
type SelectorScore struct {
	// MeanDegradation and MaxDegradation are the average and worst
	// percentage by which the selector's choice exceeded the oracle's best
	// time over the scored sizes.
	MeanDegradation float64
	MaxDegradation  float64
	// Wins counts scored sizes where the selector matched (or beat) the
	// oracle's best time.
	Wins int
}

// IntensityRow is the outcome of one perturbation intensity.
type IntensityRow struct {
	// Intensity is the perturbation intensity ε.
	Intensity float64
	// Spec is the generated perturbation ("none" when empty).
	Spec string
	// Model and OMPI score the model-based and Open MPI fixed selectors.
	Model SelectorScore
	OMPI  SelectorScore
	// Fallbacks tallies, per reason, measurements that fell back from the
	// replay engine to the scheduler during this intensity's sweep.
	Fallbacks map[experiment.FallbackReason]int
}

// RobustnessReport scores the selectors over a perturbation-intensity
// grid on one platform.
type RobustnessReport struct {
	Cluster string
	P       int
	Sizes   []int
	Seed    int64
	Rows    []IntensityRow
}

// Robustness runs the robustness sweep: for each intensity it composes
// the deterministic random spec onto pr, measures every algorithm at the
// platform segment size plus Open MPI's chosen configuration for every
// message size (one combined sweep per intensity), and scores both
// selectors against the degraded oracle. Same seed and config ⇒
// bit-identical report.
func Robustness(ctx context.Context, pr cluster.Profile, sel ModelBased, cfg RobustnessConfig) (RobustnessReport, error) {
	if cfg.P < 2 || cfg.P > pr.Nodes {
		return RobustnessReport{}, fmt.Errorf("selection: robustness P=%d outside 2..%d on %s", cfg.P, pr.Nodes, pr.Name)
	}
	if len(cfg.Sizes) == 0 || len(cfg.Intensities) == 0 {
		return RobustnessReport{}, fmt.Errorf("selection: robustness needs message sizes and intensities")
	}
	rep := RobustnessReport{Cluster: pr.Name, P: cfg.P, Sizes: cfg.Sizes, Seed: cfg.Seed}
	algs := coll.BcastAlgorithms()
	for _, intensity := range cfg.Intensities {
		spec := perturb.Random(cfg.Seed, intensity, pr.Net.NICs())
		prp := pr.Perturbed(spec)

		// One combined grid per intensity: the oracle's algorithms at the
		// platform segment size for every size, then Open MPI's choice (its
		// own algorithm and segment size) per size.
		points := experiment.BcastGrid(cfg.P, algs, cfg.Sizes, pr.SegmentSize)
		ompiAt := make([]int, len(cfg.Sizes))
		for i, m := range cfg.Sizes {
			oc := OpenMPIFixed(cfg.P, m)
			ompiAt[i] = len(points)
			points = append(points, experiment.Point{
				Stage: experiment.BcastStage(oc.Alg), Procs: cfg.P, MsgBytes: m, SegSize: oc.SegSize,
			})
		}
		sw := experiment.Sweep{Profile: prp, Settings: cfg.Settings, Workers: cfg.Workers, Cache: cfg.Cache, Metrics: cfg.Metrics}
		results, err := sw.Run(ctx, points)
		if err != nil {
			return RobustnessReport{}, fmt.Errorf("selection: robustness at ε=%g: %w", intensity, err)
		}

		row := IntensityRow{Intensity: intensity, Spec: spec.String(), Fallbacks: experiment.CountFallbacks(results)}
		for i, m := range cfg.Sizes {
			oracle := OracleResult{Times: make(map[coll.BcastAlgorithm]float64, len(algs))}
			bestT := math.Inf(1)
			for j, alg := range algs {
				t := results[i*len(algs)+j].Meas.Mean
				oracle.Times[alg] = t
				if t < bestT {
					bestT = t
					oracle.Best = alg
				}
			}
			mc, err := sel.Select(cfg.P, m)
			if err != nil {
				return RobustnessReport{}, err
			}
			countAgreement(cfg.Metrics, "model", mc.Alg == oracle.Best)
			countAgreement(cfg.Metrics, "ompi", OpenMPIFixed(cfg.P, m).Alg == oracle.Best)
			score(&row.Model, Degradation(oracle.Times[mc.Alg], bestT))
			score(&row.OMPI, Degradation(results[ompiAt[i]].Meas.Mean, bestT))
		}
		finishScore(&row.Model, len(cfg.Sizes))
		finishScore(&row.OMPI, len(cfg.Sizes))
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// countAgreement tallies one selector decision against the degraded
// oracle's best algorithm. The four labelled counters are precomputed so
// the scoring loop never rebuilds names.
var mAgreement = map[bool]map[string]string{}

func init() {
	for _, agrees := range []bool{false, true} {
		names := make(map[string]string, 2)
		for _, sel := range []string{"model", "ompi"} {
			names[sel] = obs.Name("selection_choices_total",
				"selector", sel, "agrees", fmt.Sprintf("%t", agrees))
		}
		mAgreement[agrees] = names
	}
}

func countAgreement(m *obs.Registry, selector string, agrees bool) {
	if m == nil {
		return
	}
	m.Counter(mAgreement[agrees][selector]).Inc()
}

// score accumulates one size's degradation into a SelectorScore
// (MeanDegradation holds the running sum until finishScore).
func score(s *SelectorScore, deg float64) {
	s.MeanDegradation += deg
	if deg > s.MaxDegradation {
		s.MaxDegradation = deg
	}
	if deg <= 0 {
		s.Wins++
	}
}

func finishScore(s *SelectorScore, n int) {
	s.MeanDegradation /= float64(n)
}

// Render formats the report as the experiment's text table.
func (r RobustnessReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Robustness: selector penalty vs oracle on %s (P=%d, %d sizes, seed %d)\n",
		r.Cluster, r.P, len(r.Sizes), r.Seed)
	fmt.Fprintf(&b, "%9s  %27s  %27s  %s\n", "ε", "model mean/max deg (wins)", "ompi mean/max deg (wins)", "spec")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%9.2f  %10.1f%% /%7.1f%% (%2d)  %10.1f%% /%7.1f%% (%2d)  %s\n",
			row.Intensity,
			row.Model.MeanDegradation, row.Model.MaxDegradation, row.Model.Wins,
			row.OMPI.MeanDegradation, row.OMPI.MaxDegradation, row.OMPI.Wins,
			row.Spec)
		if len(row.Fallbacks) > 0 {
			fmt.Fprintf(&b, "%9s  engine fallbacks: %s\n", "", renderFallbacks(row.Fallbacks))
		}
	}
	return b.String()
}

// CSV formats the report as a flat csv artifact (one row per intensity).
func (r RobustnessReport) CSV() string {
	var b strings.Builder
	b.WriteString("cluster,P,seed,intensity,model_mean_deg,model_max_deg,model_wins,ompi_mean_deg,ompi_max_deg,ompi_wins,spec\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%d,%d,%g,%.4f,%.4f,%d,%.4f,%.4f,%d,%q\n",
			r.Cluster, r.P, r.Seed, row.Intensity,
			row.Model.MeanDegradation, row.Model.MaxDegradation, row.Model.Wins,
			row.OMPI.MeanDegradation, row.OMPI.MaxDegradation, row.OMPI.Wins,
			row.Spec)
	}
	return b.String()
}

// renderFallbacks formats a fallback tally deterministically (sorted by
// reason).
func renderFallbacks(counts map[experiment.FallbackReason]int) string {
	reasons := make([]string, 0, len(counts))
	for r := range counts {
		reasons = append(reasons, string(r))
	}
	sort.Strings(reasons)
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = fmt.Sprintf("%s×%d", r, counts[experiment.FallbackReason(r)])
	}
	return strings.Join(parts, ", ")
}
