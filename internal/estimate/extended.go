package estimate

import (
	"context"
	"fmt"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
)

// CollectiveSpec generalises the paper's per-algorithm estimation beyond
// broadcast: any collective whose implementation-derived model is linear
// in (α, β) can be calibrated by measuring it over a size grid and solving
// the resulting system — the extension the paper's conclusion projects.
//
// The embedded Stage is what the calibration sweep measures: Name
// identifies the (collective, algorithm) pair, e.g. "allgather/ring"; Run
// executes one instance on every rank, with m the same size parameter
// passed to Coefficients; TimingIndependent makes the sweep replay its
// points from a single compile, skipping the verify pass (every shipped
// spec sets it).
// The spec's points are measured in Completion mode, the zero Mode.
type CollectiveSpec struct {
	experiment.Stage
	// Coefficients returns the (a, b) of T = a·α + b·β for the operation
	// at the given process count and size parameter.
	Coefficients func(P, m, segSize int, g model.Gamma) (a, b float64)
}

// AlphaBetaCollective estimates the algorithm-specific Hockney parameters
// for an arbitrary collective, measuring complete executions over the
// configured size grid. It is AlphaBetaFamily for a single spec.
func AlphaBetaCollective(pr cluster.Profile, spec CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) (AlphaBetaResult, error) {
	res, err := AlphaBetaFamily(context.Background(), pr, []CollectiveSpec{spec}, g, cfg)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	return res[0], nil
}

// AlphaBetaFamily estimates the Hockney parameters of every spec (an
// extended collective family, typically) in one measurement sweep: the
// specs × sizes grid fans out over cfg.Workers, with cfg.Cache,
// cfg.Progress and cfg.Metrics applying as in the broadcast
// calibration. Every point measures a complete execution in Completion
// mode — the operations involve every rank symmetrically, so there is no
// root-only finish to exploit. The results, indexed like specs, are
// bit-identical to measuring each point serially on a fresh simulator. A
// cancelled ctx stops the sweep within one point per worker.
func AlphaBetaFamily(ctx context.Context, pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) ([]AlphaBetaResult, error) {
	cfg, err := cfg.withDefaults(pr)
	if err != nil {
		return nil, err
	}
	n := len(cfg.Sizes)
	points := make([]experiment.Point, 0, len(specs)*n)
	for i, spec := range specs {
		if spec.Coefficients == nil || spec.Run == nil {
			return nil, fmt.Errorf("estimate: incomplete spec %q", spec.Name)
		}
		st := &specs[i].Stage
		for _, m := range cfg.Sizes {
			points = append(points, experiment.Point{Stage: st, Procs: cfg.Procs, MsgBytes: m, SegSize: pr.SegmentSize})
		}
	}
	measured, err := cfg.sweep(pr).Run(ctx, points)
	if err != nil {
		return nil, fmt.Errorf("estimate: extended calibration: %w", err)
	}
	out := make([]AlphaBetaResult, len(specs))
	for i, spec := range specs {
		eqs := make([]Equation, n)
		for j, m := range cfg.Sizes {
			a, b := spec.Coefficients(cfg.Procs, m, pr.SegmentSize, g)
			eqs[j] = Equation{MsgBytes: m, A: a, B: b, T: measured[i*n+j].Meas.Mean}
		}
		if out[i], err = solve(spec.Name, eqs, cfg.Metrics); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AllgatherSpecs returns estimation specs for every allgather algorithm;
// the size parameter m is the per-rank block size.
func AllgatherSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AllgatherAlgorithms()))
	for _, alg := range coll.AllgatherAlgorithms() {
		name := "allgather/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					coll.Allgather(p, alg, coll.Synthetic(m*p.Size()), m)
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AllgatherCoefficients(alg, P, m, segSize, g)
			},
		})
	}
	return specs
}

// AllreduceSpecs returns estimation specs for every allreduce algorithm;
// the size parameter m is the vector length in bytes.
func AllreduceSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AllreduceAlgorithms()))
	for _, alg := range coll.AllreduceAlgorithms() {
		name := "allreduce/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					coll.Allreduce(p, alg, coll.Synthetic(m), nil, segSize)
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AllreduceCoefficients(alg, P, m, segSize, g)
			},
		})
	}
	return specs
}

// ReduceSpecs returns estimation specs for every reduce algorithm; the
// size parameter m is the vector length in bytes.
func ReduceSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ReduceAlgorithms()))
	for _, alg := range coll.ReduceAlgorithms() {
		name := "reduce/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					coll.Reduce(p, alg, 0, coll.Synthetic(m), nil, segSize)
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ReduceCoefficients(alg, P, m, segSize, g)
			},
		})
	}
	return specs
}

// GatherSpecs returns estimation specs for every gather algorithm; the
// size parameter m is the per-rank block size.
func GatherSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.GatherAlgorithms()))
	for _, alg := range coll.GatherAlgorithms() {
		name := "gather/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					if p.Rank() == 0 {
						coll.Gather(p, alg, 0, coll.Synthetic(m*p.Size()), m)
					} else {
						coll.Gather(p, alg, 0, coll.Synthetic(m), m)
					}
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.GatherCoefficients(alg, P, m, g)
			},
		})
	}
	return specs
}

// ScatterSpecs returns estimation specs for every scatter algorithm; the
// size parameter m is the per-rank block size.
func ScatterSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ScatterAlgorithms()))
	for _, alg := range coll.ScatterAlgorithms() {
		name := "scatter/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					if p.Rank() == 0 {
						coll.Scatter(p, alg, 0, coll.Synthetic(m*p.Size()), m)
					} else {
						coll.Scatter(p, alg, 0, coll.Synthetic(m), m)
					}
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ScatterCoefficients(alg, P, m, g)
			},
		})
	}
	return specs
}

// ReduceScatterSpecs returns estimation specs for every reduce-scatter
// algorithm; the size parameter m is the per-rank block size.
func ReduceScatterSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.ReduceScatterAlgorithms()))
	for _, alg := range coll.ReduceScatterAlgorithms() {
		name := "reduce_scatter/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					coll.ReduceScatter(p, alg, coll.Synthetic(m*p.Size()), nil, m)
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.ReduceScatterCoefficients(alg, P, m, segSize, g)
			},
		})
	}
	return specs
}

// AllSpecFamilies returns every extended collective family, keyed by name.
func AllSpecFamilies() map[string][]CollectiveSpec {
	return map[string][]CollectiveSpec{
		"allgather":      AllgatherSpecs(),
		"allreduce":      AllreduceSpecs(),
		"alltoall":       AlltoallSpecs(),
		"reduce":         ReduceSpecs(),
		"gather":         GatherSpecs(),
		"scatter":        ScatterSpecs(),
		"reduce_scatter": ReduceScatterSpecs(),
	}
}

// AlltoallSpecs returns estimation specs for every alltoall algorithm; the
// size parameter m is the per-pair block size.
func AlltoallSpecs() []CollectiveSpec {
	specs := make([]CollectiveSpec, 0, len(coll.AlltoallAlgorithms()))
	for _, alg := range coll.AlltoallAlgorithms() {
		name := "alltoall/" + alg.String()
		specs = append(specs, CollectiveSpec{
			Stage: experiment.Stage{
				Name:              name,
				TimingIndependent: true,
				Run: func(p *mpi.Proc, m, segSize int) {
					n := m * p.Size()
					coll.Alltoall(p, alg, coll.Synthetic(n), coll.Synthetic(n), m)
				},
			},
			Coefficients: func(P, m, segSize int, g model.Gamma) (float64, float64) {
				return model.AlltoallCoefficients(alg, P, m, g)
			},
		})
	}
	return specs
}
