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

// CollectiveSpec is one algorithm of a collective family, as the §4.2
// procedure calibrates it: any collective whose implementation-derived
// model is linear in (α, β) is calibrated by measuring it over a size
// grid and solving the resulting system. Broadcast (BcastSpecs) is the
// paper's case; the extended families carry the method to the other
// collectives, as the paper's conclusion projects.
//
// The embedded Stage is what the calibration sweep measures: Name
// identifies the experiment, e.g. "allgather/ring"; Run executes one
// instance on every rank, with m the same size parameter passed to
// Coefficients; Mode is Completion for the extended families, whose
// operations involve every rank symmetrically, and RootTime for the
// broadcast experiments; TimingIndependent makes the sweep replay its
// points from a single compile, skipping the verify pass (every shipped
// spec sets it).
type CollectiveSpec struct {
	experiment.Stage
	// Coefficients returns the (a, b) of T = a·α + b·β for the operation
	// at the given process count and size parameter.
	Coefficients func(P, m, segSize int, g model.Gamma) (a, b float64)
}

// AlphaBetaFamily estimates the Hockney parameters of every spec (an
// extended collective family, typically) with a known γ, in one
// measurement sweep: the specs × sizes grid fans out over cfg.Workers,
// with cfg.Cache, cfg.Progress and cfg.Metrics applying as in Calibrate.
// The results, indexed like specs, are bit-identical to measuring each
// point serially on a fresh simulator. A cancelled ctx stops the sweep
// after each worker's current point.
func AlphaBetaFamily(ctx context.Context, pr cluster.Profile, specs []CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) ([]AlphaBetaResult, error) {
	_, fits, err := calibrate(ctx, pr, cfg, &g, specs)
	return fits, err
}

// specFamily builds a family's specs, one per algorithm in algs order:
// stage(alg) is the experiment the sweep measures and coef the (a, b) of
// alg's model. It is the one place every shipped spec is declared
// timing-independent.
func specFamily[A any](algs []A, stage func(A) experiment.Stage, coef func(alg A, P, m, segSize int, g model.Gamma) (a, b float64)) []CollectiveSpec {
	specs := make([]CollectiveSpec, len(algs))
	for i, alg := range algs {
		specs[i].Stage = stage(alg)
		specs[i].TimingIndependent = true
		specs[i].Coefficients = func(P, m, segSize int, g model.Gamma) (float64, float64) {
			return coef(alg, P, m, segSize, g)
		}
	}
	return specs
}

// opStage returns the Completion-mode stage "op/<alg>" of each algorithm,
// running run(alg, ...) on every rank.
func opStage[A fmt.Stringer](op string, run func(alg A, p *mpi.Proc, m, segSize int)) func(A) experiment.Stage {
	return func(alg A) experiment.Stage {
		return experiment.Stage{
			Name: op + "/" + alg.String(),
			Run:  func(p *mpi.Proc, m, segSize int) { run(alg, p, m, segSize) },
		}
	}
}

// rootBuf is a rooted collective's buffer: P blocks of m bytes on the
// root (rank 0), one block elsewhere.
func rootBuf(p *mpi.Proc, m int) coll.Msg {
	if p.Rank() == 0 {
		return coll.Synthetic(m * p.Size())
	}
	return coll.Synthetic(m)
}

// BcastSpecs returns the paper's §4.2 estimation specs for every
// broadcast algorithm, in coll.BcastAlgorithms order: the broadcast
// followed by a linear-without-synchronisation gather of gatherBytes
// (m_g) per rank, timed on the root (experiment.BcastThenGatherStage).
// Each experiment's coefficients are the algorithm's plus the gather's
// (Formula 8); the size parameter m is the broadcast message size.
func BcastSpecs(gatherBytes int) []CollectiveSpec {
	return specFamily(coll.BcastAlgorithms(), func(alg coll.BcastAlgorithm) experiment.Stage {
		return *experiment.BcastThenGatherStage(alg, gatherBytes)
	}, func(alg coll.BcastAlgorithm, P, m, segSize int, g model.Gamma) (float64, float64) {
		ab, bb := model.Coefficients(alg, P, m, segSize, g)
		ag, bg := model.GatherLinearCoefficients(P, gatherBytes)
		return ab + ag, bb + bg
	})
}

// AllgatherSpecs returns estimation specs for every allgather algorithm;
// the size parameter m is the per-rank block size.
func AllgatherSpecs() []CollectiveSpec {
	return specFamily(coll.AllgatherAlgorithms(), opStage("allgather", func(alg coll.AllgatherAlgorithm, p *mpi.Proc, m, _ int) {
		coll.Allgather(p, alg, coll.Synthetic(m*p.Size()), m)
	}), model.AllgatherCoefficients)
}

// AllreduceSpecs returns estimation specs for every allreduce algorithm;
// the size parameter m is the vector length in bytes.
func AllreduceSpecs() []CollectiveSpec {
	return specFamily(coll.AllreduceAlgorithms(), opStage("allreduce", func(alg coll.AllreduceAlgorithm, p *mpi.Proc, m, segSize int) {
		coll.Allreduce(p, alg, coll.Synthetic(m), nil, segSize)
	}), model.AllreduceCoefficients)
}

// ReduceSpecs returns estimation specs for every reduce algorithm; the
// size parameter m is the vector length in bytes.
func ReduceSpecs() []CollectiveSpec {
	return specFamily(coll.ReduceAlgorithms(), opStage("reduce", func(alg coll.ReduceAlgorithm, p *mpi.Proc, m, segSize int) {
		coll.Reduce(p, alg, 0, coll.Synthetic(m), nil, segSize)
	}), model.ReduceCoefficients)
}

// GatherSpecs returns estimation specs for every gather algorithm; the
// size parameter m is the per-rank block size.
func GatherSpecs() []CollectiveSpec {
	return specFamily(coll.GatherAlgorithms(), opStage("gather", func(alg coll.GatherAlgorithm, p *mpi.Proc, m, _ int) {
		coll.Gather(p, alg, 0, rootBuf(p, m), m)
	}), func(alg coll.GatherAlgorithm, P, m, _ int, g model.Gamma) (float64, float64) {
		return model.GatherCoefficients(alg, P, m, g)
	})
}

// ScatterSpecs returns estimation specs for every scatter algorithm; the
// size parameter m is the per-rank block size.
func ScatterSpecs() []CollectiveSpec {
	return specFamily(coll.ScatterAlgorithms(), opStage("scatter", func(alg coll.ScatterAlgorithm, p *mpi.Proc, m, _ int) {
		coll.Scatter(p, alg, 0, rootBuf(p, m), m)
	}), func(alg coll.ScatterAlgorithm, P, m, _ int, g model.Gamma) (float64, float64) {
		return model.ScatterCoefficients(alg, P, m, g)
	})
}

// ReduceScatterSpecs returns estimation specs for every reduce-scatter
// algorithm; the size parameter m is the per-rank block size.
func ReduceScatterSpecs() []CollectiveSpec {
	return specFamily(coll.ReduceScatterAlgorithms(), opStage("reduce_scatter", func(alg coll.ReduceScatterAlgorithm, p *mpi.Proc, m, _ int) {
		coll.ReduceScatter(p, alg, coll.Synthetic(m*p.Size()), nil, m)
	}), model.ReduceScatterCoefficients)
}

// AlltoallSpecs returns estimation specs for every alltoall algorithm; the
// size parameter m is the per-pair block size.
func AlltoallSpecs() []CollectiveSpec {
	return specFamily(coll.AlltoallAlgorithms(), opStage("alltoall", func(alg coll.AlltoallAlgorithm, p *mpi.Proc, m, _ int) {
		n := m * p.Size()
		coll.Alltoall(p, alg, coll.Synthetic(n), coll.Synthetic(n), m)
	}), func(alg coll.AlltoallAlgorithm, P, m, _ int, g model.Gamma) (float64, float64) {
		return model.AlltoallCoefficients(alg, P, m, g)
	})
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
