package experiment

import (
	"fmt"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/mpi"
)

// Composed chains stages into a single operation: every rank executes the
// stages back to back within one repetition, exactly as if they were
// written inline in one Op. The composition is what the performance
// guidelines of Hunold & Carpen-Amarie compare collectives against —
// Bcast(m) ≾ Scatter(m)+Allgather(m) is "a broadcast must not lose to the
// composition that implements it" — and what the paper's §4.2 estimation
// experiment (broadcast followed by a gather) is built from.
func Composed(stages ...Op) Op {
	if len(stages) == 1 {
		return stages[0]
	}
	return func(p *mpi.Proc) {
		for _, stage := range stages {
			stage(p)
		}
	}
}

// MeasureComposed measures the chained stages on a reusable Runner built
// from pr (see NewRunnerPool): one adaptive measurement of the whole
// chain in the given mode. At least one stage is required.
// timingIndependent declares that no stage reads Proc.Now or received
// sizes, or carries payload: the chain is then compiled goroutine-free
// (mpi.Runner.Compile) instead of captured under the scheduler and
// echo-validated, with bit-identical samples either way.
func MeasureComposed(r *mpi.Runner, pr cluster.Profile, nprocs int, set Settings, mode Mode, timingIndependent bool, stages ...Op) (Measurement, error) {
	if len(stages) == 0 {
		return Measurement{}, fmt.Errorf("experiment: composed measurement needs at least one stage")
	}
	if nprocs > pr.Nodes {
		return Measurement{}, fmt.Errorf("experiment: %d procs exceed %s's %d nodes", nprocs, pr.Name, pr.Nodes)
	}
	return measureOnEngine(r, nprocs, set, mode, Composed(stages...), timingIndependent)
}

// MeasureComposedClass is MeasureComposed with the timing-independence
// flag spelled as a class key: a non-empty classKey means "compile". tmpl
// is ignored.
//
// Deprecated: use MeasureComposed.
func MeasureComposedClass(r *mpi.Runner, pr cluster.Profile, nprocs int, set Settings, mode Mode, classKey string, tmpl *mpi.TemplateStore, stages ...Op) (Measurement, error) {
	return MeasureComposed(r, pr, nprocs, set, mode, classKey != "", stages...)
}
