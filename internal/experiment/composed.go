package experiment

import (
	"fmt"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/mpi"
)

// Composed chains stages into a single operation: every rank executes the
// stages back to back within one repetition, exactly as if they were
// written inline in one Op.
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

// MeasureComposedClass measures the chained stages on a reusable Runner
// built from pr: one adaptive measurement of the whole chain in the given
// mode. At least one stage is required. A non-empty classKey declares the
// chain timing-independent (see Stage.TimingIndependent): its single
// compile is replayed without the verify pass, with bit-identical samples
// either way. tmpl is ignored.
//
// Deprecated: measure a Stage through Sweep, or an Op through MeasureOn.
func MeasureComposedClass(r *mpi.Runner, pr cluster.Profile, nprocs int, set Settings, mode Mode, classKey string, tmpl *mpi.TemplateStore, stages ...Op) (Measurement, error) {
	if len(stages) == 0 {
		return Measurement{}, fmt.Errorf("experiment: composed measurement needs at least one stage")
	}
	if nprocs > pr.Nodes {
		return Measurement{}, fmt.Errorf("experiment: %d procs exceed %s's %d nodes", nprocs, pr.Name, pr.Nodes)
	}
	return measureOnEngine(r, nprocs, set, mode, Composed(stages...), classKey != "")
}
