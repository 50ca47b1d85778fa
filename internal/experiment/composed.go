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

// MeasureComposedClass measures the chained stages on a reusable Runner
// built from pr (see NewRunnerPool): one adaptive measurement of the whole
// chain in the given mode. At least one stage is required. When classKey
// is non-empty and tmpl is non-nil, the first measured composition of the
// class captures its plan under the scheduler and publishes it to tmpl,
// and every later measurement of the class rebinds that template
// goroutine-free (mpi.Runner.Rebind) — with bit-identical samples either
// way. The class key must identify the composition's communication
// *structure* (ranks, peers, tags, segment counts), never its byte
// counts, which the rebind harvests per point; a too-coarse key is safe
// (the rebind detects divergence and falls back to a fresh capture) but
// wastes the fast path.
func MeasureComposedClass(r *mpi.Runner, pr cluster.Profile, nprocs int, set Settings, mode Mode, classKey string, tmpl *mpi.TemplateStore, stages ...Op) (Measurement, error) {
	if len(stages) == 0 {
		return Measurement{}, fmt.Errorf("experiment: composed measurement needs at least one stage")
	}
	if nprocs > pr.Nodes {
		return Measurement{}, fmt.Errorf("experiment: %d procs exceed %s's %d nodes", nprocs, pr.Name, pr.Nodes)
	}
	cls := planClass{}
	if tmpl != nil && classKey != "" {
		cls = planClass{key: classKey, store: tmpl}
	}
	return measureOnClass(r, nprocs, set, mode, Composed(stages...), cls)
}
