package guideline

import (
	"context"
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
)

// TestAtomsCompileMatchScheduler: every guideline measurement atom and
// composition is measured by a goroutine-free compile with no scheduler
// run. At 2 P × 2 m on grisou, a link-perturbed grisou and the
// dual-socket grisou, each point must reproduce the scheduler engine's
// samples bit for bit, and each distinct point is compiled exactly once.
func TestAtomsCompileMatchScheduler(t *testing.T) {
	base, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	link, err := perturb.Parse("link:src=0,dst=3,lat=3,bw=4")
	if err != nil {
		t.Fatal(err)
	}
	dual, err := cluster.GrisouDualSocket().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	var atoms []atom
	for _, set := range [][]atom{
		bcastAtoms(), scatterAtoms(), gatherAtoms(), allgatherAtoms(), alltoallAtoms(),
		reduceAtoms(), allreduceAtoms(), reduceScatterAtoms(),
		{scatterAllgather, reduceThenBcast, gatherThenBcast},
	} {
		atoms = append(atoms, set...)
	}
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 6, Warmup: 1}
	sched := set
	sched.Engine = experiment.EngineScheduler
	for _, pr := range []cluster.Profile{base, base.Perturbed(link), dual} {
		var points []experiment.Point
		var labels []string
		distinct := make(map[pointKey]bool)
		for _, procs := range []int{4, 8} {
			for _, m := range []int{8192, 262144} {
				cfg := Config{Profile: pr, Procs: procs, MsgBytes: m}
				for _, a := range atoms {
					pt := a.point(cfg)
					points = append(points, pt)
					labels = append(labels, fmt.Sprintf("%v %s", cfg, a.name))
					distinct[keyOf(pt)] = true
				}
			}
		}
		want, err := experiment.Sweep{Profile: pr, Settings: sched}.Run(context.Background(), points)
		if err != nil {
			t.Fatalf("%s: scheduler: %v", pr.Name, err)
		}
		reg := obs.NewRegistry()
		got, err := experiment.Sweep{Profile: pr, Settings: set, Metrics: reg}.Run(context.Background(), points)
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		for i, label := range labels {
			g, w := got[i].Meas, want[i].Meas
			if len(g.Samples) != len(w.Samples) || g.Mean != w.Mean {
				t.Fatalf("%s: mean %x over %d samples, scheduler %x over %d", label, g.Mean, len(g.Samples), w.Mean, len(w.Samples))
			}
			for j := range w.Samples {
				if g.Samples[j] != w.Samples[j] {
					t.Fatalf("%s: sample %d: %x, scheduler %x", label, j, g.Samples[j], w.Samples[j])
				}
			}
		}
		if runs := reg.Counter("mpi_runs_total").Value(); runs != 0 {
			t.Errorf("%s: %d scheduler runs on the compile path, want 0", pr.Name, runs)
		}
		if n := reg.Counter("experiment_plan_compiles_total").Value(); n != int64(len(distinct)) {
			t.Errorf("%s: %d compiles for %d distinct points", pr.Name, n, len(distinct))
		}
	}
}
