package guideline

import (
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
)

// TestAtomsCompileMatchScheduler: every guideline measurement atom and
// composition is measured by a goroutine-free compile with no scheduler
// run. At 2 P × 2 m on grisou, a link-perturbed grisou and the
// dual-socket grisou, each must reproduce the scheduler engine's samples
// bit for bit, and each distinct measurement is compiled exactly once.
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
	} {
		atoms = append(atoms, set...)
	}
	atoms = append(atoms,
		atom{"scatter+allgather", measureScatterAllgather},
		atom{"reduce+bcast", measureReduceThenBcast},
		atom{"gather+bcast", measureGatherThenBcast},
	)
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 6, Warmup: 1}
	sched := set
	sched.Engine = experiment.EngineScheduler
	for _, pr := range []cluster.Profile{base, base.Perturbed(link), dual} {
		env := func(set experiment.Settings, reg *obs.Registry) *Env {
			net, err := pr.Network()
			if err != nil {
				t.Fatal(err)
			}
			return NewEnv(pr, set, mpi.NewRunnerOn(net, mpi.Options{Metrics: reg}))
		}
		reg := obs.NewRegistry()
		ref := env(sched, nil)
		compiled := env(set, reg)
		for _, procs := range []int{4, 8} {
			for _, m := range []int{8192, 262144} {
				cfg := Config{Profile: pr, Procs: procs, MsgBytes: m}
				for _, a := range atoms {
					label := fmt.Sprintf("%v %s", cfg, a.name)
					want, err := a.run(ref, cfg)
					if err != nil {
						t.Fatalf("%s: scheduler: %v", label, err)
					}
					got, err := a.run(compiled, cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(got.Samples) != len(want.Samples) || got.Mean != want.Mean {
						t.Fatalf("%s: mean %x over %d samples, scheduler %x over %d", label, got.Mean, len(got.Samples), want.Mean, len(want.Samples))
					}
					for i := range want.Samples {
						if got.Samples[i] != want.Samples[i] {
							t.Fatalf("%s: sample %d: %x, scheduler %x", label, i, got.Samples[i], want.Samples[i])
						}
					}
				}
			}
		}
		if runs := reg.Counter("mpi_runs_total").Value(); runs != 0 {
			t.Errorf("%s: %d scheduler runs on the compile path, want 0", pr.Name, runs)
		}
		measured := 0
		compiled.plat.memo.Range(func(_, _ any) bool { measured++; return true })
		if n := reg.Counter("experiment_plan_compiles_total").Value(); n != int64(measured) {
			t.Errorf("%s: %d compiles for %d distinct measurements", pr.Name, n, measured)
		}
	}
}
