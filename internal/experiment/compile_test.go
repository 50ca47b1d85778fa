package experiment_test

import (
	"fmt"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/perturb"
)

// stageRepetition is one repetition of st at (m, seg) as the measurement
// harness's plans span it: open barrier, sample marks around the
// operation, the close barrier in Completion mode, and the decide
// barrier.
func stageRepetition(st *experiment.Stage, m, seg int) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		root := p.Rank() == 0
		p.Barrier()
		if root {
			p.Mark()
		}
		st.Run(p, m, seg)
		if st.Mode == experiment.Completion {
			p.Barrier()
		}
		if root {
			p.Mark()
		}
		p.Barrier()
		return nil
	}
}

// shippedStages lists every timing-independent stage the library
// measures: the
// broadcast stages of every algorithm (the linear γ(P) stage included),
// the §4.2 broadcast-then-gather stage, and every extended-family spec.
func shippedStages() []*experiment.Stage {
	var out []*experiment.Stage
	for _, alg := range coll.BcastAlgorithms() {
		out = append(out, experiment.BcastStage(alg), experiment.BcastThenGatherStage(alg, 1024))
	}
	for _, specs := range estimate.AllSpecFamilies() {
		for i := range specs {
			out = append(out, &specs[i].Stage)
		}
	}
	return out
}

// TestCompileEquivalentToCapture: every shipped stage is declared
// timing-independent, and for each at 2 P × 2 m, on grisou, a
// link-perturbed grisou and the dual-socket grisou, the goroutine-free
// compile of a repetition (on a second Runner) is EquivalentTo the plan
// the scheduler capture of that repetition compiles to — the measurement
// harness's capturing program, preamble and boundary mark included.
func TestCompileEquivalentToCapture(t *testing.T) {
	base, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	link, err := perturb.Parse("link:src=0,dst=5,lat=3,bw=4")
	if err != nil {
		t.Fatal(err)
	}
	dual, err := cluster.GrisouDualSocket().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	profiles := map[string]cluster.Profile{
		"grisou":         base,
		"grisou+link":    base.Perturbed(link),
		"grisou2-socket": dual,
	}
	stages := shippedStages()
	for name, pr := range profiles {
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		r := mpi.NewRunnerOn(net, mpi.Options{})
		cnet, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		c := mpi.NewRunnerOn(cnet, mpi.Options{})
		for _, st := range stages {
			if !st.TimingIndependent {
				t.Fatalf("%s: shipped stage is not declared timing-independent", st.Name)
			}
			for _, procs := range []int{5, 16} {
				for _, m := range []int{8192, 1 << 20} {
					label := fmt.Sprintf("%s %s P=%d m=%d", name, st.Name, procs, m)
					rep := stageRepetition(st, m, pr.SegmentSize)
					_, cap, err := r.RunCapture(procs, func(p *mpi.Proc) error {
						p.Barrier()
						p.Barrier()
						if p.Rank() == 0 {
							p.Mark()
						}
						return rep(p)
					})
					if err != nil {
						t.Fatalf("%s: capture: %v", label, err)
					}
					want, err := r.CompilePlan(cap, 0, -1)
					if err != nil {
						t.Fatalf("%s: plan: %v", label, err)
					}
					got, err := c.Compile(procs, rep)
					if err != nil {
						t.Fatalf("%s: compile: %v", label, err)
					}
					if !got.EquivalentTo(want) {
						t.Fatalf("%s: compiled plan is not equivalent to the captured one", label)
					}
				}
			}
		}
	}
}
