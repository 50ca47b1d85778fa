package selection

import (
	"math"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
)

// measureExtended measures one spec's operation in Completion mode.
func measureExtended(t *testing.T, pr cluster.Profile, spec estimate.CollectiveSpec, P, m int) float64 {
	t.Helper()
	net, err := pr.Network()
	if err != nil {
		t.Fatal(err)
	}
	meas, err := experiment.Measure(net, P, fastSettings(), experiment.Completion, func(p *mpi.Proc) {
		spec.Run(p, m, pr.SegmentSize)
	})
	if err != nil {
		t.Fatal(err)
	}
	return meas.Mean
}

func extendedHarness(t *testing.T, specs []estimate.CollectiveSpec, sizes []int, worstTol float64) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := estimate.Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := estimate.AlphaBetaConfig{Procs: 16, Sizes: sizes, Settings: fastSettings()}
	sel, err := CalibrateExtended(pr, specs, gr.Gamma, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction accuracy per algorithm at a held-out size, and selection
	// quality: the picked algorithm must be within worstTol of the
	// measured best.
	held := (sizes[1] + sizes[2]) / 2
	times := make([]float64, len(specs))
	bestT := math.Inf(1)
	for i, spec := range specs {
		times[i] = measureExtended(t, pr, spec, 16, held)
		if times[i] < bestT {
			bestT = times[i]
		}
		pred := sel.Predict(i, 16, held)
		if rel := math.Abs(pred/times[i] - 1); rel > 0.6 {
			t.Errorf("%s: prediction %v vs measured %v (%.0f%% off)", spec.Name, pred, times[i], rel*100)
		}
	}
	pick, name := sel.Best(16, held)
	if deg := times[pick]/bestT - 1; deg > worstTol {
		t.Errorf("selected %s degrades %.0f%% vs best", name, deg*100)
	}
}

func TestExtendedSelectorAllgather(t *testing.T) {
	extendedHarness(t, estimate.AllgatherSpecs(), []int{1024, 8192, 65536, 262144}, 0.25)
}

func TestExtendedSelectorAllreduce(t *testing.T) {
	extendedHarness(t, estimate.AllreduceSpecs(), []int{8192, 65536, 524288, 2 << 20}, 0.25)
}

func TestExtendedSelectorAlltoall(t *testing.T) {
	extendedHarness(t, estimate.AlltoallSpecs(), []int{512, 4096, 32768, 131072}, 0.25)
}

func TestExtendedSelectorValidation(t *testing.T) {
	pr, _ := cluster.Grisou().WithNodes(8)
	gr, err := estimate.Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateExtended(pr, nil, gr.Gamma, estimate.AlphaBetaConfig{}); err == nil {
		t.Fatal("empty specs should fail")
	}
	if _, err := CalibrateExtended(pr, []estimate.CollectiveSpec{{Stage: experiment.Stage{Name: "x"}}}, gr.Gamma,
		estimate.AlphaBetaConfig{Procs: 4, Sizes: []int{1024, 2048}, Settings: fastSettings()}); err == nil {
		t.Fatal("incomplete spec should fail")
	}
}

func TestExtendedSpecNames(t *testing.T) {
	for _, specs := range [][]estimate.CollectiveSpec{
		estimate.AllgatherSpecs(), estimate.AllreduceSpecs(), estimate.AlltoallSpecs(),
	} {
		for _, s := range specs {
			if !strings.Contains(s.Name, "/") {
				t.Errorf("spec name %q should be family/algorithm", s.Name)
			}
			if s.Run == nil || s.Coefficients == nil {
				t.Errorf("spec %q incomplete", s.Name)
			}
		}
	}
}

// TestExtendedSelectionCrossover checks a qualitative law the models must
// express: for allreduce, recursive doubling (latency-optimal) wins for
// small vectors while the ring (bandwidth-optimal) wins for large ones.
func TestExtendedSelectionCrossover(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := estimate.Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	specs := estimate.AllreduceSpecs()
	cfg := estimate.AlphaBetaConfig{Procs: 16, Sizes: []int{8192, 65536, 524288, 2 << 20}, Settings: fastSettings()}
	sel, err := CalibrateExtended(pr, specs, gr.Gamma, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, smallPick := sel.Best(16, 1024)
	_, largePick := sel.Best(16, 8<<20)
	if smallPick == largePick {
		t.Fatalf("no crossover: %s picked for both 1KB and 8MB", smallPick)
	}
	if !strings.Contains(largePick, "ring") {
		t.Errorf("8MB allreduce should pick the ring, got %s", largePick)
	}
	// And the picks must be measurably right.
	for _, c := range []struct {
		m    int
		pick string
	}{{1024, smallPick}, {8 << 20, largePick}} {
		bestT := math.Inf(1)
		var pickT float64
		for _, spec := range specs {
			tm := measureExtended(t, pr, spec, 16, c.m)
			if tm < bestT {
				bestT = tm
			}
			if spec.Name == c.pick {
				pickT = tm
			}
		}
		if pickT > 1.3*bestT {
			t.Errorf("m=%d: pick %s measured %v vs best %v", c.m, c.pick, pickT, bestT)
		}
	}
}
