package hockney

import (
	"context"
	"math"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
)

func fastSettings() experiment.Settings {
	return experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}
}

func TestEstimatePingPongRecoversLinkParameters(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 4096, 65536, 262144, 1048576}
	par, err := EstimatePingPong(pr, sizes, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	// The simulator's point-to-point time is c' + m(G_s + G_r) with
	// c' = 47.5 µs and G_s + G_r = 1.6 ns/B on Grisou. Ping-pong recovers
	// them to within noise (uniform 0..3% on transmission time).
	if math.Abs(par.Alpha-47.5e-6) > 5e-6 {
		t.Fatalf("α = %v, want ≈ 47.5 µs", par.Alpha)
	}
	if math.Abs(par.Beta-1.6e-9) > 0.15e-9 {
		t.Fatalf("β = %v, want ≈ 1.6 ns/B", par.Beta)
	}
}

// TestEstimatePingPongCompiles: the ping-pong stage is timing-independent,
// so the default engine compiles every point with no scheduler run, and
// the estimate is bit-identical to the scheduler engine's.
func TestEstimatePingPongCompiles(t *testing.T) {
	sizes := []int{0, 8192, 65536, 524288}
	sched := fastSettings()
	sched.Engine = experiment.EngineScheduler
	for _, name := range []string{"grisou", "gros"} {
		pr, err := cluster.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if pr, err = pr.WithNodes(4); err != nil {
			t.Fatal(err)
		}
		want, err := EstimatePingPong(pr, sizes, sched)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimatePingPong(pr, sizes, fastSettings())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: default engine α/β = {%x, %x}, scheduler {%x, %x}", name, got.Alpha, got.Beta, want.Alpha, want.Beta)
		}
		points := make([]experiment.Point, len(sizes))
		for i, m := range sizes {
			points[i] = experiment.Point{Stage: pingPong, Procs: 2, MsgBytes: m}
		}
		reg := obs.NewRegistry()
		if _, err := (experiment.Sweep{Profile: pr, Settings: fastSettings(), Metrics: reg}).Run(context.Background(), points); err != nil {
			t.Fatal(err)
		}
		if runs := reg.Counter("mpi_runs_total").Value(); runs != 0 {
			t.Errorf("%s: %d scheduler runs, want 0", name, runs)
		}
		if n := reg.Counter("experiment_plan_compiles_total").Value(); n != int64(len(points)) {
			t.Errorf("%s: %d compiles for %d points", name, n, len(points))
		}
	}
}

func TestEstimatePingPongValidation(t *testing.T) {
	pr, _ := cluster.Grisou().WithNodes(2)
	if _, err := EstimatePingPong(pr, []int{8}, fastSettings()); err == nil {
		t.Fatal("one size should fail")
	}
	if _, err := EstimatePingPong(pr, []int{8, -2}, fastSettings()); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestTraditionalModelsBasicShape(t *testing.T) {
	par := Params{Alpha: 40e-6, Beta: 1.6e-9}
	const P, seg = 90, 8192
	for _, m := range []int{8192, 1 << 20, 4 << 20} {
		chain := TraditionalBcast(coll.BcastChain, par, P, m, seg)
		binom := TraditionalBcast(coll.BcastBinomial, par, P, m, seg)
		binary := TraditionalBcast(coll.BcastBinary, par, P, m, seg)
		if chain <= 0 || binom <= 0 || binary <= 0 {
			t.Fatalf("non-positive prediction at m=%d", m)
		}
		// For one segment (m = seg), log-depth trees beat the P-deep chain.
		if m == seg && binom >= chain {
			t.Fatalf("traditional binomial (%v) should beat chain (%v) at one segment", binom, chain)
		}
	}
}

func TestTraditionalLinearIgnoresSerialisation(t *testing.T) {
	// The defining flaw of the textbook linear model: it predicts the same
	// time regardless of P (all sends "concurrent"), while the
	// implementation-derived model carries γ(P).
	par := Params{Alpha: 40e-6, Beta: 1.6e-9}
	t10 := TraditionalBcast(coll.BcastLinear, par, 10, 1<<20, 8192)
	t90 := TraditionalBcast(coll.BcastLinear, par, 90, 1<<20, 8192)
	if t10 != t90 {
		t.Fatalf("traditional linear model should be P-independent: %v vs %v", t10, t90)
	}
}

func TestTraditionalDegenerate(t *testing.T) {
	par := Params{Alpha: 1e-6, Beta: 1e-9}
	for _, alg := range coll.BcastAlgorithms() {
		if v := TraditionalBcast(alg, par, 1, 100, 10); v != 0 {
			t.Fatalf("%v: P=1 should cost 0", alg)
		}
		if v := TraditionalBcast(alg, par, 5, -1, 10); v != 0 {
			t.Fatalf("%v: negative m should cost 0", alg)
		}
	}
}

func TestTraditionalUnderestimatesMeasuredBinary(t *testing.T) {
	// The Fig. 1 phenomenon in miniature: the textbook binary-tree model
	// with ping-pong parameters misestimates the measured segmented
	// broadcast. We check the two disagree by a clear margin at scale —
	// the disagreement is the paper's whole motivation.
	pr, err := cluster.Grisou().WithNodes(24)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EstimatePingPong(pr, []int{0, 8192, 262144, 1048576}, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	const m = 1 << 20
	measured, err := experiment.Sweep{Profile: pr, Settings: fastSettings()}.Run(context.Background(),
		experiment.BcastGrid(24, []coll.BcastAlgorithm{coll.BcastBinary}, []int{m}, pr.SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	meas := measured[0].Meas
	pred := TraditionalBcast(coll.BcastBinary, par, 24, m, pr.SegmentSize)
	relErr := math.Abs(pred-meas.Mean) / meas.Mean
	if relErr < 0.10 {
		t.Fatalf("traditional model agrees with measurement to %v%% — Fig. 1's gap should be visible",
			relErr*100)
	}
}

func TestP2P(t *testing.T) {
	par := Params{Alpha: 2e-6, Beta: 1e-9}
	if par.P2P(0) != 2e-6 {
		t.Fatal("P2P(0) != alpha")
	}
	if par.P2P(1000) != 2e-6+1e-6 {
		t.Fatal("P2P(1000)")
	}
}
