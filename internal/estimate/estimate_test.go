package estimate

import (
	"context"
	"math"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
)

func fastSettings() experiment.Settings {
	return experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}
}

func smallProfile(t *testing.T, nodes int) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestGammaEstimation(t *testing.T) {
	pr := cluster.Grisou()
	res, err := Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Gamma.At(2); got != 1 {
		t.Fatalf("γ(2) = %v", got)
	}
	prev := 1.0
	for p := 3; p <= pr.MaxLinearFanout; p++ {
		g := res.Gamma.At(p)
		if g <= prev {
			t.Fatalf("γ(%d) = %v not above γ(%d) = %v", p, g, p-1, prev)
		}
		prev = g
	}
	// Against the calibration target (paper Table 1 Grisou γ(7) = 1.540).
	if g7 := res.Gamma.At(7); math.Abs(g7-1.54) > 0.12 {
		t.Fatalf("γ(7) = %v, want ≈ 1.54", g7)
	}
	// The linear extrapolation continues the trend.
	if res.Gamma.At(12) <= res.Gamma.At(7) {
		t.Fatal("extrapolation should continue growing")
	}
	// Diagnostics present for every P.
	for p := 2; p <= pr.MaxLinearFanout; p++ {
		if _, ok := res.Measurements[p]; !ok {
			t.Fatalf("no measurement recorded for P=%d", p)
		}
		if res.T2[p] <= 0 {
			t.Fatalf("T2(%d) = %v", p, res.T2[p])
		}
	}
}

func TestGammaTooSmallPlatform(t *testing.T) {
	pr := smallProfile(t, 1)
	if _, err := Gamma(pr, fastSettings()); err == nil {
		t.Fatal("single-node platform should fail γ estimation")
	}
}

func TestAlphaBetaConfigValidation(t *testing.T) {
	pr := smallProfile(t, 16)
	g := model.UnitGamma()
	if _, err := AlphaBeta(pr, coll.BcastBinomial, g, AlphaBetaConfig{GatherBytes: pr.SegmentSize}); err == nil {
		t.Fatal("m_g == m_s must be rejected (paper requires m_g ≠ m_s)")
	}
	if _, err := AlphaBeta(pr, coll.BcastBinomial, g, AlphaBetaConfig{Procs: 99}); err == nil {
		t.Fatal("too many procs should fail")
	}
	if _, err := AlphaBeta(pr, coll.BcastBinomial, g, AlphaBetaConfig{Sizes: []int{8192}}); err == nil {
		t.Fatal("single size should fail")
	}
	if _, err := AlphaBeta(pr, coll.BcastBinomial, g, AlphaBetaConfig{GatherBytes: -1}); err == nil {
		t.Fatal("negative gather size should fail")
	}
}

func TestAlphaBetaProducesUsableParameters(t *testing.T) {
	pr := smallProfile(t, 24)
	gr, err := Gamma(pr, fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AlphaBetaConfig{
		Procs:    12,
		Sizes:    []int{8192, 32768, 131072, 524288, 1 << 20},
		Settings: fastSettings(),
	}
	res, err := AlphaBeta(pr, coll.BcastBinomial, gr.Gamma, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.Alpha < 0 || res.Params.Beta <= 0 {
		t.Fatalf("params = %+v", res.Params)
	}
	if len(res.Equations) != len(cfg.Sizes) {
		t.Fatalf("recorded %d equations, want %d", len(res.Equations), len(cfg.Sizes))
	}
	for _, eq := range res.Equations {
		if eq.A <= 0 || eq.B <= 0 || eq.T <= 0 {
			t.Fatalf("degenerate equation %+v", eq)
		}
	}

	// The fitted model must predict the measured broadcast time at an
	// *unseen* message size to reasonable accuracy — this is the whole
	// point of the estimation procedure. (Tolerance is loose: the model is
	// a closed form over a contended network.)
	const unseen = 262144
	pred := model.Predict(coll.BcastBinomial, cfg.Procs, unseen, pr.SegmentSize, res.Params, gr.Gamma)
	measured, err := experiment.Sweep{Profile: pr, Settings: fastSettings()}.Run(context.Background(),
		experiment.BcastGrid(cfg.Procs, []coll.BcastAlgorithm{coll.BcastBinomial}, []int{unseen}, pr.SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	meas := measured[0].Meas
	relErr := math.Abs(pred-meas.Mean) / meas.Mean
	if relErr > 0.40 {
		t.Fatalf("prediction %v vs measured %v: relative error %.0f%%", pred, meas.Mean, relErr*100)
	}
}

func TestModelsFullPipeline(t *testing.T) {
	pr := smallProfile(t, 20)
	cfg := AlphaBetaConfig{
		Procs:    10,
		Sizes:    []int{8192, 65536, 262144, 1 << 20},
		Settings: fastSettings(),
	}
	bm, gr, err := Models(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Cluster != pr.Name || bm.SegSize != pr.SegmentSize {
		t.Fatalf("metadata wrong: %+v", bm)
	}
	if len(bm.Params) != len(coll.BcastAlgorithms()) {
		t.Fatalf("params for %d algorithms, want %d", len(bm.Params), len(coll.BcastAlgorithms()))
	}
	for _, alg := range coll.BcastAlgorithms() {
		v, err := bm.Predict(alg, 10, 1<<20)
		if err != nil || v <= 0 {
			t.Fatalf("%v: predict = %v, %v", alg, v, err)
		}
	}
	_ = gr

	// Model-based prediction accuracy per algorithm at a mid-grid size:
	// every algorithm's prediction should land within 50% of measurement
	// (the selection experiments in package selection check the sharper
	// property — that the *ranking* is right).
	measured, err := experiment.Sweep{Profile: pr, Settings: fastSettings()}.Run(context.Background(),
		experiment.BcastGrid(10, coll.BcastAlgorithms(), []int{131072}, pr.SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, alg := range coll.BcastAlgorithms() {
		meas := measured[i].Meas
		pred, _ := bm.Predict(alg, 10, 131072)
		relErr := math.Abs(pred-meas.Mean) / meas.Mean
		if relErr > 0.50 {
			t.Errorf("%v: prediction %v vs measured %v (%.0f%% off)", alg, pred, meas.Mean, relErr*100)
		}
	}
}

func TestAlphaBetaDeterministic(t *testing.T) {
	pr := smallProfile(t, 12)
	g := model.UnitGamma()
	cfg := AlphaBetaConfig{Procs: 6, Sizes: []int{8192, 65536, 262144}, Settings: fastSettings()}
	a, err := AlphaBeta(pr, coll.BcastChain, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AlphaBeta(pr, coll.BcastChain, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Params != b.Params {
		t.Fatalf("estimation not reproducible: %+v vs %+v", a.Params, b.Params)
	}
}

// TestModelsCombinedSweepMatchesComponents checks that Models — which
// submits the γ grid and every algorithm's α/β grid as one combined
// parallel sweep — produces exactly the parameters of running Gamma and
// AlphaBeta separately, i.e. that batching and concurrency change
// nothing about the estimation.
func TestModelsCombinedSweepMatchesComponents(t *testing.T) {
	pr := smallProfile(t, 12)
	cfg := AlphaBetaConfig{Procs: 6, Sizes: []int{8192, 65536, 262144}, Settings: fastSettings(), Workers: 8}

	bm, gr, err := Models(pr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	grAlone, err := Gamma(pr, cfg.Settings)
	if err != nil {
		t.Fatal(err)
	}
	if len(gr.T2) != len(grAlone.T2) {
		t.Fatalf("γ tables differ in size: %d vs %d", len(gr.T2), len(grAlone.T2))
	}
	for p, t2 := range grAlone.T2 {
		if gr.T2[p] != t2 {
			t.Errorf("T2(%d): combined %v, standalone %v", p, gr.T2[p], t2)
		}
	}

	for _, alg := range coll.BcastAlgorithms() {
		ab, err := AlphaBeta(pr, alg, grAlone.Gamma, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if bm.Params[alg] != ab.Params {
			t.Errorf("%v: combined %+v, standalone %+v", alg, bm.Params[alg], ab.Params)
		}
	}
}

// TestModelsCtxCancellation checks the calibration sweep honours its
// context.
func TestModelsCtxCancellation(t *testing.T) {
	pr := smallProfile(t, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ModelsCtx(ctx, pr, AlphaBetaConfig{Procs: 6, Sizes: []int{8192, 65536}, Settings: fastSettings()}); err == nil {
		t.Fatal("cancelled calibration succeeded")
	}
}
