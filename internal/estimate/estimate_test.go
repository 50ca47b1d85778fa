package estimate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
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

// bcastSpec returns alg's §4.2 spec at the default m_g.
func bcastSpec(alg coll.BcastAlgorithm) CollectiveSpec {
	for i, a := range coll.BcastAlgorithms() {
		if a == alg {
			return BcastSpecs(256)[i]
		}
	}
	panic("unknown broadcast algorithm")
}

// fitSpec fits one spec against a known γ.
func fitSpec(pr cluster.Profile, spec CollectiveSpec, g model.Gamma, cfg AlphaBetaConfig) (AlphaBetaResult, error) {
	res, err := AlphaBetaFamily(context.Background(), pr, []CollectiveSpec{spec}, g, cfg)
	if err != nil {
		return AlphaBetaResult{}, err
	}
	return res[0], nil
}

func TestAlphaBetaConfigValidation(t *testing.T) {
	pr := smallProfile(t, 16)
	if _, _, err := Models(pr, AlphaBetaConfig{GatherBytes: pr.SegmentSize}); err == nil {
		t.Fatal("m_g == m_s must be rejected (paper requires m_g ≠ m_s)")
	}
	if _, _, err := Models(pr, AlphaBetaConfig{Procs: 99}); err == nil {
		t.Fatal("too many procs should fail")
	}
	if _, _, err := Models(pr, AlphaBetaConfig{Sizes: []int{8192}}); err == nil {
		t.Fatal("single size should fail")
	}
	if _, _, err := Models(pr, AlphaBetaConfig{GatherBytes: -1}); err == nil {
		t.Fatal("negative gather size should fail")
	}
	if _, err := fitSpec(pr, bcastSpec(coll.BcastBinomial), model.UnitGamma(), AlphaBetaConfig{Procs: 99}); err == nil {
		t.Fatal("too many procs should fail with γ given")
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
	res, err := fitSpec(pr, bcastSpec(coll.BcastBinomial), gr.Gamma, cfg)
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
	a, err := fitSpec(pr, bcastSpec(coll.BcastChain), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fitSpec(pr, bcastSpec(coll.BcastChain), g, cfg)
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
// then each algorithm's spec alone against its γ, i.e. that batching and
// concurrency change nothing about the estimation.
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
		ab, err := fitSpec(pr, bcastSpec(alg), grAlone.Gamma, cfg)
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

// goldenBcastDigest pins the broadcast calibration bit for bit: the γ
// table and the six algorithms' fitted α/β on goldenExtendedConfig's
// grid. It was recorded while broadcast still had its own estimator, so
// it also pins the spec-family path's equivalence to that one.
const goldenBcastDigest = "936e4135e2b07671"

// bcastDigest calibrates broadcast with cfg and fingerprints the γ table
// (ascending P) and every algorithm's α/β bits.
func bcastDigest(t *testing.T, pr cluster.Profile, cfg AlphaBetaConfig) string {
	t.Helper()
	bm, _, err := ModelsCtx(context.Background(), pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ps := make([]int, 0, len(bm.Gamma.Table))
	for p := range bm.Gamma.Table {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		fmt.Fprintf(h, "γ(%d)=%016x;", p, math.Float64bits(bm.Gamma.Table[p]))
	}
	for _, alg := range coll.BcastAlgorithms() {
		par := bm.Params[alg]
		fmt.Fprintf(h, "%v=%016x,%016x;", alg, math.Float64bits(par.Alpha), math.Float64bits(par.Beta))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGoldenBcastDeterminism pins the broadcast calibration across worker
// counts and both engines.
func TestGoldenBcastDeterminism(t *testing.T) {
	pr, base := goldenExtendedConfig(t)
	for _, engine := range []experiment.Engine{experiment.EngineAuto, experiment.EngineScheduler} {
		for _, workers := range []int{1, 4} {
			cfg := base
			cfg.Workers = workers
			cfg.Settings.Engine = engine
			if got := bcastDigest(t, pr, cfg); got != goldenBcastDigest {
				t.Errorf("engine=%v workers=%d: digest %s, want %s", engine, workers, got, goldenBcastDigest)
			}
		}
	}
}
