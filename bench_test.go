// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md and micro
// benchmarks of the substrate.
//
// The artifact benchmarks run at a reduced scale (24-32 ranks, a subset of
// the message grid) so the whole suite finishes in minutes; the cmd tool
// `mpicollperf reproduce` regenerates the artifacts at the paper's full
// scale. Where a benchmark has a quality outcome (selection degradation,
// model error), it is attached to the benchmark via b.ReportMetric, so
// `go test -bench=.` doubles as a regression check on the reproduction's
// headline numbers.
package mpicollperf

import (
	"context"
	"math"
	"sync"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/decision"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/hockney"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/simnet"
	"mpicollperf/internal/tables"
)

// benchScale is the reduced experiment scale used by the benchmarks.
const (
	benchNodes = 32
	benchProcs = 32
	benchEstP  = 16
)

var benchSizes = []int{8192, 32768, 131072, 524288, 2 << 20}

func benchSettings() experiment.Settings {
	return experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}
}

func benchProfile(b *testing.B, name string) cluster.Profile {
	b.Helper()
	base, err := cluster.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	pr, err := base.WithNodes(benchNodes)
	if err != nil {
		b.Fatal(err)
	}
	return pr
}

// calibration cache: the offline phase is shared across benchmarks.
var (
	calOnce   sync.Once
	calModels map[string]model.BcastModels
	calErr    error
)

func calibrated(b *testing.B, name string) model.BcastModels {
	b.Helper()
	calOnce.Do(func() {
		calModels = make(map[string]model.BcastModels, 2)
		for _, cn := range []string{"grisou", "gros"} {
			base, err := cluster.ByName(cn)
			if err != nil {
				calErr = err
				return
			}
			pr, err := base.WithNodes(benchNodes)
			if err != nil {
				calErr = err
				return
			}
			bm, _, err := estimate.Models(pr, estimate.AlphaBetaConfig{
				Procs:    benchEstP,
				Sizes:    benchSizes,
				Settings: benchSettings(),
			})
			if err != nil {
				calErr = err
				return
			}
			calModels[cn] = bm
		}
	})
	if calErr != nil {
		b.Fatal(calErr)
	}
	return calModels[name]
}

// ------------------------------------------------------------- Fig. 1

// BenchmarkFig1TraditionalVsMeasured regenerates Fig. 1: the traditional
// models' prediction error against the measured binary and binomial
// curves. The reported trad_mean_rel_err metric is the figure's message —
// the textbook approach misses by a large factor.
func BenchmarkFig1TraditionalVsMeasured(b *testing.B) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	for i := 0; i < b.N; i++ {
		fig, err := tables.GenerateFig1(pr, benchProcs, benchSizes, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		var sumErr float64
		var n int
		for _, r := range fig.Rows {
			sumErr += math.Abs(r.TradBinary/r.MeasBinary - 1)
			sumErr += math.Abs(r.TradBinomial/r.MeasBinomial - 1)
			n += 2
		}
		b.ReportMetric(sumErr/float64(n), "trad_mean_rel_err")
	}
}

// ------------------------------------------------------------- Table 1

func benchmarkTable1(b *testing.B, name string) {
	b.ReportAllocs()
	pr := benchProfile(b, name)
	for i := 0; i < b.N; i++ {
		res, err := estimate.Gamma(pr, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Gamma.At(7), "gamma7")
	}
}

// BenchmarkTable1GammaGrisou regenerates the Grisou column of Table 1
// (paper: γ(7) = 1.540).
func BenchmarkTable1GammaGrisou(b *testing.B) { benchmarkTable1(b, "grisou") }

// BenchmarkTable1GammaGros regenerates the Gros column of Table 1
// (paper: γ(7) = 1.424).
func BenchmarkTable1GammaGros(b *testing.B) { benchmarkTable1(b, "gros") }

// ------------------------------------------------------------- Table 2

// BenchmarkTable2AlphaBeta regenerates the per-algorithm α/β estimation
// (Table 2) for one algorithm on Grisou; the reported metrics are the
// fitted parameters.
func BenchmarkTable2AlphaBeta(b *testing.B) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	gr, err := estimate.Gamma(pr, benchSettings())
	if err != nil {
		b.Fatal(err)
	}
	var spec []estimate.CollectiveSpec
	for i, alg := range coll.BcastAlgorithms() {
		if alg == coll.BcastBinomial {
			spec = estimate.BcastSpecs(256)[i : i+1]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fits, err := estimate.AlphaBetaFamily(context.Background(), pr, spec, gr.Gamma, estimate.AlphaBetaConfig{
			Procs:    benchEstP,
			Sizes:    benchSizes,
			Settings: benchSettings(),
		})
		if err != nil {
			b.Fatal(err)
		}
		res := fits[0]
		b.ReportMetric(res.Params.Alpha*1e6, "alpha_us")
		b.ReportMetric(res.Params.Beta*1e9, "beta_ns_per_B")
	}
}

// ----------------------------------------------------- Fig. 5 / Table 3

func benchmarkSelection(b *testing.B, name string) {
	b.ReportAllocs()
	pr := benchProfile(b, name)
	sel := selection.ModelBased{Models: calibrated(b, name)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := tables.GenerateTable3(pr, sel, benchProcs, benchSizes, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		var ompiWorst float64
		for _, r := range tab.Rows {
			if r.OMPIDegradation > ompiWorst {
				ompiWorst = r.OMPIDegradation
			}
		}
		b.ReportMetric(tab.MaxModelDegradation(), "model_worst_degr_pct")
		b.ReportMetric(ompiWorst, "ompi_worst_degr_pct")
	}
}

// BenchmarkTable3SelectionGrisou regenerates Table 3 (left half) at bench
// scale: model-based vs Open MPI selection degradation on Grisou (paper:
// model ≤ 3%, Open MPI up to 160%).
func BenchmarkTable3SelectionGrisou(b *testing.B) { benchmarkSelection(b, "grisou") }

// BenchmarkTable3SelectionGros regenerates Table 3 (right half) at bench
// scale on Gros (paper: model ≤ 10%, Open MPI up to 7297%).
func BenchmarkTable3SelectionGros(b *testing.B) { benchmarkSelection(b, "gros") }

// BenchmarkFig5SelectionCurves regenerates one Fig. 5 panel (time vs
// message size for the three selectors).
func BenchmarkFig5SelectionCurves(b *testing.B) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	sel := selection.ModelBased{Models: calibrated(b, "grisou")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panel, err := tables.GenerateFig5Panel(pr, sel, benchProcs, benchSizes, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		var modelSum, bestSum float64
		for _, pt := range panel.Points {
			modelSum += pt.ModelTime
			bestSum += pt.BestTime
		}
		b.ReportMetric(modelSum/bestSum, "model_vs_best_ratio")
	}
}

// --------------------------------------------- §5.3 efficiency claim

// BenchmarkModelBasedSelectionCost measures the run-time cost of one
// model-based selection — the paper's claim that the decision is as cheap
// as a hard-coded rule. Expect a few hundred nanoseconds.
func BenchmarkModelBasedSelectionCost(b *testing.B) {
	b.ReportAllocs()
	sel := selection.ModelBased{Models: calibrated(b, "grisou")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(90, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenMPIFixedDecisionCost is the baseline decision cost.
func BenchmarkOpenMPIFixedDecisionCost(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = selection.OpenMPIFixed(90, 1<<20)
	}
}

// BenchmarkCompiledTableLookupCost measures the compiled decision table —
// the zero-floating-point deployment form of the model-based selector.
func BenchmarkCompiledTableLookupCost(b *testing.B) {
	b.ReportAllocs()
	bm := calibrated(b, "grisou")
	tab, err := decision.Compile(bm, decision.CompileConfig{MaxProcs: 96})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Lookup(90, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionSelection regenerates the beyond-broadcast extension
// table (allgather/allreduce/alltoall/reduce/gather/scatter/
// reduce-scatter) and reports the worst model-pick degradation.
func BenchmarkExtensionSelection(b *testing.B) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	for i := 0; i < b.N; i++ {
		tab, err := tables.GenerateExtTable(pr, benchEstP, []int{4096, 262144}, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.MaxDegradation(), "ext_worst_degr_pct")
	}
}

// BenchmarkVanDeGeijnVsBinomial compares MPICH's large-message broadcast
// against the unsegmented binomial tree (time ratio < 1 means van de
// Geijn wins, which it must at this size).
func BenchmarkVanDeGeijnVsBinomial(b *testing.B) {
	b.ReportAllocs()
	cfg := cluster.Grisou().Net
	cfg.Nodes = benchNodes
	const m = 8 << 20
	for i := 0; i < b.N; i++ {
		vdg, err := mpi.Run(cfg, benchNodes, func(p *mpi.Proc) error {
			coll.BcastVanDeGeijn(p, coll.VanDeGeijnRing, 0, coll.Synthetic(m))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		bin, err := mpi.Run(cfg, benchNodes, func(p *mpi.Proc) error {
			coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(m), 0)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(vdg.MakeSpan/bin.MakeSpan, "vdg_vs_binomial_ratio")
	}
}

// ----------------------------------------------------------- Ablations

// ablationWorstDegradation runs the Table 3 selection with an alternative
// model set and reports the worst degradation.
func ablationWorstDegradation(b *testing.B, bm model.BcastModels) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	sel := selection.ModelBased{Models: bm}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := tables.GenerateTable3(pr, sel, benchProcs, benchSizes, benchSettings())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.MaxModelDegradation(), "worst_degr_pct")
	}
}

// BenchmarkAblationPointToPointParams removes the paper's second
// innovation: every algorithm shares the same ping-pong-estimated α/β
// instead of per-algorithm fitted parameters.
func BenchmarkAblationPointToPointParams(b *testing.B) {
	pr := benchProfile(b, "grisou")
	full := calibrated(b, "grisou")
	pp, err := hockney.EstimatePingPong(pr, []int{0, 8192, 131072, 1 << 20}, benchSettings())
	if err != nil {
		b.Fatal(err)
	}
	bm := model.BcastModels{
		Cluster: full.Cluster,
		SegSize: full.SegSize,
		Gamma:   full.Gamma,
		Params:  make(map[coll.BcastAlgorithm]model.Hockney),
	}
	for _, alg := range coll.BcastAlgorithms() {
		bm.Params[alg] = model.Hockney{Alpha: pp.Alpha, Beta: pp.Beta}
	}
	ablationWorstDegradation(b, bm)
}

// BenchmarkAblationNoGamma removes the paper's first innovation: γ ≡ 1
// turns the implementation-derived models back into textbook shapes (the
// per-algorithm parameters are re-fitted under the crippled model so the
// comparison is fair).
func BenchmarkAblationNoGamma(b *testing.B) {
	pr := benchProfile(b, "grisou")
	unit := model.UnitGamma()
	bm := model.BcastModels{
		Cluster: pr.Name,
		SegSize: pr.SegmentSize,
		Gamma:   unit,
		Params:  make(map[coll.BcastAlgorithm]model.Hockney),
	}
	fits, err := estimate.AlphaBetaFamily(context.Background(), pr, estimate.BcastSpecs(256), unit, estimate.AlphaBetaConfig{
		Procs:    benchEstP,
		Sizes:    benchSizes,
		Settings: benchSettings(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for i, alg := range coll.BcastAlgorithms() {
		bm.Params[alg] = fits[i].Params
	}
	ablationWorstDegradation(b, bm)
}

// BenchmarkAblationPaperBinomialFormula compares the paper's Formula 6
// against this repository's fill/steady-state binomial model: both predict
// the measured binomial broadcast across the grid, and the reported
// metrics are their mean relative errors.
func BenchmarkAblationPaperBinomialFormula(b *testing.B) {
	b.ReportAllocs()
	pr := benchProfile(b, "grisou")
	bm := calibrated(b, "grisou")
	par := bm.Params[coll.BcastBinomial]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var oursSum, paperSum float64
		grid := experiment.BcastGrid(benchProcs, []coll.BcastAlgorithm{coll.BcastBinomial}, benchSizes, pr.SegmentSize)
		measured, err := experiment.Sweep{Profile: pr, Settings: benchSettings()}.Run(context.Background(), grid)
		if err != nil {
			b.Fatal(err)
		}
		for j, m := range benchSizes {
			meas := measured[j].Meas
			ours := model.Predict(coll.BcastBinomial, benchProcs, m, pr.SegmentSize, par, bm.Gamma)
			pa, pb := model.PaperBinomialCoefficients(benchProcs, m, pr.SegmentSize, bm.Gamma)
			paper := pa*par.Alpha + pb*par.Beta
			oursSum += math.Abs(ours/meas.Mean - 1)
			paperSum += math.Abs(paper/meas.Mean - 1)
		}
		n := float64(len(benchSizes))
		b.ReportMetric(oursSum/n, "fill_steady_rel_err")
		b.ReportMetric(paperSum/n, "formula6_rel_err")
	}
}

// BenchmarkAblationSegmentSize sweeps the segment size the paper holds
// fixed at 8 KB and reports the best-algorithm time at each m_s for a 1 MB
// broadcast — the knob the paper declares out of scope.
func BenchmarkAblationSegmentSize(b *testing.B) {
	pr := benchProfile(b, "grisou")
	const m = 1 << 20
	for _, seg := range []int{1024, 8192, 65536} {
		seg := seg
		b.Run(sizeName(seg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				grid := experiment.BcastGrid(benchProcs, coll.BcastAlgorithms(), []int{m}, seg)
				measured, err := experiment.Sweep{Profile: pr, Settings: benchSettings()}.Run(context.Background(), grid)
				if err != nil {
					b.Fatal(err)
				}
				best := math.Inf(1)
				for _, r := range measured {
					best = math.Min(best, r.Meas.Mean)
				}
				b.ReportMetric(best*1e3, "best_ms")
			}
		})
	}
}

func sizeName(seg int) string {
	switch {
	case seg >= 1<<20:
		return "seg_1MB"
	case seg >= 1024:
		return "seg_" + itoa(seg/1024) + "KB"
	default:
		return "seg_" + itoa(seg) + "B"
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------- End-to-end costs

// BenchmarkCalibrateCold measures what a user pays to calibrate a
// platform: a cold Calibrate(Grisou()) with the paper defaults into a
// fresh measurement cache — the full 90-process grid, not benchScale.
func BenchmarkCalibrateCold(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := Calibrate(ctx, Grisou(), WithCache(NewMeasurementCache())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateExtended measures calibrating all seven extended
// families on grisou through Selector.CalibrateExtendedOp with the
// default configuration. γ is fixed to grisou's analytical table (see
// package cluster), so no broadcast calibration is timed.
func BenchmarkCalibrateExtended(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	pr := Grisou()
	g, err := model.NewGamma(map[int]float64{2: 1, 3: 1.108, 4: 1.216, 5: 1.325, 6: 1.433, 7: 1.540})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sel := &Selector{Profile: pr, Models: Models{Cluster: pr.Name, SegSize: pr.SegmentSize, Gamma: g}}
		for _, fam := range Collectives() {
			if err := sel.CalibrateExtendedOp(ctx, fam, CalibrationConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkVerifyGuidelines measures regenerating the guideline
// artifact: the default verify-guidelines grid (grisou and gros, each
// quiet and under two random perturbations), the grid
// TestGoldenGuidelineArtifact pins.
// Every point re-reads its platform's noise stream from the start, so
// this is where drawing jitter shows.
func BenchmarkVerifyGuidelines(b *testing.B) {
	b.ReportAllocs()
	h := goldenGuidelineHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- Substrate micro

// BenchmarkSimulatorTransmit measures the raw event rate of the network
// simulator.
func BenchmarkSimulatorTransmit(b *testing.B) {
	b.ReportAllocs()
	net, err := simnet.New(cluster.Grisou().Net)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Transmit(0, 1+i%89, 8192, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimePingPong measures the cost of one simulated
// send/receive pair through the full runtime (goroutine lockstep
// included).
func BenchmarkRuntimePingPong(b *testing.B) {
	b.ReportAllocs()
	cfg := cluster.Grisou().Net
	cfg.Nodes = 2
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(cfg, 2, func(p *mpi.Proc) error {
			if p.Rank() == 0 {
				p.Send(1, 0, nil, 8192)
				p.Recv(1, 1, nil)
			} else {
				p.Recv(0, 0, nil)
				p.Send(0, 1, nil, 8192)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBcastBinomialP32 measures one full simulated binomial
// broadcast of 1 MB over 32 ranks (≈ 4200 message events).
func BenchmarkBcastBinomialP32(b *testing.B) {
	b.ReportAllocs()
	cfg := cluster.Grisou().Net
	cfg.Nodes = 32
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(cfg, 32, func(p *mpi.Proc) error {
			coll.Bcast(p, coll.BcastBinomial, 0, coll.Synthetic(1<<20), 8192)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
