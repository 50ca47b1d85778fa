package estimate

import (
	"context"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
)

// BenchmarkAlphaBetaFamily times one extended family's calibration — the
// allgather family over the default ten sizes at P = 16 on a 32-node
// grisou, one worker, every point compiled goroutine-free. Each
// iteration is a fresh sweep, as every CalibrateExtendedOp call is.
// `make bench` records it into BENCH_plancache.json beside
// BenchmarkPlanCache.
func BenchmarkAlphaBetaFamily(b *testing.B) {
	pr, err := cluster.Grisou().WithNodes(32)
	if err != nil {
		b.Fatal(err)
	}
	specs := AllgatherSpecs()
	cfg := AlphaBetaConfig{
		Procs:    16,
		Settings: experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1},
		Workers:  1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AlphaBetaFamily(context.Background(), pr, specs, model.UnitGamma(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
