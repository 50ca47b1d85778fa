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
// grisou, one worker — with plan templates off (every point captures)
// and on (one capture per structure class, every other point rebinds).
// Each iteration is a fresh sweep with its own template store, as every
// CalibrateExtendedOp call is. `make bench` records both lines into
// BENCH_plancache.json beside BenchmarkPlanCache.
func BenchmarkAlphaBetaFamily(b *testing.B) {
	pr, err := cluster.Grisou().WithNodes(32)
	if err != nil {
		b.Fatal(err)
	}
	specs := AllgatherSpecs()
	for _, templates := range []bool{false, true} {
		name := "templates=off"
		if templates {
			name = "templates=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := AlphaBetaConfig{
				Procs:                16,
				Settings:             experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1},
				Workers:              1,
				DisablePlanTemplates: !templates,
			}
			for i := 0; i < b.N; i++ {
				if _, err := AlphaBetaFamily(context.Background(), pr, specs, model.UnitGamma(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
