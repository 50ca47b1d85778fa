// Golden determinism tests: the scheduler's virtual timings are part of
// the repository's contract — every calibration table and selection
// decision is derived from them — so they are pinned here to seed-era
// values, bit for bit. Any scheduler, simulator, or sweep-engine change
// that shifts these constants is a behavioural regression even if every
// other test still passes.
package mpicollperf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/hockney"
	"mpicollperf/internal/model"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/tables"
)

// goldenProfile is Grisou restricted to a 16-node noisy cluster
// (NoiseAmplitude 0.03, NoiseSeed 1001 — the profile's own values).
func goldenProfile(t *testing.T) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// goldenBcast pins the exact MakeSpan (hex float: bit-identical, no
// rounding slop) and transfer count of one 1 MiB broadcast per algorithm,
// captured at the seed-era scheduler.
var goldenBcast = []struct {
	alg       coll.BcastAlgorithm
	makeSpan  float64
	transfers int64
}{
	{coll.BcastLinear, 0x1.c07afec14849cp-07, 15},
	{coll.BcastChain, 0x1.07d915ba9807p-09, 1920},
	{coll.BcastKChain, 0x1.fdd95d0b1454ap-09, 1920},
	{coll.BcastBinary, 0x1.1ec443cb22a98p-09, 1920},
	{coll.BcastSplitBinary, 0x1.3c3ff8a20aefap-09, 975},
	{coll.BcastBinomial, 0x1.fbe9c0d540dfap-09, 1920},
}

// goldenSweepMeans pins the adaptive-measurement means of the full
// six-algorithm grid at three sizes (same platform, Settings{0.95, 0.025,
// 3, 10, 1}), in grid order: sizes-major over {8 KiB, 128 KiB, 1 MiB}.
var goldenSweepMeans = []float64{
	0x1.42c88478723bap-13, 0x1.dd7372df1acc4p-11, 0x1.0ca02beebee9bp-12,
	0x1.fd5ab5dc9feabp-13, 0x1.fd5ab5dc9feabp-13, 0x1.fd4a96f15ffe3p-13,
	0x1.cac9f825bb175p-10, 0x1.110a367538c31p-10, 0x1.672b3c2e5cb68p-11,
	0x1.efbf45faeadb5p-12, 0x1.e5708b39e80fbp-12, 0x1.603c2d248cd85p-11,
	0x1.bfe4c1d59cf1bp-07, 0x1.07e28612a52a7p-09, 0x1.fdd38d2a5d4fdp-09,
	0x1.1edf870e95c49p-09, 0x1.3bc0bbba1c176p-09, 0x1.fc4bb21d923b8p-09,
}

// goldenPerturbed pins two canonical perturbed scenarios on the golden
// platform: one straggler node and one degraded link, the full
// six-algorithm grid at 128 KiB. Both specs are time-invariant, so the
// replay engine must reproduce them without falling back — the pins are
// the perturbation layer's determinism contract across both engines.
var goldenPerturbed = []struct {
	spec  string
	means []float64
}{
	{"straggler:node=3,cpu=1.5,nic=2", []float64{
		0x1.cac9f825bb175p-10, 0x1.32c4d6ecc3c2ep-10, 0x1.683fa54a90b39p-11,
		0x1.7010bb4ef14b3p-11, 0x1.48909256ef8d5p-11, 0x1.603c2d248cd85p-11,
	}},
	{"link:src=0,dst=5,lat=3,bw=4", []float64{
		0x1.0f884f9cfb81ep-09, 0x1.110a367538c31p-10, 0x1.219487b79113dp-10,
		0x1.efbf45faeadb5p-12, 0x1.e5708b39e80fbp-12, 0x1.603c2d248cd85p-11,
	}},
}

// TestGoldenPerturbedSweepDeterminism asserts that the two canonical
// perturbed runs reproduce their pinned means bit-identically on every
// engine and worker count. A forced replay engine is included: these
// specs are time-invariant, so the fallback path must not trigger.
func TestGoldenPerturbedSweepDeterminism(t *testing.T) {
	pr := goldenProfile(t)
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	grid := experiment.BcastGrid(16, coll.BcastAlgorithms(), []int{131072}, pr.SegmentSize)
	for _, g := range goldenPerturbed {
		spec, err := perturb.Parse(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		prp := pr.Perturbed(spec)
		for _, engine := range []experiment.Engine{experiment.EngineScheduler, experiment.EngineAuto, experiment.EngineReplay} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/engine=%v/workers=%d", g.spec, engine, workers), func(t *testing.T) {
					set := set
					set.Engine = engine
					sw := experiment.Sweep{Profile: prp, Settings: set, Workers: workers}
					results, err := sw.Run(context.Background(), grid)
					if err != nil {
						t.Fatal(err)
					}
					for i, r := range results {
						if r.Meas.Mean != g.means[i] {
							t.Errorf("point %v: mean = %x, golden %x", r.Point, r.Meas.Mean, g.means[i])
						}
						if r.Meas.Fallback != experiment.FallbackNone {
							t.Errorf("point %v: unexpected fallback %q", r.Point, r.Meas.Fallback)
						}
					}
				})
			}
		}
	}
}

// TestGoldenBcastDeterminism asserts that MakeSpan and Transfers of every
// broadcast algorithm are bit-identical to the pinned seed-era values,
// under both a single OS thread and real parallelism — the virtual
// timings must not depend on the Go scheduler.
func TestGoldenBcastDeterminism(t *testing.T) {
	pr := goldenProfile(t)
	for _, gomaxprocs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
			for _, g := range goldenBcast {
				res, err := mpi.Run(pr.Net, 16, func(p *mpi.Proc) error {
					coll.Bcast(p, g.alg, 0, coll.Synthetic(1<<20), pr.SegmentSize)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.MakeSpan != g.makeSpan {
					t.Errorf("%v: MakeSpan = %x, golden %x", g.alg, res.MakeSpan, g.makeSpan)
				}
				if res.Transfers != g.transfers {
					t.Errorf("%v: Transfers = %d, golden %d", g.alg, res.Transfers, g.transfers)
				}
			}
		})
	}
}

// TestGoldenSweepDeterminism asserts that the sweep engine reproduces the
// pinned per-point means bit-identically regardless of worker count and
// execution engine — worker-local Runner reuse, scheduling order, and the
// compile-and-replay fast path must not leak into the measurements. The
// replay engine is forced (no scheduler fallback) in its sub-tests, so
// the pinned seed-era constants double as the replay engine's golden
// contract.
func TestGoldenSweepDeterminism(t *testing.T) {
	pr := goldenProfile(t)
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	grid := experiment.BcastGrid(16, coll.BcastAlgorithms(), []int{8192, 131072, 1 << 20}, pr.SegmentSize)
	if len(grid) != len(goldenSweepMeans) {
		t.Fatalf("grid size %d != golden table %d", len(grid), len(goldenSweepMeans))
	}
	for _, engine := range []experiment.Engine{experiment.EngineScheduler, experiment.EngineAuto, experiment.EngineReplay} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("engine=%v/workers=%d", engine, workers), func(t *testing.T) {
				set := set
				set.Engine = engine
				sw := experiment.Sweep{Profile: pr, Settings: set, Workers: workers}
				results, err := sw.Run(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if r.Meas.Mean != goldenSweepMeans[i] {
						t.Errorf("point %v: mean = %x, golden %x", r.Point, r.Meas.Mean, goldenSweepMeans[i])
					}
				}
			})
		}
	}
}

// TestGoldenSweepMetricsInvariance is the observability layer's
// correctness contract: attaching a metrics registry to the sweep must
// not perturb a single bit of any measured mean — metrics observe virtual
// timings, never feed back into them. The same pinned constants as
// TestGoldenSweepDeterminism are checked with a registry attached, and
// the registry itself must come back populated (instrumentation that
// silently records nothing would pass the invariance half vacuously).
func TestGoldenSweepMetricsInvariance(t *testing.T) {
	pr := goldenProfile(t)
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}
	grid := experiment.BcastGrid(16, coll.BcastAlgorithms(), []int{8192, 131072, 1 << 20}, pr.SegmentSize)
	for _, engine := range []experiment.Engine{experiment.EngineScheduler, experiment.EngineAuto, experiment.EngineReplay} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("engine=%v/workers=%d", engine, workers), func(t *testing.T) {
				set := set
				set.Engine = engine
				reg := obs.NewRegistry()
				sw := experiment.Sweep{Profile: pr, Settings: set, Workers: workers, Metrics: reg}
				results, err := sw.Run(context.Background(), grid)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range results {
					if r.Meas.Mean != goldenSweepMeans[i] {
						t.Errorf("point %v: mean = %x, golden %x (metrics registry perturbed the sweep)",
							r.Point, r.Meas.Mean, goldenSweepMeans[i])
					}
				}
				if got := reg.Counter("sweep_points_measured_total").Value(); got != int64(len(grid)) {
					t.Errorf("sweep_points_measured_total = %d, want %d", got, len(grid))
				}
				wantReps := obs.Name("experiment_reps_total", "engine", "replay")
				if engine == experiment.EngineScheduler {
					wantReps = obs.Name("experiment_reps_total", "engine", "scheduler")
				}
				if reg.Counter(wantReps).Value() == 0 {
					t.Errorf("%s not populated", wantReps)
				}
				runs := reg.Counter("mpi_runs_total").Value()
				compiles := reg.Counter("experiment_plan_compiles_total").Value()
				if engine == experiment.EngineScheduler {
					if runs == 0 {
						t.Error("mpi_runs_total not populated")
					}
					if compiles != 0 {
						t.Errorf("scheduler engine touched the compile path: %d compiles", compiles)
					}
				} else {
					// Every broadcast point is timing-independent, so none
					// runs on the scheduler: each is compiled goroutine-free,
					// exactly once, at every worker count.
					if runs != 0 {
						t.Errorf("mpi_runs_total = %d, want 0: the replay engine ran the scheduler", runs)
					}
					if n := reg.Counter(obs.Name("experiment_reps_total", "engine", "scheduler")).Value(); n != 0 {
						t.Errorf("%d scheduler repetitions, want 0", n)
					}
					if compiles != int64(len(grid)) {
						t.Errorf("%d compiles for %d grid points, want one per point", compiles, len(grid))
					}
					if n := reg.Counter(obs.Name("experiment_fallbacks_total", "reason", "compile")).Value(); n != 0 {
						t.Errorf("%d unexplained compile fallbacks", n)
					}
				}
			})
		}
	}
}

// TestGoldenSweepCallers pins the measured values of the callers that
// reach the simulator through Sweep with a single-purpose grid rather
// than a calibration: the ping-pong Hockney estimate, one Fig. 1 row and
// the Open MPI point of a selector comparison. All three are seed-era
// values recorded before these callers measured through Sweep.
func TestGoldenSweepCallers(t *testing.T) {
	pr := goldenProfile(t)
	set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1}

	pp, err := hockney.EstimatePingPong(pr, []int{0, 8192, 65536, 524288, 2 << 20}, set)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Alpha != 0x1.8e757928e0cb3p-15 || pp.Beta != 0x1.bb28a263e6ef7p-30 {
		t.Errorf("EstimatePingPong = {%x, %x}, golden {0x1.8e757928e0cb3p-15, 0x1.bb28a263e6ef7p-30}", pp.Alpha, pp.Beta)
	}

	fig, err := tables.GenerateFig1(pr, 16, []int{131072}, set)
	if err != nil {
		t.Fatal(err)
	}
	if r := fig.Rows[0]; r.MeasBinary != 0x1.efbf45faeadb5p-12 || r.MeasBinomial != 0x1.603c2d248cd85p-11 {
		t.Errorf("Fig. 1 row m=128KiB measured {%x, %x}, golden {0x1.efbf45faeadb5p-12, 0x1.603c2d248cd85p-11}", r.MeasBinary, r.MeasBinomial)
	}

	g, err := model.NewGamma(map[int]float64{2: 1, 3: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	sel := selection.ModelBased{Models: model.BcastModels{
		Cluster: pr.Name, SegSize: pr.SegmentSize, Gamma: g,
		Params: map[coll.BcastAlgorithm]model.Hockney{coll.BcastBinomial: {Alpha: 45e-6, Beta: 1.6e-9}},
	}}
	cmp, err := selection.Compare(pr, sel, 16, 131072, set)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OMPITime != 0x1.4055198f90b44p-11 {
		t.Errorf("Compare(P=16, m=128KiB).OMPITime = %x (%v), golden 0x1.4055198f90b44p-11", cmp.OMPITime, cmp.OMPIChoice)
	}
}

// goldenGuidelineHarness is the default verify-guidelines grid the
// recorded results/guidelines.json was produced with.
func goldenGuidelineHarness() guideline.Harness {
	return guideline.Harness{
		RandomPerturbations: 2,
		Seed:                1,
		Intensity:           0.5,
		Settings:            experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1},
	}
}

// TestGoldenGuidelineArtifact regenerates the default `mpicollperf
// verify-guidelines` grid — grisou and gros at 16 nodes, two random
// perturbations of each (seed 1, intensity 0.5), P ∈ {4, 8, 16} × four
// sizes, 2808 checks — and compares the artifact field by field with the
// recorded results/guidelines.json. Only the run's wall clock and worker
// count may differ; every platform name, per-guideline check count and
// max ratio (the perturbed platforms' included) is pinned.
func TestGoldenGuidelineArtifact(t *testing.T) {
	want := readArtifact(t, "results/guidelines.json")
	h := goldenGuidelineHarness()
	rep, err := h.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "guidelines.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got := readArtifact(t, path)
	for _, k := range []string{"elapsed_seconds", "workers"} {
		delete(got, k)
		delete(want, k)
	}
	if len(got) != len(want) {
		t.Errorf("artifact has %d fields, recorded %d", len(got), len(want))
	}
	for k, w := range want {
		if k == "summary" {
			continue
		}
		if g := got[k]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s = %v, recorded %v", k, g, w)
		}
	}
	gs, ws := got["summary"].([]any), want["summary"].([]any)
	if len(gs) != len(ws) {
		t.Fatalf("%d summary rows, recorded %d", len(gs), len(ws))
	}
	for i := range ws {
		if !reflect.DeepEqual(gs[i], ws[i]) {
			t.Errorf("summary row %d = %v, recorded %v", i, gs[i], ws[i])
		}
	}
}

func readArtifact(t *testing.T, path string) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a map[string]any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return a
}
