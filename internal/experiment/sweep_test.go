package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/stats"
)

func sweepTestProfile(t *testing.T) cluster.Profile {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func sweepTestSettings() Settings {
	return Settings{Confidence: 0.95, Precision: 0.05, MinReps: 2, MaxReps: 4, Warmup: 0}
}

// sweepTestGrid is the full six-algorithm grid over a couple of sizes.
func sweepTestGrid(pr cluster.Profile) []Point {
	return BcastGrid(pr.Nodes, coll.BcastAlgorithms(), []int{4096, 65536}, pr.SegmentSize)
}

// marshalMeasurements canonicalises results for byte-identity comparison.
func marshalMeasurements(t *testing.T, res []Result) []byte {
	t.Helper()
	meas := make([]Measurement, len(res))
	for i, r := range res {
		meas[i] = r.Meas
	}
	data, err := json.Marshal(meas)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSweepMatchesSerial asserts the tentpole invariant: a concurrent
// sweep is byte-identical to measuring the grid one point at a time on a
// fresh simulator, because every point runs on its own simulator.
func TestSweepMatchesSerial(t *testing.T) {
	pr := sweepTestProfile(t)
	set := sweepTestSettings()
	grid := sweepTestGrid(pr)

	var serial []Result
	for _, pt := range grid {
		meas, err := measureOne(pr, pt, set)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, Result{Point: pt, Meas: meas})
	}

	sw := Sweep{Profile: pr, Settings: set, Workers: 8}
	parallel, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalMeasurements(t, parallel), marshalMeasurements(t, serial); string(got) != string(want) {
		t.Fatalf("workers=8 sweep differs from the serial path:\n got %s\nwant %s", got, want)
	}
}

// TestSweepDeterministicAcrossWorkerCounts runs the same grid at
// workers=1 and workers=8 and requires byte-identical result slices.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	pr := sweepTestProfile(t)
	set := sweepTestSettings()
	grid := sweepTestGrid(pr)

	run := func(workers int) []byte {
		sw := Sweep{Profile: pr, Settings: set, Workers: workers}
		res, err := sw.Run(context.Background(), grid)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return marshalMeasurements(t, res)
	}
	if one, eight := run(1), run(8); string(one) != string(eight) {
		t.Fatalf("workers=1 and workers=8 disagree:\n  %s\nvs %s", one, eight)
	}
}

// TestSweepGridOrder checks results come back in grid order regardless of
// completion order.
func TestSweepGridOrder(t *testing.T) {
	pr := sweepTestProfile(t)
	grid := sweepTestGrid(pr)
	sw := Sweep{Profile: pr, Settings: sweepTestSettings(), Workers: 4}
	res, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(grid) {
		t.Fatalf("got %d results for %d points", len(res), len(grid))
	}
	for i, r := range res {
		if r.Point != grid[i] {
			t.Fatalf("result %d is for %v, want %v", i, r.Point, grid[i])
		}
		if r.Meas.Reps == 0 {
			t.Fatalf("result %d (%v) was never measured", i, r.Point)
		}
	}
}

// TestSweepPropagatesFirstError plants an invalid point in the middle of
// the grid and expects Run to fail with a descriptive error instead of
// hanging or panicking.
func TestSweepPropagatesFirstError(t *testing.T) {
	pr := sweepTestProfile(t)
	grid := sweepTestGrid(pr)
	bad := bcastPoint(coll.BcastBinomial, pr.Nodes+1, 4096, pr.SegmentSize)
	grid[len(grid)/2] = bad

	sw := Sweep{Profile: pr, Settings: sweepTestSettings(), Workers: 4}
	res, err := sw.Run(context.Background(), grid)
	if err == nil {
		t.Fatal("sweep with an invalid point succeeded")
	}
	if res != nil {
		t.Fatalf("failed sweep returned partial results: %v", res)
	}
	if !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("error %q does not describe the failing point", err)
	}
}

// TestSweepContextCancel cancels mid-sweep and requires a prompt error
// return with no leaked worker goroutines.
func TestSweepContextCancel(t *testing.T) {
	pr := sweepTestProfile(t)
	// A long grid so cancellation lands well before completion.
	sizes := make([]int, 40)
	for i := range sizes {
		sizes[i] = 4096 + i // distinct points, all cheap
	}
	grid := BcastGrid(pr.Nodes, coll.BcastAlgorithms(), sizes, pr.SegmentSize)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sw := Sweep{Profile: pr, Settings: sweepTestSettings(), Workers: 2,
		Progress: func(done, total int, r Result) {
			if done == 1 {
				cancel()
			}
		}}
	start := time.Now()
	res, err := sw.Run(ctx, grid)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got err %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled sweep returned results: %d", len(res))
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled sweep took %v to return", elapsed)
	}
	// Workers must be gone; allow the runtime a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestSweepMemoryCache re-runs a grid against the same in-memory cache
// and expects every point to be served from it, unchanged.
func TestSweepMemoryCache(t *testing.T) {
	pr := sweepTestProfile(t)
	grid := sweepTestGrid(pr)
	sw := Sweep{Profile: pr, Settings: sweepTestSettings(), Workers: 4, Cache: NewCache()}

	first, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if r.Cached {
			t.Fatalf("point %d cached on a cold cache", i)
		}
	}
	if sw.Cache.Len() != len(grid) {
		t.Fatalf("cache holds %d entries, want %d", sw.Cache.Len(), len(grid))
	}
	second, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if !r.Cached {
			t.Fatalf("point %d (%v) measured again despite the cache", i, r.Point)
		}
	}
	if a, b := marshalMeasurements(t, first), marshalMeasurements(t, second); string(a) != string(b) {
		t.Fatal("cached results differ from measured ones")
	}
}

// TestSweepDiskCache round-trips measurements through the on-disk format:
// a fresh Cache instance over the same directory must serve every point.
func TestSweepDiskCache(t *testing.T) {
	pr := sweepTestProfile(t)
	grid := sweepTestGrid(pr)
	dir := t.TempDir()

	cold, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw := Sweep{Profile: pr, Settings: sweepTestSettings(), Workers: 4, Cache: cold}
	first, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(grid) {
		t.Fatalf("disk cache holds %d files, want %d", len(files), len(grid))
	}

	warm, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sw.Cache = warm
	second, err := sw.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if !r.Cached {
			t.Fatalf("point %d (%v) measured again despite the disk cache", i, r.Point)
		}
	}
	if a, b := marshalMeasurements(t, first), marshalMeasurements(t, second); string(a) != string(b) {
		t.Fatal("disk-cached results differ from measured ones")
	}

	// A corrupt entry degrades to a miss, not an error.
	if err := os.WriteFile(files[0], []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	sw.Cache, err = NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(context.Background(), grid); err != nil {
		t.Fatalf("sweep over a corrupt cache entry failed: %v", err)
	}
}

// TestDiskCacheRejectsCorruptEntries: a <key>.json that decodes but is not
// a measurement ({} or {"Mean":1}), or does not decode at all, must be a
// miss — never a zero-mean hit fed to the fit. A valid entry still hits.
func TestDiskCacheRejectsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	valid, err := json.Marshal(Measurement{Mean: 2, Reps: 2, Samples: []float64{1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string][]byte{
		"empty":     []byte(`{}`),
		"mean-only": []byte(`{"Mean":1}`),
		"reps":      []byte(`{"Mean":1,"Reps":3,"Samples":[1,1]}`),
		"truncated": valid[:len(valid)/2],
		"valid":     valid,
	}
	for key, data := range entries {
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for key := range entries {
		m, ok := c.get(key)
		if want := key == "valid"; ok != want {
			t.Errorf("%s entry: hit = %v, want %v (%+v)", key, ok, want, m)
		}
	}
	if m, _ := c.get("valid"); m.Mean != 2 || m.Reps != 2 {
		t.Errorf("valid entry decoded as %+v", m)
	}
}

// TestCacheKeyIdentity pins down what the content-addressed key covers:
// equal inputs collide, any changed input — point, settings, profile,
// noise seed — does not.
func TestCacheKeyIdentity(t *testing.T) {
	pr := sweepTestProfile(t)
	set := sweepTestSettings()
	pt := bcastPoint(coll.BcastBinomial, 8, 4096, pr.SegmentSize)

	base := cacheKey(pr, pt, set)
	if base != cacheKey(pr, pt, set) {
		t.Fatal("cache key is not deterministic")
	}

	altPt := pt
	altPt.MsgBytes++
	altSet := set
	altSet.MaxReps++
	altPr := pr
	altPr.Net.NoiseSeed++
	for name, other := range map[string]string{
		"message size": cacheKey(pr, altPt, set),
		"settings":     cacheKey(pr, pt, altSet),
		"noise seed":   cacheKey(altPr, pt, set),
	} {
		if other == base {
			t.Fatalf("changing the %s did not change the cache key", name)
		}
	}

	// Settings normalise before keying, so spelling the same methodology
	// differently (zero value vs explicit normalised values) shares cache
	// entries.
	explicit := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 5, MaxReps: 100, Warmup: 0}
	if cacheKey(pr, pt, Settings{}) != cacheKey(pr, pt, explicit) {
		t.Fatal("zero settings and their explicit normalised form key differently")
	}
}

// TestCacheKeyPinned pins a broadcast and a broadcast+gather cache key
// (key version 2) byte for byte, so an on-disk measurement cache stays
// reachable until cacheKeyVersion is bumped on purpose.
func TestCacheKeyPinned(t *testing.T) {
	pr := cluster.Grisou()
	for _, c := range []struct {
		pt   Point
		set  Settings
		want string
	}{
		{bcastPoint(coll.BcastBinomial, 16, 65536, 8192), DefaultSettings(),
			"6967a31b261cfd0e556a3aec9280fb0eea48e0cee02dc31430c5d3d7c5cfc583"},
		{Point{Stage: BcastThenGatherStage(coll.BcastSplitBinary, 256), Procs: 45, MsgBytes: 1 << 20, SegSize: 8192}, Settings{},
			"161a513d85a0df5fe2d4334e78045a0ae362cfe43af89de5b080648e2e1e32e2"},
	} {
		if got := cacheKey(pr, c.pt, c.set); got != c.want {
			t.Errorf("%v: key %s, want %s", c.pt, got, c.want)
		}
	}
}

// allgatherStage is a generic collective stage for the tests: the ring
// allgather of an m-byte block per rank.
func allgatherStage(name string) *Stage {
	return &Stage{
		Name:     name,
		ClassKey: func(P, _, _ int) string { return fmt.Sprintf("%s/P=%d", name, P) },
		Run: func(p *mpi.Proc, m, _ int) {
			coll.Allgather(p, coll.AllgatherRing, coll.Synthetic(m*p.Size()), m)
		},
	}
}

// TestCacheKeyStage checks that points key by stage name and mode: two
// stages at the same (P, m, seg) never share an entry, neither collides
// with the broadcast point of the same shape, and a stage timed in
// another mode is another measurement.
func TestCacheKeyStage(t *testing.T) {
	pr := sweepTestProfile(t)
	set := sweepTestSettings()
	pt := bcastPoint(coll.BcastBinomial, 8, 4096, pr.SegmentSize)
	a, b := pt, pt
	a.Stage, b.Stage = allgatherStage("a"), allgatherStage("b")
	keys := map[string]bool{cacheKey(pr, pt, set): true, cacheKey(pr, a, set): true, cacheKey(pr, b, set): true}
	if len(keys) != 3 {
		t.Fatalf("stage keys collide: %d distinct of 3", len(keys))
	}
	if cacheKey(pr, a, set) != cacheKey(pr, Point{Stage: allgatherStage("a"), Procs: 8, MsgBytes: 4096, SegSize: pr.SegmentSize}, set) {
		t.Fatal("stage key depends on more than the stage name")
	}
	rooted := allgatherStage("a")
	rooted.Mode = RootTime
	if cacheKey(pr, a, set) == cacheKey(pr, Point{Stage: rooted, Procs: 8, MsgBytes: 4096, SegSize: pr.SegmentSize}, set) {
		t.Fatal("stage key ignores the timing mode")
	}
}

// TestSweepStageMatchesMeasure checks that stage points swept in parallel
// with templates reproduce a serial Measure per point on a fresh network,
// bit for bit, and that a stage's sizes share one compiled template.
func TestSweepStageMatchesMeasure(t *testing.T) {
	pr := sweepTestProfile(t)
	set := sweepTestSettings()
	st := allgatherStage("allgather/ring")
	var grid []Point
	for _, m := range []int{1024, 8192, 65536} {
		grid = append(grid, Point{Stage: st, Procs: 8, MsgBytes: m, SegSize: pr.SegmentSize})
	}
	reg := obs.NewRegistry()
	res, err := Sweep{Profile: pr, Settings: set, Workers: 2, Metrics: reg}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range grid {
		net, err := pr.Network()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Measure(net, pt.Procs, set, Completion, func(p *mpi.Proc) { st.Run(p, pt.MsgBytes, pt.SegSize) })
		if err != nil {
			t.Fatal(err)
		}
		sameMeasurement(t, pt.String(), want, res[i].Meas)
	}
	if got := reg.Counter(mPlanTemplates).Value(); got != 1 {
		t.Errorf("templates = %d, want 1 (one class)", got)
	}
	// Two workers may both compile the class before either publishes it.
	compiles, rebinds := reg.Counter(mPlanCompiles).Value(), reg.Counter(mPlanRebinds).Value()
	if compiles < 1 || compiles+rebinds != int64(len(grid)) {
		t.Errorf("%d compiles + %d rebinds, want >= 1 compile and %d points in total", compiles, rebinds, len(grid))
	}
	if s := grid[0].String(); s != "allgather/ring P=8 m=1024 seg="+fmt.Sprint(pr.SegmentSize) {
		t.Errorf("String() = %q", s)
	}
	if _, err := (Sweep{Profile: pr, Settings: set}).Run(context.Background(), []Point{{Stage: &Stage{Name: "empty"}, Procs: 4, MsgBytes: 8}}); err == nil {
		t.Error("a stage without Run must fail")
	}
}

// TestSweepClassGroupedGridOrder pins the sweep's output contract on a
// grid whose structure classes are strided across the workers' chunks:
// whichever worker compiles a class and whichever rebinds it, the results
// slice lines up with the input grid, index for index, identical to a
// serial sweep — deterministic grid-order results are what the goldens,
// the tables, and the fitting layers key on.
func TestSweepClassGroupedGridOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pr, err := cluster.Grisou().WithNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes-major grid over all six algorithms: points of the same class
	// (same alg, neighbouring sizes for unsegmented algs) are strided
	// apart, so concurrent workers compile and rebind the same classes.
	sizes := stats.LogSpaceBytes(8192, 1<<20, 4)
	grid := BcastGrid(pr.Nodes, coll.BcastAlgorithms(), sizes, pr.SegmentSize)
	set := Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}

	want, err := Sweep{Profile: pr, Settings: set, Workers: 1}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep{Profile: pr, Settings: set, Workers: 4}.Run(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(grid) {
		t.Fatalf("got %d results for %d grid points", len(got), len(grid))
	}
	for i := range got {
		if got[i].Point != grid[i] {
			t.Fatalf("result %d is for point %v, want grid[%d] = %v", i, got[i].Point, i, grid[i])
		}
		if got[i].Meas.Mean != want[i].Meas.Mean || got[i].Meas.Reps != want[i].Meas.Reps {
			t.Fatalf("point %d (%v): concurrent mean %v (reps %d) != serial %v (reps %d)",
				i, grid[i], got[i].Meas.Mean, got[i].Meas.Reps, want[i].Meas.Mean, want[i].Meas.Reps)
		}
	}
}
