package core

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/model"
	"mpicollperf/internal/obs"
)

// TestBestForBcast pins that the collective-generic query agrees with the
// bcast-only decision function and carries the winning predicted time.
func TestBestForBcast(t *testing.T) {
	sel := calibrateSmall(t)
	choice, err := sel.Best(16, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"", OpBcast} {
		oc, err := sel.BestFor(op, 16, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Op != OpBcast {
			t.Fatalf("op = %q", oc.Op)
		}
		if want := OpBcast + "/" + choice.Alg.String(); oc.Algorithm != want {
			t.Fatalf("BestFor = %q, Best = %q", oc.Algorithm, want)
		}
		if oc.SegSize != choice.SegSize {
			t.Fatalf("seg size %d != %d", oc.SegSize, choice.SegSize)
		}
		pred, err := sel.Predict(choice.Alg, 16, 1<<20)
		if err != nil || oc.Predicted != pred {
			t.Fatalf("predicted %v, want %v (%v)", oc.Predicted, pred, err)
		}
	}
}

// TestBestForZeroAlloc pins the hot-path contract the daemon's select
// endpoint builds on: a warm BestFor performs no allocation.
func TestBestForZeroAlloc(t *testing.T) {
	sel := calibrateSmall(t)
	if err := sel.CalibrateExtendedOp(context.Background(), "gather", estimate.AlphaBetaConfig{
		Procs: 8, Sizes: []int{4096, 65536}, Settings: fastSettings(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{OpBcast, "gather"} {
		if _, err := sel.BestFor(op, 16, 1<<20); err != nil { // warm-up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := sel.BestFor(op, 16, 1<<20); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("BestFor(%q) allocates %.1f per run, want 0", op, allocs)
		}
	}
}

// TestBestForExtended covers the extended-family path end to end:
// calibrate one family, query it, and check the typed error shapes for
// everything that is not calibrated.
func TestBestForExtended(t *testing.T) {
	sel := calibrateSmall(t)
	if _, err := sel.BestFor("allgather", 8, 65536); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated family: err = %v, want ErrNotCalibrated", err)
	}
	cfg := estimate.AlphaBetaConfig{Procs: 8, Sizes: []int{4096, 65536}, Settings: fastSettings()}
	if err := sel.CalibrateExtendedOp(context.Background(), "allgather", cfg); err != nil {
		t.Fatal(err)
	}
	oc, err := sel.BestFor("allgather", 8, 65536)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(oc.Algorithm, "allgather/") || oc.Op != "allgather" {
		t.Fatalf("extended choice = %+v", oc)
	}
	if oc.Predicted <= 0 {
		t.Fatalf("predicted time %v", oc.Predicted)
	}
	if err := sel.CalibrateExtendedOp(context.Background(), "frobnicate", cfg); err == nil {
		t.Fatal("unknown family should fail")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sel.CalibrateExtendedOp(cancelled, "reduce", cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled calibration: err = %v", err)
	}
	if _, ok := sel.Extended["reduce"]; ok {
		t.Fatal("cancelled calibration must not attach a selector")
	}
}

// TestCalibrateExtendedOpSharedCache checks that extended families go
// through the measurement cache: a second calibration sharing the Cache
// measures no point and fits bit-identical parameters.
func TestCalibrateExtendedOpSharedCache(t *testing.T) {
	sel := calibrateSmall(t)
	cfg := estimate.AlphaBetaConfig{Procs: 8, Sizes: []int{4096, 65536}, Settings: fastSettings(), Cache: experiment.NewCache()}
	var params [2][]model.Hockney
	for i := range params {
		reg := obs.NewRegistry()
		cfg.Metrics = reg
		if err := sel.CalibrateExtendedOp(context.Background(), "allreduce", cfg); err != nil {
			t.Fatal(err)
		}
		params[i] = sel.Extended["allreduce"].Params
		measured := reg.Counter("sweep_points_measured_total").Value()
		cached := reg.Counter("sweep_points_cached_total").Value()
		points := int64(len(params[i]) * len(cfg.Sizes))
		if i == 0 && (measured != points || cached != 0) {
			t.Fatalf("cold calibration: %d measured, %d cached, want %d measured", measured, cached, points)
		}
		if i == 1 && (measured != 0 || cached != points) {
			t.Fatalf("warm calibration: %d measured, %d cached, want %d cached", measured, cached, points)
		}
	}
	if !reflect.DeepEqual(params[0], params[1]) {
		t.Fatalf("cached calibration fitted %v, cold %v", params[1], params[0])
	}
}

// TestCalibrateCtxOpsMatchesPerFamily checks that calibrating broadcast
// and two extended families in one sweep gives γ, the broadcast α/β and
// every family's α/β bit-identical to a plain CalibrateCtx followed by
// one CalibrateExtendedOp per family, and that an unknown family fails
// the call before anything is measured.
func TestCalibrateCtxOpsMatchesPerFamily(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := estimate.AlphaBetaConfig{Procs: 8, Sizes: []int{4096, 65536, 524288}, Settings: fastSettings(), Workers: 2}
	ops := []string{"gather", "allreduce"}
	joint, err := CalibrateCtx(context.Background(), pr, cfg, ops...)
	if err != nil {
		t.Fatal(err)
	}
	split, err := CalibrateCtx(context.Background(), pr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := split.CalibrateExtendedOp(context.Background(), op, cfg); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b model.Hockney) bool {
		return math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) && math.Float64bits(a.Beta) == math.Float64bits(b.Beta)
	}
	if len(joint.Models.Gamma.Table) != len(split.Models.Gamma.Table) {
		t.Fatalf("γ tables of %d and %d entries", len(joint.Models.Gamma.Table), len(split.Models.Gamma.Table))
	}
	for p, g := range split.Models.Gamma.Table {
		if math.Float64bits(joint.Models.Gamma.Table[p]) != math.Float64bits(g) {
			t.Errorf("γ(%d): one sweep %v, separate %v", p, joint.Models.Gamma.Table[p], g)
		}
	}
	for alg, want := range split.Models.Params {
		if got := joint.Models.Params[alg]; !same(got, want) {
			t.Errorf("%v: one sweep %+v, separate %+v", alg, got, want)
		}
	}
	for _, op := range ops {
		got, want := joint.Extended[op], split.Extended[op]
		if got == nil || len(got.Specs) != len(want.Specs) || len(got.Params) != len(want.Params) {
			t.Fatalf("%s: one sweep attached %+v, want %d specs", op, got, len(want.Specs))
		}
		for i, p := range got.Params {
			if got.Specs[i].Name != want.Specs[i].Name || !same(p, want.Params[i]) {
				t.Errorf("%s: one sweep fits %s %+v, its own sweep %s %+v", op, got.Specs[i].Name, p, want.Specs[i].Name, want.Params[i])
			}
		}
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := CalibrateCtx(context.Background(), pr, cfg, "gather", "frobnicate"); err == nil {
		t.Fatal("an unknown family must fail the call")
	}
	if reg.Counter("sweep_points_measured_total").Value() != 0 {
		t.Fatal("a failed call must measure nothing")
	}
}

// TestCalibrateExtendedOpCancelMidFamily cancels a family calibration
// from its progress observer and checks that the sweep stops at once:
// no worker starts a new point after the cancellation, and the selector
// is left unchanged.
func TestCalibrateExtendedOpCancelMidFamily(t *testing.T) {
	sel := calibrateSmall(t)
	const workers, cancelAt = 2, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	cfg := estimate.AlphaBetaConfig{
		Procs: 8, Sizes: []int{4096, 16384, 65536, 262144}, Settings: fastSettings(), Workers: workers,
		Progress: func(d, total int, _ experiment.Result) {
			done = d
			if d == cancelAt {
				cancel()
			}
		},
	}
	if err := sel.CalibrateExtendedOp(ctx, "allreduce", cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker may finish the one point it was measuring.
	if done > cancelAt+workers-1 {
		t.Fatalf("%d points completed after cancelling at %d with %d workers", done, cancelAt, workers)
	}
	if _, ok := sel.Extended["allreduce"]; ok {
		t.Fatal("cancelled calibration must not attach a selector")
	}
}

// TestLoadModelsMissingFile pins that a missing calibration file stays
// distinguishable from a corrupt one: the error wraps fs.ErrNotExist.
func TestLoadModelsMissingFile(t *testing.T) {
	pr, err := cluster.Grisou().WithNodes(8)
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadModels(pr, filepath.Join(t.TempDir(), "absent.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist in the chain", err)
	}
	if !strings.Contains(err.Error(), "absent.json") {
		t.Fatalf("error should name the file: %v", err)
	}
}
