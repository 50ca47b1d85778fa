package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepSizesRejectsSinglePoint is the regression test for the
// -points 1 bug: stats.LogSpace returns just [lo] for n <= 1, so a
// 1-point sweep used to silently measure only -min and drop -max. The
// flag validation now rejects it.
func TestSweepSizesRejectsSinglePoint(t *testing.T) {
	for _, points := range []int{-1, 0, 1} {
		if _, err := sweepSizes(8192, 4<<20, points); err == nil {
			t.Errorf("points=%d accepted; a <2-point sweep cannot cover both min and max", points)
		}
	}
}

func TestSweepSizesCoversBothEndpoints(t *testing.T) {
	sizes, err := sweepSizes(8192, 4<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != 8192 || sizes[1] != 4<<20 {
		t.Fatalf("sweepSizes(8192, 4MB, 2) = %v, want [8192 4194304]", sizes)
	}
}

func TestSweepSizesRejectsInvertedRange(t *testing.T) {
	if _, err := sweepSizes(4<<20, 8192, 10); err == nil {
		t.Error("inverted min/max accepted")
	}
	if _, err := sweepSizes(0, 8192, 10); err == nil {
		t.Error("non-positive min accepted")
	}
}

// TestProfileFlagsWriteFiles runs a minimal sweep with both pprof flags
// and checks the profile files come out non-empty — the whole point of
// the flags is handing `go tool pprof` something to open.
func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	mutex := filepath.Join(dir, "mutex.pprof")
	block := filepath.Join(dir, "block.pprof")
	err := run([]string{
		"-np", "4", "-algs", "linear", "-min", "8192", "-max", "16384",
		"-points", "2", "-workers", "1",
		"-cpuprofile", cpu, "-memprofile", mem,
		"-mutexprofile", mutex, "-blockprofile", block,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem, mutex, block} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", filepath.Base(path))
		}
	}
}

// TestProfileFlagValidation: an unwritable profile path must fail before
// any measurement runs.
func TestProfileFlagValidation(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")
	if err := run([]string{"-cpuprofile", bad}, io.Discard); err == nil {
		t.Fatal("unwritable -cpuprofile path accepted")
	}
	bad = filepath.Join(t.TempDir(), "no", "such", "dir", "mutex.pprof")
	if err := run([]string{"-mutexprofile", bad}, io.Discard); err == nil {
		t.Fatal("unwritable -mutexprofile path accepted")
	}
}

// TestScaledNP: -np beyond the physical cluster enlarges the platform
// instead of erroring; below 2 it is still rejected.
func TestScaledNP(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-cluster", "grisou", "-np", "128", "-algs", "binomial",
		"-min", "8192", "-max", "16384", "-points", "2", "-workers", "1",
	}, &out)
	if err != nil {
		t.Fatalf("-np 128 on the 90-node grisou: %v", err)
	}
	if !strings.Contains(out.String(), "grisou@128") || !strings.Contains(out.String(), "P=128") {
		t.Fatalf("scaled sweep header missing grisou@128 / P=128:\n%s", out.String())
	}
	if err := run([]string{"-np", "1"}, io.Discard); err == nil {
		t.Fatal("-np 1 accepted")
	}
}

// TestScalingFlag: -scaling prints one timed row per worker count with
// the speedup column, and rejects bad specs and -cache combination.
func TestScalingFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-np", "6", "-algs", "linear,binomial", "-min", "8192", "-max", "16384",
		"-points", "2", "-scaling", "1,2",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"sweep scaling on grisou", "speedup vs workers=1", "\n1 ", "\n2 ", "1.00x"} {
		if !strings.Contains(got, want) {
			t.Errorf("scaling output missing %q:\n%s", want, got)
		}
	}
	if err := run([]string{"-scaling", "1,zero"}, io.Discard); err == nil {
		t.Error("-scaling 1,zero accepted")
	}
	if err := run([]string{"-scaling", "0"}, io.Discard); err == nil {
		t.Error("-scaling 0 accepted")
	}
	if err := run([]string{"-scaling", "1,2", "-cache", t.TempDir()}, io.Discard); err == nil {
		t.Error("-scaling with -cache accepted")
	}
}

// TestScalingFlagMetrics: -scaling composes with -metrics — the artifact
// must record the pooled sweep's gauges.
func TestScalingFlagMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	err := run([]string{
		"-np", "4", "-algs", "linear", "-min", "8192", "-max", "16384",
		"-points", "2", "-scaling", "1", "-metrics", path,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mpi_runner_pool_created_total", "sweep_workers"} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("metrics artifact missing %q", want)
		}
	}
}

// TestVerboseClassScheduling: -v reports the plan work split. A serial
// 2-size × 1-alg grid has 2 structure classes (unsegmented algorithms
// share one class across sizes, but binomial segments, so each size is
// its own class): both points compile and publish, none rebinds.
func TestVerboseClassScheduling(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-np", "4", "-algs", "binomial", "-min", "8192", "-max", "16384",
		"-points", "2", "-workers", "1", "-v",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "plans: 2 compiled, 2 templates published, 0 points rebound, 0 rebind divergences") {
		t.Errorf("-v output missing the plan line:\n%s", got)
	}
}

// TestEngineFlag: every engine produces byte-identical sweep output, and
// an unknown engine name is rejected.
func TestEngineFlag(t *testing.T) {
	sweep := func(engine string) string {
		var out strings.Builder
		err := run([]string{
			"-np", "6", "-min", "8192", "-max", "65536",
			"-points", "2", "-workers", "1", "-engine", engine,
		}, &out)
		if err != nil {
			t.Fatalf("-engine %s: %v", engine, err)
		}
		return out.String()
	}
	ref := sweep("scheduler")
	for _, engine := range []string{"auto", "replay"} {
		if got := sweep(engine); got != ref {
			t.Errorf("-engine %s output differs from scheduler:\n%s\nvs\n%s", engine, got, ref)
		}
	}
	if err := run([]string{"-engine", "warp"}, io.Discard); err == nil {
		t.Fatal("unknown -engine accepted")
	}
}
