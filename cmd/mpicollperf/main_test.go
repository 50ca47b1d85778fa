package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpicollperf/internal/decision"
)

func TestBuildConfigFullScale(t *testing.T) {
	cfg, err := buildConfig("both", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.profiles) != 2 {
		t.Fatalf("profiles = %d", len(cfg.profiles))
	}
	if len(cfg.sizes) != 10 || cfg.sizes[0] != 8192 || cfg.sizes[9] != 4<<20 {
		t.Fatalf("paper size grid wrong: %v", cfg.sizes)
	}
	// The paper's evaluation parameters.
	if cfg.table3P["grisou"] != 90 || cfg.table3P["gros"] != 100 {
		t.Fatalf("table3 process counts: %v", cfg.table3P)
	}
	if cfg.estProcs["grisou"] != 40 || cfg.estProcs["gros"] != 124 {
		t.Fatalf("estimation process counts: %v", cfg.estProcs)
	}
	if got := cfg.fig5Ps["grisou"]; len(got) != 3 || got[2] != 90 {
		t.Fatalf("fig5 grisou P values: %v", got)
	}
}

func TestBuildConfigQuickAndSingleCluster(t *testing.T) {
	cfg, err := buildConfig("gros", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.profiles) != 1 || cfg.profiles[0].Name != "gros" {
		t.Fatalf("profiles = %+v", cfg.profiles)
	}
	if cfg.profiles[0].Nodes != 24 {
		t.Fatalf("quick mode should shrink the cluster, got %d nodes", cfg.profiles[0].Nodes)
	}
	if _, err := buildConfig("fugaku", false); err == nil {
		t.Fatal("unknown cluster should fail")
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil, io.Discard); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"frobnicate"}, io.Discard); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := run([]string{"reproduce", "-quick", "-cluster", "grisou", "nosuch"}, io.Discard); err == nil {
		t.Fatal("unknown target should fail")
	}
}

func TestRunQuickTable1WritesCSV(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"reproduce", "-quick", "-cluster", "grisou", "-out", dir, "table1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "cluster,P,gamma\n") || !strings.Contains(text, "grisou,7,") {
		t.Fatalf("table1 csv:\n%s", text)
	}
}

// TestReproduceMatchesResults pins the paper's artifacts: a full-scale
// `reproduce all ext` must regenerate every CSV under results/ byte for
// byte. The simulator is deterministic, so any drift is a behaviour
// change, not noise.
func TestReproduceMatchesResults(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale regeneration; too slow under the race detector")
	}
	dir := t.TempDir()
	if err := run([]string{"reproduce", "-out", dir, "all", "ext"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 14 {
		t.Fatalf("results/ holds %d CSV files, want 14", len(want))
	}
	for _, path := range want {
		name := filepath.Base(path)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s not regenerated: %v", name, err)
			continue
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s differs from results/%s", name, name)
		}
	}
}

// TestPipelineSubcommands drives calibrate → select → decisiontable
// through run, and checks that bad flags fail before any measuring or
// simulating starts. Steps run in order: later ones read the files
// earlier ones wrote.
func TestPipelineSubcommands(t *testing.T) {
	dir := t.TempDir()
	cal := filepath.Join(dir, "grisou.json")
	tab := filepath.Join(dir, "table.json")
	steps := []struct {
		name    string
		args    []string
		wantErr string // empty: must succeed and print something
	}{
		{"calibrate_unknown_cluster", []string{"calibrate", "-cluster", "nonesuch"}, "unknown profile"},
		{"calibrate_unwritable_memprofile", []string{"calibrate", "-memprofile", filepath.Join(dir, "no", "such", "dir", "mem.pprof")}, "profiling"},
		{"analyze_negative_m", []string{"analyze", "-m", "-5"}, "-m >= 0"},
		{"analyze_negative_seg", []string{"analyze", "-seg", "-1"}, "-seg >= 0"},
		{"analyze_unknown_alg", []string{"analyze", "-np", "4", "-alg", "nosuch"}, "nosuch"},
		{"select_needs_np", []string{"select", "-m", "1024"}, "-np >= 2"},
		{"calibrate", []string{"calibrate", "-cluster", "grisou", "-save", cal}, ""},
		{"select", []string{"select", "-cal", cal, "-np", "90", "-m", "1048576"}, ""},
		{"select_wrong_profile", []string{"select", "-cluster", "gros", "-cal", cal, "-np", "90", "-m", "1048576"}, "calibration is for"},
		{"decisiontable", []string{"decisiontable", "-cal", cal, "-json", tab}, ""},
		{"analyze", []string{"analyze", "-np", "4", "-m", "65536"}, ""},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(st.args, &out)
			switch {
			case st.wantErr != "" && (err == nil || !strings.Contains(err.Error(), st.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, st.wantErr)
			case st.wantErr == "" && err != nil:
				t.Fatal(err)
			case st.wantErr == "" && out.Len() == 0:
				t.Fatal("no output")
			}
		})
	}
	if _, err := decision.Load(tab); err != nil {
		t.Fatalf("decisiontable -json wrote an unloadable table: %v", err)
	}
}
