// Command perfbench is mpicollperf's end-to-end and per-layer benchmark.
// It drives the library, the guideline harness and an in-process
// mpicollperfd from one process:
//
//	bash perfbench/run.sh --workload calibrate_bcast --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports every end-to-end metric; with --trace 1 it
// runs the workload's operation traced and untraced plus a probe of every
// layer, reports the per-layer metrics and writes a Chrome trace-event
// file. It prints a readable report, writes a result record (environment,
// seed, metrics with sample counts, failures) under --out, and ends its
// standard output with one JSON summary line. Any failed correctness
// check makes it exit 1. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// envRecord is stored next to every result: the old BENCH_*.json
// records all ran on one CPU, so core counts must be visible.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny,omitempty"`
	Start      string  `json:"start"`
}

// record is the result file written for every run.
type record struct {
	Env       envRecord         `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]valueJ `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	// Samples holds the raw per-operation samples of every series short
	// enough to list (the select latencies are summarised instead).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

type valueJ struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	// Spread is the within-run interquartile range of the samples as a
	// share of their median (0 below two samples).
	Spread float64 `json:"spread,omitempty"`
	Moves  string  `json:"moves,omitempty"`
}

// summaryMetric is one metric of the final stdout line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: calibrate_bcast or select_serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: noise seed, guideline perturbations, select mix")
	fs.Float64Var(&cfg.seconds, "seconds", 8, "measured interval; every operation still runs at least four units")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run")
	fs.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for result records, traces and scratch stores")
	fs.BoolVar(&cfg.tiny, "tiny", false, "16-node platforms and the quick guideline grid (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	env := envRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Tiny: cfg.tiny,
		Start: time.Now().UTC().Format(time.RFC3339),
	}
	b, err := newBench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ctx := context.Background()
	var metrics map[string]value
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		var lm layerMetrics
		lm, err = b.runLayers(ctx)
		metrics = lm
	} else {
		metrics, err = b.runEndToEnd(ctx)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	rec := record{Env: env, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]valueJ{}, Failures: b.failures, Notes: b.notes, Samples: map[string][]float64{}}
	for name, xs := range b.samples {
		if len(xs) <= 200 {
			rec.Samples[name] = xs
		}
	}
	sum := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]summaryMetric{}}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			rec.Failures = append(rec.Failures, fmt.Sprintf("metric %s was not measured", d.Name))
			v = value{V: 0, Unit: d.Unit}
		}
		rec.Metrics[d.Name] = valueJ{v.V, d.Unit, v.N, v.Spread, d.Moves}
		if !recordOnly[d.Name] {
			sum.Metrics[d.Name] = summaryMetric{v.V, d.Unit}
		}
	}
	rec.Correct = len(rec.Failures) == 0 && b.failed == 0 && b.attempted > 0
	sum.Correct = rec.Correct
	if sum.Attempted == 0 {
		sum.Attempted = 1
		sum.Failed = 1
	}

	report(stdout, rec, defs)
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, *traceFlag))
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing result record:", err)
		} else {
			fmt.Fprintln(stdout, "result record:", path)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// report prints the human-readable part of the output.
func report(w io.Writer, rec record, defs []metricDef) {
	e := rec.Env
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", e.Workload, e.Seed, e.Seconds, e.Trace)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.OS, e.Arch, e.CPUModel)
	for _, d := range defs {
		v := rec.Metrics[d.Name]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s n=%-6d iqr/med=%-6.3f %s\n", d.Name, v.Value, v.Unit, v.Samples, v.Spread, d.Moves)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
	notes := append([]string(nil), rec.Notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}
