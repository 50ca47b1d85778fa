// Command mpicollperf runs the paper's pipeline on the simulated
// clusters: calibrate per-algorithm α/β/γ, select an algorithm for
// (P, m), compile the selection into a static decision table, and
// regenerate the paper's evaluation artifacts.
//
// Usage:
//
//	mpicollperf reproduce [-cluster both] [-quick] [-csv] [-out DIR] \
//	          {fig1|table1|table2|fig5|table3|ext|robustness|metrics|all}
//	mpicollperf verify-guidelines [flags]
//	mpicollperf calibrate [-cluster grisou] [-procs 40] [-save grisou.json] \
//	          [-workers 0] [-engine auto] [-cache DIR] [-metrics metrics.json] \
//	          [-cpuprofile F] [-memprofile F] [-mutexprofile F] [-blockprofile F]
//	mpicollperf select [-cluster grisou] [-cal grisou.json] -np 90 -m 1048576
//	mpicollperf decisiontable [-cluster grisou] [-cal grisou.json] [-maxprocs 90] \
//	          [-json table.json] [-gofunc selectBcastGrisou] [-workers 0] [-cache DIR]
//	mpicollperf analyze [-cluster grisou] [-np 16] [-alg binomial] [-m 1048576] \
//	          [-seg 8192] [-width 72]
//	mpicollperf serve {submit|status|wait|list|cancel|select} [flags]
//
// reproduce runs at the paper's parameters: up to 90 (Grisou) / 124
// (Gros) processes, 10 message sizes from 8 KB to 4 MB, estimation with
// 40 (Grisou) / 124 (Gros) processes, 95%/2.5% measurement methodology;
// -quick shrinks all of it for a smoke run, and -out DIR writes each
// artifact's CSV. `all` is fig1, table1, table2, fig5 and table3;
// results/ holds the CSVs of `reproduce all ext`. Beyond the paper, ext
// scores model-based selection for the seven extended collective
// families (calibrated in one sweep); robustness re-scores the
// model-based and Open MPI fixed selectors on deterministically
// perturbed variants of each cluster (see package perturb); metrics
// calibrates each cluster twice over a shared cache with an
// observability registry attached, plus a small guideline check, and
// prints the counters, gauges and span histograms (-csv adds the JSON
// snapshot, -out DIR writes DIR/metrics_<cluster>.json).
//
// calibrate runs the paper's offline calibration (§4), γ(P) then
// per-algorithm α/β, as one parallel sweep; -save keeps it for select,
// decisiontable or a library consumer, and -cache DIR persists the
// measurements so a later run over the same grid skips them. Every
// -engine gives a bit-identical calibration. select prints the
// model-based broadcast algorithm for (-np, -m), Open MPI 3.1's fixed
// decision and every algorithm's prediction. decisiontable compiles the
// models into the static table an MPI library would ship (Open MPI's
// coll_tuned_decision_fixed.c, regenerated from models). Both load -cal,
// or calibrate first without it.
//
// analyze traces one noise-free broadcast and explains where the time
// went: per-port bottlenecks, a send-port timeline and the critical
// path. -seg 0 means the platform's segment size.
//
// serve is a client of the mpicollperfd daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/guideline"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/selection"
	"mpicollperf/internal/stats"
	"mpicollperf/internal/tables"
)

type runConfig struct {
	profiles []cluster.Profile
	sizes    []int
	// fig1P, table3P and fig5Ps map cluster name to process counts.
	fig1P   map[string]int
	table3P map[string]int
	fig5Ps  map[string][]int
	// estimation process counts (paper: 40 on Grisou, 124 on Gros).
	estProcs map[string]int
	settings experiment.Settings
	csv      bool
	outDir   string
	out      io.Writer
}

const usage = `usage: mpicollperf reproduce [flags] {fig1|table1|table2|fig5|table3|ext|robustness|metrics|all}
       mpicollperf verify-guidelines [flags]
       mpicollperf calibrate [flags]
       mpicollperf select [flags] -np N -m BYTES
       mpicollperf decisiontable [flags]
       mpicollperf analyze [flags]
       mpicollperf serve {submit|status|wait|list|cancel|select} [flags]`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperf:", err)
		os.Exit(1)
	}
}

// run dispatches one subcommand; every subcommand parses its own flags
// and writes its report to out.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	switch args[0] {
	case "reproduce":
		return runReproduce(args[1:], out)
	case "verify-guidelines":
		return runVerifyGuidelines(args[1:], out)
	case "calibrate":
		return runCalibrate(args[1:], out)
	case "select":
		return runSelect(args[1:], out)
	case "decisiontable":
		return runDecisionTable(args[1:], out)
	case "analyze":
		return runAnalyze(args[1:], out)
	case "serve":
		return runServe(args[1:], out)
	}
	return errors.New(usage)
}

// runReproduce is the `mpicollperf reproduce` subcommand: it regenerates
// the named artifacts in order.
func runReproduce(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	clusterFlag := fs.String("cluster", "both", "grisou, gros or both")
	quick := fs.Bool("quick", false, "reduced scale for a fast run")
	csv := fs.Bool("csv", false, "print CSV blocks after each artifact")
	outDir := fs.String("out", "", "directory for per-artifact CSV files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}

	cfg, err := buildConfig(*clusterFlag, *quick)
	if err != nil {
		return err
	}
	cfg.csv = *csv
	cfg.outDir = *outDir
	cfg.out = out
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
	}

	for _, target := range targets {
		start := time.Now()
		var err error
		switch target {
		case "fig1":
			err = runFig1(cfg)
		case "table1":
			err = runTable1(cfg)
		case "table2":
			err = runTable2(cfg)
		case "fig5":
			err = runFig5Table3(cfg, true, false)
		case "table3":
			err = runFig5Table3(cfg, false, true)
		case "ext":
			err = runExt(cfg)
		case "robustness":
			err = runRobustness(cfg)
		case "metrics":
			err = runMetrics(cfg)
		case "all":
			if err = runFig1(cfg); err == nil {
				if err = runTable1(cfg); err == nil {
					err = runFig5Table3(cfg, true, true) // includes table2
				}
			}
		default:
			err = fmt.Errorf("unknown target %q", target)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", target, err)
		}
		fmt.Fprintf(out, "[%s done in %v]\n\n", target, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func buildConfig(clusterFlag string, quick bool) (runConfig, error) {
	var profiles []cluster.Profile
	switch clusterFlag {
	case "both":
		profiles = cluster.All()
	default:
		pr, err := cluster.ByName(clusterFlag)
		if err != nil {
			return runConfig{}, err
		}
		profiles = []cluster.Profile{pr}
	}
	cfg := runConfig{
		profiles: profiles,
		sizes:    tables.PaperSizes(),
		fig1P:    map[string]int{"grisou": 90, "gros": 124},
		table3P:  map[string]int{"grisou": 90, "gros": 100},
		fig5Ps:   map[string][]int{"grisou": {50, 80, 90}, "gros": {80, 100, 124}},
		estProcs: map[string]int{"grisou": 40, "gros": 124},
		settings: experiment.DefaultSettings(),
	}
	if quick {
		for i, pr := range cfg.profiles {
			small, err := pr.WithNodes(24)
			if err != nil {
				return runConfig{}, err
			}
			cfg.profiles[i] = small
		}
		cfg.sizes = stats.LogSpaceBytes(8192, 1<<20, 5)
		cfg.fig1P = map[string]int{"grisou": 24, "gros": 24}
		cfg.table3P = map[string]int{"grisou": 24, "gros": 24}
		cfg.fig5Ps = map[string][]int{"grisou": {12, 24}, "gros": {12, 24}}
		cfg.estProcs = map[string]int{"grisou": 12, "gros": 12}
		cfg.settings = experiment.Settings{
			Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1,
		}
	}
	return cfg, nil
}

// emit prints an artifact and optionally writes/prints its CSV.
func emit(cfg runConfig, name, text, csv string) error {
	fmt.Fprint(cfg.out, text)
	fmt.Fprintln(cfg.out)
	if cfg.csv {
		fmt.Fprintln(cfg.out, csv)
	}
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, name+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "(wrote %s)\n", path)
	}
	return nil
}

func runFig1(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := cfg.fig1P[pr.Name]
		if p > pr.Nodes {
			p = pr.Nodes
		}
		fig, err := tables.GenerateFig1(pr, p, cfg.sizes, cfg.settings)
		if err != nil {
			return err
		}
		if err := emit(cfg, fmt.Sprintf("fig1_%s", pr.Name), fig.Render(), fig.CSV()); err != nil {
			return err
		}
		fmt.Fprintln(cfg.out, fig.PlotFig1(64, 16))
	}
	return nil
}

// runExt generates the beyond-broadcast extension table: model-based
// selection for allgather/allreduce/alltoall/reduce/gather/scatter/
// reduce-scatter (the paper's future work).
func runExt(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := cfg.estProcs[pr.Name]
		if p == 0 || p > pr.Nodes {
			p = pr.Nodes / 2
		}
		sizes := []int{4096, 65536, 1 << 20}
		tab, err := tables.GenerateExtTable(pr, p, sizes, cfg.settings)
		if err != nil {
			return err
		}
		if err := emit(cfg, fmt.Sprintf("ext_%s", pr.Name), tab.Render(), tab.CSV()); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "worst extension degradation: %.1f%%\n\n", tab.MaxDegradation())
	}
	return nil
}

// runRobustness generates the robustness artifact: models are fitted on
// the quiet cluster (exactly as for fig5/table3), then both selectors are
// scored against the oracle on deterministically perturbed variants of
// increasing intensity. The whole artifact is reproducible: the
// perturbation specs derive from a fixed seed.
func runRobustness(cfg runConfig) error {
	tab2, err := tables.GenerateTable2(cfg.profiles, cfg.estProcs, cfg.settings)
	if err != nil {
		return err
	}
	for _, pr := range cfg.profiles {
		sel := selection.ModelBased{Models: tab2.Models[pr.Name]}
		p := cfg.table3P[pr.Name]
		if p > pr.Nodes {
			p = pr.Nodes
		}
		rcfg := selection.RobustnessConfig{
			P:           p,
			Sizes:       cfg.sizes,
			Intensities: []float64{0, 0.25, 0.5, 0.75, 1},
			Seed:        1,
			Settings:    cfg.settings,
		}
		rep, err := selection.Robustness(context.Background(), pr, sel, rcfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("robustness_%s_p%d", pr.Name, p)
		if err := emit(cfg, name, rep.Render(), rep.CSV()); err != nil {
			return err
		}
	}
	return nil
}

// runMetrics generates the observability artifact: one calibration per
// cluster with a metrics registry attached. The calibration runs twice
// against a shared in-memory measurement cache, so the artifact shows both
// the cold path (points measured, engine repetitions, simulator totals,
// fit statistics) and the warm path (points served from cache). A small
// guideline-verification pass over the same registry populates the
// guideline_checks_total / guideline_violations_total counters and the
// per-guideline ratio histograms alongside.
func runMetrics(cfg runConfig) error {
	for _, pr := range cfg.profiles {
		p := cfg.estProcs[pr.Name]
		if p == 0 || p > pr.Nodes {
			p = pr.Nodes / 2
		}
		reg := obs.NewRegistry()
		acfg := estimate.AlphaBetaConfig{
			Procs:    p,
			Settings: cfg.settings,
			Cache:    experiment.NewCache(),
			Metrics:  reg,
		}
		for pass := 0; pass < 2; pass++ {
			if _, err := core.Calibrate(pr, acfg); err != nil {
				return err
			}
		}
		gh := guideline.Harness{
			Profiles:   []cluster.Profile{pr},
			Guidelines: guideline.Invariant(),
			Procs:      []int{4},
			Sizes:      []int{8 << 10},
			Settings:   experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 10, Warmup: 1, Engine: cfg.settings.Engine},
			Metrics:    reg,
		}
		if _, err := gh.Run(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(cfg.out, "observability metrics: calibration of %s (P=%d, two passes over a shared cache) plus a guideline check\n\n", pr.Name, p)
		if err := reg.WriteTable(cfg.out); err != nil {
			return err
		}
		fmt.Fprintln(cfg.out)
		if cfg.csv {
			if err := reg.WriteJSON(cfg.out); err != nil {
				return err
			}
			fmt.Fprintln(cfg.out)
		}
		if cfg.outDir != "" {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("metrics_%s.json", pr.Name))
			if err := reg.WriteJSONFile(path); err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "(wrote %s)\n", path)
		}
	}
	return nil
}

func runTable1(cfg runConfig) error {
	tab, err := tables.GenerateTable1(cfg.profiles, cfg.settings)
	if err != nil {
		return err
	}
	return emit(cfg, "table1", tab.Render(), tab.CSV())
}

func runTable2(cfg runConfig) error {
	tab, err := tables.GenerateTable2(cfg.profiles, cfg.estProcs, cfg.settings)
	if err != nil {
		return err
	}
	return emit(cfg, "table2", tab.Render(), tab.CSV())
}

// runFig5Table3 estimates the models once per cluster (printing Table 2 on
// the way) and then generates the requested selection artifacts.
func runFig5Table3(cfg runConfig, fig5, table3 bool) error {
	tab2, err := tables.GenerateTable2(cfg.profiles, cfg.estProcs, cfg.settings)
	if err != nil {
		return err
	}
	if err := emit(cfg, "table2", tab2.Render(), tab2.CSV()); err != nil {
		return err
	}
	for _, pr := range cfg.profiles {
		sel := selection.ModelBased{Models: tab2.Models[pr.Name]}
		if fig5 {
			for _, p := range cfg.fig5Ps[pr.Name] {
				if p > pr.Nodes {
					continue
				}
				panel, err := tables.GenerateFig5Panel(pr, sel, p, cfg.sizes, cfg.settings)
				if err != nil {
					return err
				}
				name := fmt.Sprintf("fig5_%s_p%d", pr.Name, p)
				if err := emit(cfg, name, panel.Render(), panel.CSV()); err != nil {
					return err
				}
				fmt.Fprintln(cfg.out, panel.PlotFig5(64, 16))
			}
		}
		if table3 {
			p := cfg.table3P[pr.Name]
			if p > pr.Nodes {
				p = pr.Nodes
			}
			tab3, err := tables.GenerateTable3(pr, sel, p, cfg.sizes, cfg.settings)
			if err != nil {
				return err
			}
			name := fmt.Sprintf("table3_%s_p%d", pr.Name, p)
			if err := emit(cfg, name, tab3.Render(), tab3.CSV()); err != nil {
				return err
			}
			fmt.Fprintf(cfg.out, "worst model-based degradation: %.1f%%\n\n", tab3.MaxModelDegradation())
		}
	}
	return nil
}
