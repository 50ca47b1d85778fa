package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/decision"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/profiling"
	"mpicollperf/internal/selection"
)

// runCalibrate is the `mpicollperf calibrate` subcommand: it calibrates a
// platform, prints γ(P) and every algorithm's α/β, and optionally saves
// the calibration for select, decisiontable or a library consumer.
func runCalibrate(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	clusterName := fs.String("cluster", "grisou", "cluster profile (grisou, gros)")
	procs := fs.Int("procs", 0, "processes for the α/β experiments (default: half the cluster)")
	save := fs.String("save", "", "write the calibration to this JSON file")
	workers := fs.Int("workers", 0, "concurrent measurements (0 = GOMAXPROCS, 1 = serial)")
	engineFlag := fs.String("engine", "auto", "execution engine: auto (replay with scheduler fallback), scheduler, replay")
	metricsPath := fs.String("metrics", "", "write a JSON metrics artifact of the calibration to this file")
	cacheDir := fs.String("cache", "", "reuse measurements from this directory (created if missing)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the calibration to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile of the calibration to this file")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile of the calibration to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := profiling.StartWith(profiling.Config{
		CPUPath:   *cpuProfile,
		MemPath:   *memProfile,
		MutexPath: *mutexProfile,
		BlockPath: *blockProfile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	pr, err := cluster.ByName(*clusterName)
	if err != nil {
		return err
	}
	engine, err := experiment.ParseEngine(*engineFlag)
	if err != nil {
		return err
	}
	set := experiment.DefaultSettings()
	set.Engine = engine
	cfg := estimate.AlphaBetaConfig{
		Procs:    *procs,
		Settings: set,
		Workers:  *workers,
		Progress: func(done, total int, r experiment.Result) {
			fmt.Fprintf(os.Stderr, "\rmeasured %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}
	if *cacheDir != "" {
		if cfg.Cache, err = experiment.NewDiskCache(*cacheDir); err != nil {
			return err
		}
	}
	if *metricsPath != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	sel, err := core.Calibrate(pr, cfg)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := cfg.Metrics.WriteJSONFile(*metricsPath); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "calibration of %s (segment size %d B)\n\n", pr.Name, pr.SegmentSize)
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "P\tgamma(P)\treps\tCI rel err")
	for p := 2; p <= pr.MaxLinearFanout; p++ {
		meas := sel.GammaDetail.Measurements[p]
		fmt.Fprintf(w, "%d\t%.3f\t%d\t%.4f\n",
			p, sel.Models.Gamma.At(p), meas.Reps, meas.CI.RelativeError())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "algorithm\talpha (s)\tbeta (s/B)")
	for _, alg := range coll.BcastAlgorithms() {
		par := sel.Models.Params[alg]
		fmt.Fprintf(w, "%v\t%.3e\t%.3e\n", alg, par.Alpha, par.Beta)
	}
	w.Flush()

	if *save != "" {
		if err := sel.SaveModels(*save); err != nil {
			return err
		}
		fmt.Fprintf(out, "\ncalibration written to %s\n", *save)
	}
	return nil
}

// loadOrCalibrate loads the calibration saved at calPath or, when calPath
// is empty, calibrates pr now with the default settings, reusing the
// measurements in cacheDir when it is set.
func loadOrCalibrate(pr cluster.Profile, calPath, cacheDir string, workers int) (*core.Selector, error) {
	if calPath != "" {
		return core.LoadModels(pr, calPath)
	}
	fmt.Fprintln(os.Stderr, "(no -cal file: running calibration, this takes a moment)")
	cfg := estimate.AlphaBetaConfig{Settings: experiment.DefaultSettings(), Workers: workers}
	if cacheDir != "" {
		var err error
		if cfg.Cache, err = experiment.NewDiskCache(cacheDir); err != nil {
			return nil, err
		}
	}
	return core.Calibrate(pr, cfg)
}

// runSelect is the `mpicollperf select` subcommand: the model-based
// broadcast algorithm for (-np, -m), Open MPI 3.1's fixed decision, and
// every algorithm's predicted time, fastest first.
func runSelect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("select", flag.ContinueOnError)
	clusterName := fs.String("cluster", "grisou", "cluster profile (grisou, gros)")
	calPath := fs.String("cal", "", "calibration JSON from calibrate -save (default: calibrate now)")
	np := fs.Int("np", 0, "number of processes (required)")
	m := fs.Int("m", 0, "message size in bytes (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *np < 2 || *m < 0 {
		return fmt.Errorf("need -np >= 2 and -m >= 0")
	}
	pr, err := cluster.ByName(*clusterName)
	if err != nil {
		return err
	}
	sel, err := loadOrCalibrate(pr, *calPath, "", 0)
	if err != nil {
		return err
	}

	choice, err := sel.Best(*np, *m)
	if err != nil {
		return err
	}
	ompi := selection.OpenMPIFixed(*np, *m)
	fmt.Fprintf(out, "cluster=%s P=%d m=%d B\n", pr.Name, *np, *m)
	fmt.Fprintf(out, "model-based selection: %v\n", choice)
	fmt.Fprintf(out, "open mpi 3.1 decision: %v\n\n", ompi)

	preds := sel.PredictAll(*np, *m)
	algs := make([]coll.BcastAlgorithm, 0, len(preds))
	for a := range preds {
		algs = append(algs, a)
	}
	sort.Slice(algs, func(i, j int) bool { return preds[algs[i]] < preds[algs[j]] })
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "rank\talgorithm\tpredicted time (s)")
	for i, a := range algs {
		fmt.Fprintf(w, "%d\t%v\t%.6f\n", i+1, a, preds[a])
	}
	return w.Flush()
}

// runDecisionTable is the `mpicollperf decisiontable` subcommand: it
// compiles a calibration into a static decision table and prints it, or
// writes it as JSON (-json) or as a Go function (-gofunc).
func runDecisionTable(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("decisiontable", flag.ContinueOnError)
	clusterName := fs.String("cluster", "grisou", "cluster profile (grisou, gros)")
	calPath := fs.String("cal", "", "calibration JSON from calibrate -save (default: calibrate now)")
	maxProcs := fs.Int("maxprocs", 0, "largest communicator size (default: the platform)")
	jsonPath := fs.String("json", "", "write the table as JSON to this path")
	goFunc := fs.String("gofunc", "", "emit the table as a Go function with this name")
	workers := fs.Int("workers", 0, "concurrent calibration measurements (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := fs.String("cache", "", "reuse calibration measurements from this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	pr, err := cluster.ByName(*clusterName)
	if err != nil {
		return err
	}
	if *maxProcs == 0 {
		*maxProcs = pr.Nodes
	}
	sel, err := loadOrCalibrate(pr, *calPath, *cacheDir, *workers)
	if err != nil {
		return err
	}

	tab, err := decision.Compile(sel.Models, decision.CompileConfig{MaxProcs: *maxProcs})
	if err != nil {
		return err
	}

	if *jsonPath != "" {
		if err := tab.Save(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "table written to %s\n", *jsonPath)
	}
	if *goFunc != "" {
		fmt.Fprintln(out, tab.GoSource(*goFunc))
	}
	if *jsonPath == "" && *goFunc == "" {
		fmt.Fprintf(out, "compiled decision table for %s (segment %d B)\n", tab.Cluster, tab.SegSize)
		for _, row := range tab.Rows {
			fmt.Fprintf(out, "  P <= %d:\n", row.Procs)
			for i, rule := range row.Rules {
				if i == len(row.Rules)-1 {
					fmt.Fprintf(out, "    otherwise       -> %s\n", rule.Alg)
				} else {
					fmt.Fprintf(out, "    m <= %-10d -> %s\n", rule.MaxBytes, rule.Alg)
				}
			}
		}
	}
	return nil
}
