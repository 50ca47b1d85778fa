// Command fitparams runs the paper's offline calibration (§4) on a
// simulated cluster: γ(P) estimation followed by per-algorithm α/β
// estimation, optionally persisting the result for later use by selectalg
// or a library consumer.
//
// The calibration grid — γ(P) experiments plus every algorithm's per-size
// experiments — is dispatched as one parallel sweep (-workers); with
// -cache the measurements persist on disk, so a later decisiongen (or a
// re-run) over the same grid skips them.
//
// Usage:
//
//	fitparams [-cluster grisou] [-procs 40] [-save grisou.json] \
//	          [-workers 0] [-engine auto] [-cache DIR] \
//	          [-metrics metrics.json] \
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	          [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// -engine selects the measurement execution engine (auto, scheduler,
// replay); all three produce bit-identical calibrations, with auto
// re-timing repetitions from compiled execution plans for speed.
//
// -metrics writes a JSON observability artifact of the calibration —
// sweep and engine counters plus per-algorithm fit durations, Huber
// iteration counts, and residual norms (the internal/obs snapshot
// schema; EXPERIMENTS.md documents the metric names).
//
// With -cpuprofile/-memprofile the tool records runtime/pprof profiles of
// the calibration for `go tool pprof`; the heap profile is taken at exit.
// -mutexprofile/-blockprofile additionally record contention and blocking
// profiles of the parallel sweep (full sampling for the run's duration).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/profiling"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fitparams:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("fitparams", flag.ContinueOnError)
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
