// Command bcastbench sweeps broadcast algorithms over message sizes on a
// simulated cluster and prints the measured execution times — the raw
// experimental curves behind the paper's figures.
//
// The (size × algorithm) grid fans out over a worker pool (one fresh
// simulator per grid point, so the numbers are identical to a serial
// run), and an optional on-disk cache lets repeated sweeps over
// overlapping grids skip already-measured points.
//
// Usage:
//
//	bcastbench [-cluster grisou] [-np 90] [-algs binomial,binary] \
//	           [-min 8192] [-max 4194304] [-points 10] [-seg 8192] \
//	           [-workers 0] [-engine auto] [-cache DIR] [-v] \
//	           [-scaling 1,2,4,8] \
//	           [-perturb SPEC] [-perturb-random ε] [-perturb-seed N] \
//	           [-metrics metrics.json] \
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	           [-mutexprofile mutex.pprof] [-blockprofile block.pprof]
//
// -np may exceed the physical cluster: the platform is then enlarged
// synthetically (cluster.Profile.Scaled) with the calibrated link
// parameters kept, which is how the paper-scale P≈1000 grids run.
//
// -scaling replaces the measurement table with a worker-scaling curve:
// the same grid is timed once per listed worker count, sharing one
// warm RunnerPool, and the speedup relative to the first count is
// printed. Mutually exclusive with -cache (cached points would make
// every count after the first trivially fast).
//
// -engine selects how repetitions execute: auto (the default) compiles
// each point's execution plan goroutine-free and re-times repetitions
// with the replay engine, falling back to the full scheduler when the
// program cannot be replayed; scheduler forces the slow path; replay
// forbids the fallback. All three produce bit-identical measurements.
//
// -perturb composes a deterministic fault scenario onto the cluster
// before sweeping (package perturb's spec syntax, e.g.
// "straggler:node=0,cpu=2;link:src=0,dst=1,bw=4"); -perturb-random
// generates one from an intensity in (0,1] and -perturb-seed. -v reports
// the plan work (points replayed from a compiled plan, and points whose
// compile failed), and how many measurements fell back from the replay
// engine to the scheduler, and why.
//
// -metrics writes a JSON observability artifact of the sweep — points
// measured vs cached, per-engine repetition counts, fallback tallies,
// simulator run/transfer totals (the internal/obs snapshot schema;
// EXPERIMENTS.md documents the metric names).
//
// With -cpuprofile/-memprofile the tool records runtime/pprof profiles of
// the sweep for `go tool pprof`; the heap profile is taken at exit.
// -mutexprofile/-blockprofile additionally record contention and blocking
// profiles (full sampling for the run's duration) — the profiles behind
// the parallel-sweep scaling diagnosis in EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/perturb"
	"mpicollperf/internal/profiling"
	"mpicollperf/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastbench:", err)
		os.Exit(1)
	}
}

// sweepSizes validates the size-sweep flags and returns the log-spaced
// grid. points must be at least 2: stats.LogSpace is defined for n >= 2,
// and a 1-point "sweep" would silently measure only min and drop max.
func sweepSizes(minM, maxM, points int) ([]int, error) {
	if minM <= 0 || maxM < minM {
		return nil, fmt.Errorf("invalid size sweep: min=%d max=%d", minM, maxM)
	}
	if points < 2 {
		return nil, fmt.Errorf("invalid size sweep: points=%d (need >= 2 to cover both min and max)", points)
	}
	return stats.LogSpaceBytes(minM, maxM, points), nil
}

// parseWorkerCounts parses the -scaling spec: a comma-separated list of
// positive worker counts, e.g. "1,2,4,8".
func parseWorkerCounts(spec string) ([]int, error) {
	fields := strings.Split(spec, ",")
	counts := make([]int, 0, len(fields))
	for _, f := range fields {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-scaling: bad worker count %q (want positive integers, e.g. \"1,2,4,8\")", f)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// runScaling times the same grid at each worker count and prints the
// speedup curve relative to the first count. One RunnerPool sized to the
// largest count is shared across all runs and warmed by an untimed
// sweep, so the curve isolates sweep concurrency from simulator
// construction. Sweep.Run clamps the effective worker count to
// GOMAXPROCS, so counts beyond the core count report that plateau
// rather than oversubscription overhead.
func runScaling(out io.Writer, pr cluster.Profile, set experiment.Settings, grid []experiment.Point, counts []int, metrics *obs.Registry) error {
	maxWorkers := 1
	for _, c := range counts {
		if c > maxWorkers {
			maxWorkers = c
		}
	}
	pool, err := experiment.NewRunnerPool(pr, maxWorkers, metrics)
	if err != nil {
		return err
	}
	warm := experiment.Sweep{Profile: pr, Settings: set, Workers: maxWorkers, Pool: pool, Metrics: metrics}
	if _, err := warm.Run(context.Background(), grid); err != nil {
		return err
	}
	secs := make([]float64, len(counts))
	for i, c := range counts {
		sw := experiment.Sweep{Profile: pr, Settings: set, Workers: c, Pool: pool, Metrics: metrics}
		start := time.Now()
		if _, err := sw.Run(context.Background(), grid); err != nil {
			return err
		}
		secs[i] = time.Since(start).Seconds()
	}
	fmt.Fprintf(out, "sweep scaling on %s, %d points, GOMAXPROCS=%d\n", pr.Name, len(grid), runtime.GOMAXPROCS(0))
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "workers\tseconds\tspeedup vs workers=%d\n", counts[0])
	for i, c := range counts {
		fmt.Fprintf(w, "%d\t%.3f\t%.2fx\n", c, secs[i], secs[0]/secs[i])
	}
	return w.Flush()
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("bcastbench", flag.ContinueOnError)
	clusterName := fs.String("cluster", "grisou", "cluster profile (grisou, gros)")
	np := fs.Int("np", 0, "number of processes (default: whole cluster)")
	algsFlag := fs.String("algs", "", "comma-separated algorithms (default: all six)")
	minM := fs.Int("min", 8192, "smallest message size in bytes")
	maxM := fs.Int("max", 4<<20, "largest message size in bytes")
	points := fs.Int("points", 10, "number of log-spaced sizes (>= 2)")
	seg := fs.Int("seg", 0, "segment size (default: the platform's 8 KB)")
	workers := fs.Int("workers", 0, "concurrent measurements (0 = GOMAXPROCS, 1 = serial; clamped to GOMAXPROCS)")
	scalingFlag := fs.String("scaling", "", "comma-separated worker counts: time the sweep at each and print the scaling curve instead of the measurement table")
	engineFlag := fs.String("engine", "auto", "execution engine: auto (replay with scheduler fallback), scheduler, replay")
	perturbFlag := fs.String("perturb", "", "perturbation spec to compose onto the cluster (e.g. \"straggler:node=0,cpu=2;jitter:pareto,alpha=2\")")
	perturbRandom := fs.Float64("perturb-random", 0, "generate a random perturbation of this intensity in (0, 1]")
	perturbSeed := fs.Int64("perturb-seed", 1, "seed for -perturb-random")
	verbose := fs.Bool("v", false, "report replay-engine fallback counts after the sweep")
	metricsPath := fs.String("metrics", "", "write a JSON metrics artifact of the sweep to this file")
	cacheDir := fs.String("cache", "", "reuse measurements from this directory (created if missing)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
	blockProfile := fs.String("blockprofile", "", "write a blocking profile of the sweep to this file")
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
	if *np == 0 {
		*np = pr.Nodes
	}
	if *np < 2 {
		return fmt.Errorf("np %d, need >= 2", *np)
	}
	if *np > pr.Nodes {
		// Production-sized grids: enlarge the platform synthetically,
		// keeping the calibrated link parameters (cluster.Profile.Scaled).
		if pr, err = pr.Scaled(*np); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "np %d exceeds the physical cluster; sweeping the scaled platform %s\n", *np, pr.Name)
	}
	if *seg == 0 {
		*seg = pr.SegmentSize
	}
	if *perturbFlag != "" && *perturbRandom != 0 {
		return fmt.Errorf("-perturb and -perturb-random are mutually exclusive")
	}
	if *perturbFlag != "" {
		spec, err := perturb.Parse(*perturbFlag)
		if err != nil {
			return err
		}
		if err := spec.Validate(pr.Net.NICs()); err != nil {
			return err
		}
		pr = pr.Perturbed(spec)
	} else if *perturbRandom != 0 {
		if *perturbRandom < 0 || *perturbRandom > 1 {
			return fmt.Errorf("-perturb-random %g outside (0, 1]", *perturbRandom)
		}
		pr = pr.Perturbed(perturb.Random(*perturbSeed, *perturbRandom, pr.Net.NICs()))
	}
	sizes, err := sweepSizes(*minM, *maxM, *points)
	if err != nil {
		return err
	}

	var algs []coll.BcastAlgorithm
	if *algsFlag == "" {
		algs = coll.BcastAlgorithms()
	} else {
		for _, name := range strings.Split(*algsFlag, ",") {
			alg, err := coll.ParseBcastAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			algs = append(algs, alg)
		}
	}

	engine, err := experiment.ParseEngine(*engineFlag)
	if err != nil {
		return err
	}
	set := experiment.DefaultSettings()
	set.Engine = engine

	sw := experiment.Sweep{
		Profile:  pr,
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
		if sw.Cache, err = experiment.NewDiskCache(*cacheDir); err != nil {
			return err
		}
	}
	if *metricsPath != "" || *verbose {
		// -v reads the plan counters back out of the registry, so
		// it needs one even without a -metrics artifact.
		sw.Metrics = obs.NewRegistry()
	}

	grid := experiment.BcastGrid(*np, algs, sizes, *seg)
	if *scalingFlag != "" {
		if *cacheDir != "" {
			return fmt.Errorf("-scaling and -cache are mutually exclusive: cached points would make every count after the first trivially fast")
		}
		counts, err := parseWorkerCounts(*scalingFlag)
		if err != nil {
			return err
		}
		if err := runScaling(out, pr, set, grid, counts, sw.Metrics); err != nil {
			return err
		}
		if *metricsPath != "" {
			return sw.Metrics.WriteJSONFile(*metricsPath)
		}
		return nil
	}
	results, err := sw.Run(context.Background(), grid)
	if err != nil {
		return err
	}
	if *metricsPath != "" {
		if err := sw.Metrics.WriteJSONFile(*metricsPath); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "broadcast sweep on %s, P=%d, segment=%d B\n", pr.Name, *np, *seg)
	if *verbose {
		compiled := sw.Metrics.Counter("experiment_plan_compiles_total").Value()
		fellBack := sw.Metrics.Counter(obs.Name("experiment_fallbacks_total", "reason", "compile")).Value()
		fmt.Fprintf(out, "plans: %d compiled, %d compile fallbacks\n", compiled, fellBack)
		if counts := experiment.CountFallbacks(results); len(counts) == 0 {
			fmt.Fprintln(out, "engine fallbacks: none")
		} else {
			reasons := make([]string, 0, len(counts))
			for r := range counts {
				reasons = append(reasons, string(r))
			}
			sort.Strings(reasons)
			parts := make([]string, len(reasons))
			for i, r := range reasons {
				parts[i] = fmt.Sprintf("%s×%d", r, counts[experiment.FallbackReason(r)])
			}
			fmt.Fprintf(out, "engine fallbacks: %s\n", strings.Join(parts, ", "))
		}
	}
	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprint(w, "m (bytes)")
	for _, alg := range algs {
		fmt.Fprintf(w, "\t%v (s)", alg)
	}
	fmt.Fprintln(w)
	// BcastGrid is sizes-major: results[i*len(algs)+j] is (sizes[i], algs[j]).
	for i, m := range sizes {
		fmt.Fprintf(w, "%d", m)
		for j := range algs {
			fmt.Fprintf(w, "\t%.6f", results[i*len(algs)+j].Meas.Mean)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
