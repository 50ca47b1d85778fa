package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
)

// Stage is the operation a grid point measures: any collective every
// rank executes, parameterised by the point's message size and segment
// size, together with how its repetitions are timed.
type Stage struct {
	// Name identifies the operation (e.g. "allgather/ring"). Together
	// with Mode it is the stage's whole identity in measurement cache
	// keys, so two stages of one name must run the same operation.
	Name string
	// Mode selects what a repetition's sample measures; the zero value
	// is Completion.
	Mode Mode
	// TimingIndependent declares that the operation's structure never
	// depends on received sizes or on how often it has run, so its points
	// skip the verify pass (mpi.Runner.Verify): one compile
	// (mpi.Runner.Compile) is replayed directly. Every point is compiled
	// either way, and one that cannot be compiled or replayed is measured
	// under the scheduler.
	TimingIndependent bool
	// Run executes one instance of the operation on every rank.
	Run func(p *mpi.Proc, m, segSize int)
}

// BcastStage is a broadcast of the point's m bytes from rank 0 with
// algorithm alg, in Completion mode (the time until every rank holds the
// message) — one point of the paper's comparison figures. The §4.1 γ(P)
// experiment is BcastStage(coll.BcastLinear) at SegSize 0.
func BcastStage(alg coll.BcastAlgorithm) *Stage {
	return &Stage{
		Name:              "bcast/" + alg.String(),
		TimingIndependent: true,
		Run: func(p *mpi.Proc, m, segSize int) {
			coll.Bcast(p, alg, 0, coll.Synthetic(m), segSize)
		},
	}
}

// BcastThenGatherStage is the paper's §4.2 estimation experiment: the
// broadcast of BcastStage(alg) followed by a linear-without-
// synchronisation gather of mg bytes per rank onto the root, timed on the
// root (the experiment starts and finishes there).
func BcastThenGatherStage(alg coll.BcastAlgorithm, mg int) *Stage {
	return &Stage{
		Name:              fmt.Sprintf("bcast/%v+gatherlinear/mg=%d", alg, mg),
		Mode:              RootTime,
		TimingIndependent: true,
		Run: func(p *mpi.Proc, m, segSize int) {
			coll.Bcast(p, alg, 0, coll.Synthetic(m), segSize)
			if p.Rank() == 0 {
				coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg*p.Size()), mg)
			} else {
				coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg), mg)
			}
		},
	}
}

// Point is one cell of a measurement grid: a fully specified experiment
// whose outcome is deterministic given the cluster profile and the
// measurement settings.
type Point struct {
	// Stage is the operation under measurement; it is required.
	Stage *Stage
	// Procs is the communicator size.
	Procs int
	// MsgBytes is the stage's message size m.
	MsgBytes int
	// SegSize is the stage's segment size (0 = unsegmented).
	SegSize int
}

func (pt Point) String() string {
	name := "<no stage>"
	if pt.Stage != nil {
		name = pt.Stage.Name
	}
	return fmt.Sprintf("%s P=%d m=%d seg=%d", name, pt.Procs, pt.MsgBytes, pt.SegSize)
}

// Result pairs a grid point with its measurement.
type Result struct {
	// Point is the grid point the measurement belongs to.
	Point Point
	// Meas is the measurement outcome.
	Meas Measurement
	// Cached reports that the measurement was served from the sweep's
	// cache instead of being run.
	Cached bool
}

// CountFallbacks tallies, per reason, the sweep results whose measurement
// fell back from the replay engine to the scheduler (Measurement.Fallback).
// The total map is empty when nothing fell back. Cached results never
// count: the fallback reason is observability metadata of the run that
// produced the measurement, not of the measurement itself.
func CountFallbacks(results []Result) map[FallbackReason]int {
	var counts map[FallbackReason]int
	for _, r := range results {
		if r.Cached || r.Meas.Fallback == FallbackNone {
			continue
		}
		if counts == nil {
			counts = make(map[FallbackReason]int)
		}
		counts[r.Meas.Fallback]++
	}
	return counts
}

// Progress observes sweep completion events. It is called once per grid
// point, serialised (never concurrently), with the number of points
// finished so far, the grid size, and the point's result. Completion
// order is nondeterministic under concurrency; only the returned slice
// of Run is ordered.
type Progress func(done, total int, r Result)

// Sweep runs a grid of measurement points over a bounded worker pool.
//
// Every worker owns one reusable mpi.Runner for the duration of a Run (a
// private simulator plus warm scheduler state, reset between points), so
// concurrent measurements share no mutable state and the results are
// bit-identical to running the same grid serially with a fresh simulator
// per point — the scheduler inside each simulated MPI run, the noise
// stream, and the adaptive repetition loop are all per-measurement
// deterministic. Workers claim one point at a time from an atomic cursor
// over the grid sorted heaviest first (descending Procs·MsgBytes), so the
// costliest points start early and the grid's tail is its cheapest
// points: workers finish together instead of one waiting on the last big
// point.
//
// The zero value is not usable; Profile must be set. All other fields are
// optional.
type Sweep struct {
	// Profile is the simulated platform every point runs on.
	Profile cluster.Profile
	// Settings drive the adaptive measurement of every point; the zero
	// value is normalised exactly as Measure normalises it, so a Sweep
	// and direct Measure calls with the same Settings agree.
	Settings Settings
	// Workers bounds the number of concurrently measured points.
	// 0 (or negative) means runtime.GOMAXPROCS(0); 1 reproduces the
	// serial path. The effective count is additionally clamped to
	// GOMAXPROCS and the grid size: measurements are pure CPU, so
	// workers beyond the schedulable cores only thrash caches and
	// interleave working sets — the anti-scaling this clamp removes.
	// Each worker builds one Runner on its first uncached point and
	// reuses it for the rest of the Run. Worker count never changes
	// results.
	Workers int
	// Cache, if non-nil, is consulted before and filled after each
	// measurement, keyed by the full experiment identity (profile,
	// point, settings).
	Cache *Cache
	// Progress, if non-nil, is invoked after each point completes.
	Progress Progress
	// Metrics, if non-nil, receives sweep counters (points measured and
	// served from cache, per-engine repetition counts, fallback tallies),
	// level gauges (effective workers, points not yet completed), a
	// sweep_run_seconds span per Run, and the cache size gauge. Workers share the registry; it is
	// never consulted for decisions, so results are bit-identical with or
	// without it.
	Metrics *obs.Registry
}

// claimOrder returns the grid indices in the order workers claim them:
// descending Procs·MsgBytes, the points' cost proxy, ties by grid index.
func claimOrder(points []Point) []int {
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	weight := func(i int) int64 { return int64(points[i].Procs) * int64(points[i].MsgBytes) }
	sort.SliceStable(order, func(a, b int) bool { return weight(order[a]) > weight(order[b]) })
	return order
}

// Run measures every point of the grid and returns the results in grid
// order (results[i] belongs to points[i]) regardless of completion order.
//
// The first failing point cancels all in-flight work and is returned as
// the error; a cancelled ctx likewise stops the sweep promptly (workers
// finish their current point and exit — individual measurements are not
// interruptible). On error the partial results are discarded.
func (s Sweep) Run(ctx context.Context, points []Point) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(points) == 0 {
		return nil, nil
	}
	for i, pt := range points {
		if pt.Stage == nil || pt.Stage.Run == nil {
			return nil, fmt.Errorf("sweep point %d (%v): no stage to run", i, pt)
		}
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Grid points are CPU-bound simulations: concurrency beyond the
	// schedulable cores cannot finish the grid sooner, it can only evict
	// each worker's warm simulator state from cache on every preemption.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > len(points) {
		workers = len(points)
	}
	s.Metrics.Gauge("sweep_workers").Set(float64(workers))
	pending := s.Metrics.Gauge("sweep_points_pending")
	pending.Set(float64(len(points)))
	sp := s.Metrics.Span("sweep_run")
	defer func() {
		sp.End()
		if s.Cache != nil {
			s.Metrics.Gauge("sweep_cache_entries").Set(float64(s.Cache.Len()))
		}
	}()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		results  = make([]Result, len(points))
		order    = claimOrder(points)
		next     atomic.Int64 // cursor: position of the first unclaimed point in order
		wg       sync.WaitGroup
		mu       sync.Mutex // guards firstErr, done, and serialises Progress
		firstErr error
		done     int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel() // stop the other workers
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one reusable Runner, built lazily on its
			// first uncached point, so consecutive grid points share warm
			// scheduler state instead of rebuilding it; measurements stay
			// bit-identical to fresh per-point simulators.
			var runner *mpi.Runner
			// work measures grid point i and records its result. results
			// indices are disjoint across workers, so the slice needs no
			// lock — the WaitGroup publishes the writes to Run's return.
			// Only Progress (serialised by contract) takes the mutex.
			work := func(i int) bool {
				r, err := s.measure(points[i], &runner)
				if err != nil {
					fail(fmt.Errorf("sweep point %d (%v): %w", i, points[i], err))
					return false
				}
				results[i] = r
				if s.Progress != nil {
					mu.Lock()
					done++
					s.Progress(done, len(points), r)
					mu.Unlock()
				}
				pending.Add(-1)
				return true
			}
			// Claim points, heaviest first, until the grid is exhausted.
			for {
				k := next.Add(1) - 1
				if k >= int64(len(order)) || ctx.Err() != nil {
					return
				}
				if !work(order[k]) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// measure serves one point, through the cache when one is attached.
// runner is the worker's Runner, built here on its first measured point;
// cached points never touch it.
func (s Sweep) measure(pt Point, runner **mpi.Runner) (Result, error) {
	var key string
	if s.Cache != nil {
		key = cacheKey(s.Profile, pt, s.Settings)
		if m, ok := s.Cache.get(key); ok {
			s.Metrics.Counter("sweep_points_cached_total").Inc()
			return Result{Point: pt, Meas: m, Cached: true}, nil
		}
	}
	if *runner == nil {
		r, err := newProfileRunner(s.Profile, s.Metrics)
		if err != nil {
			return Result{}, err
		}
		*runner = r
	}
	m, err := measurePoint(*runner, s.Profile, pt, s.Settings)
	if err != nil {
		return Result{}, err
	}
	s.Metrics.Counter("sweep_points_measured_total").Inc()
	if s.Cache != nil {
		s.Cache.put(key, m)
	}
	return Result{Point: pt, Meas: m}, nil
}

// BcastGrid builds the (message size × algorithm) cross product at a fixed
// communicator and segment size, sizes-major: all algorithms of sizes[0]
// first, matching how the sweep tables are printed.
func BcastGrid(procs int, algs []coll.BcastAlgorithm, sizes []int, segSize int) []Point {
	stages := make([]*Stage, len(algs))
	for j, alg := range algs {
		stages[j] = BcastStage(alg)
	}
	points := make([]Point, 0, len(sizes)*len(algs))
	for _, m := range sizes {
		for j := range algs {
			points = append(points, Point{Stage: stages[j], Procs: procs, MsgBytes: m, SegSize: segSize})
		}
	}
	return points
}
