package experiment

import (
	"fmt"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/simnet"
	"mpicollperf/internal/stats"
)

// Mode selects what a repetition's sample measures.
type Mode int

const (
	// Completion samples the barrier-compensated global completion time.
	Completion Mode = iota
	// RootTime samples the root's local duration of the operation.
	RootTime
)

// Engine selects how the repetitions of a measurement are executed.
type Engine int

const (
	// EngineAuto (the default) re-times repetitions with the plan-replay
	// engine. A point whose stage declares itself timing-independent is
	// compiled into its plan goroutine-free, with no scheduler run at all.
	// Any other measurement captures its first repetition under the full
	// scheduler and validates the captured plan with an echo run (the
	// program re-executed against replayed clocks, its operation stream
	// byte-compared to the plan). Measurements that cannot be replayed
	// fall back to the scheduler. Results are bit-identical to
	// EngineScheduler either way.
	EngineAuto Engine = iota
	// EngineScheduler runs every repetition under the full MPI scheduler.
	EngineScheduler
	// EngineReplay is EngineAuto without the fallback: a measurement whose
	// structure varies across repetitions fails with an error. Useful for
	// asserting that the fast path is actually taken.
	EngineReplay
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineScheduler:
		return "scheduler"
	case EngineReplay:
		return "replay"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "scheduler":
		return EngineScheduler, nil
	case "replay":
		return EngineReplay, nil
	default:
		return 0, fmt.Errorf("experiment: unknown engine %q (auto, scheduler, replay)", s)
	}
}

// FallbackReason says why a measurement that was eligible for the replay
// engine ran under the scheduler instead. The empty reason means no
// fallback happened (replay was used, or the scheduler engine was forced).
type FallbackReason string

const (
	// FallbackNone: the replay engine was used (or was never attempted
	// because the scheduler engine was forced).
	FallbackNone FallbackReason = ""
	// FallbackPayload: the program carries real payload bytes, which an
	// echo validation run cannot deliver.
	FallbackPayload FallbackReason = "payload"
	// FallbackMarkInOp: the operation itself calls Mark, so the replay
	// cannot attribute mark clocks to repetition boundaries.
	FallbackMarkInOp FallbackReason = "mark-in-op"
	// FallbackPlan: the captured repetition does not compile into (or
	// replay as) a self-contained plan.
	FallbackPlan FallbackReason = "plan"
	// FallbackEchoDivergence: the echo run's operation stream diverged
	// from the plan — the program's structure depends on the jitter drawn.
	FallbackEchoDivergence FallbackReason = "echo-divergence"
	// FallbackTimeVarying: the network carries a time-windowed
	// perturbation (a brownout), whose effective parameters depend on
	// virtual time; a captured plan cannot be re-timed under it.
	FallbackTimeVarying FallbackReason = "time-varying-perturbation"
	// FallbackCompile: a timing-independent point could not be compiled
	// goroutine-free (mpi.Runner.Compile), or its compiled plan did not
	// replay to completion; the point was re-measured through the capture
	// path, which reproduces whatever error the program has. The
	// measurement itself may still replay, so this reason appears only in
	// the metrics registry, never on a Measurement.
	FallbackCompile FallbackReason = "compile"
)

// Settings controls the adaptive repetition loop.
type Settings struct {
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// Precision is the maximum CI half-width relative to the mean at which
	// the sample is accepted (default 0.025, the paper's 2.5%).
	Precision float64
	// MinReps and MaxReps bound the number of measured repetitions
	// (defaults 5 and 100).
	MinReps, MaxReps int
	// Warmup is the number of unmeasured leading repetitions (default 1).
	Warmup int
	// Engine selects the execution engine (default EngineAuto). The
	// engine never changes measured values — replay is bit-identical to
	// the scheduler, with an automatic fallback — so it is excluded from
	// serialised forms (measurement cache keys in particular).
	Engine Engine `json:"-"`
}

// DefaultSettings returns the paper's methodology parameters.
func DefaultSettings() Settings {
	return Settings{Confidence: 0.95, Precision: 0.025, MinReps: 5, MaxReps: 100, Warmup: 1}
}

func (s Settings) withDefaults() Settings {
	d := DefaultSettings()
	if s.Confidence <= 0 || s.Confidence >= 1 {
		s.Confidence = d.Confidence
	}
	if s.Precision <= 0 {
		s.Precision = d.Precision
	}
	if s.MinReps < 2 {
		s.MinReps = d.MinReps
	}
	if s.MaxReps < s.MinReps {
		s.MaxReps = d.MaxReps
		if s.MaxReps < s.MinReps {
			s.MaxReps = s.MinReps
		}
	}
	if s.Warmup < 0 {
		// A zero-value Settings means "no warmup"; warmup is opt-in via
		// DefaultSettings or an explicit value.
		s.Warmup = 0
	}
	return s
}

// Measurement is the outcome of one adaptive measurement.
type Measurement struct {
	// Mean is the sample mean in virtual seconds.
	Mean float64
	// CI is the Student-t confidence interval of the mean.
	CI stats.ConfidenceInterval
	// Reps is the number of measured repetitions.
	Reps int
	// Converged reports whether the precision target was met within
	// MaxReps.
	Converged bool
	// NormalityP is the Jarque-Bera p-value of the sample (small values
	// reject normality).
	NormalityP float64
	// Lag1 is the lag-1 autocorrelation of the repetition sequence.
	Lag1 float64
	// Samples holds the raw repetition times.
	Samples []float64
	// Fallback records why the replay engine was not used (empty when it
	// was, or when the scheduler engine was forced). It is observability
	// metadata, not part of the measured value: samples are bit-identical
	// either way, so it is excluded from serialised forms (a measurement
	// loaded from the disk cache always reports no fallback).
	Fallback FallbackReason `json:"-"`
}

// Op is one invocation of the operation under measurement, executed by
// every rank.
type Op func(p *mpi.Proc)

// Metric names recorded by MeasureOn into the Runner's registry
// (mpi.Options.Metrics). Labelled names are precomputed so the hot path
// never rebuilds them.
var (
	mRepsReplay       = obs.Name("experiment_reps_total", "engine", "replay")
	mRepsScheduler    = obs.Name("experiment_reps_total", "engine", "scheduler")
	mReplayTransfers  = "experiment_replay_transfers_total"
	mPlanCompiles     = "experiment_plan_compiles_total"
	mFallbacksByWhy   = map[FallbackReason]string{}
	fallbackReasonSet = []FallbackReason{
		FallbackPayload, FallbackMarkInOp, FallbackPlan,
		FallbackEchoDivergence, FallbackTimeVarying, FallbackCompile,
	}
)

func init() {
	for _, why := range fallbackReasonSet {
		mFallbacksByWhy[why] = obs.Name("experiment_fallbacks_total", "reason", string(why))
	}
}

// Measure runs op repeatedly on nprocs ranks over net until the CI
// criterion is met, and returns the measurement.
//
// The repetition loop runs inside a single simulated MPI program: the root
// collects samples and decides whether to continue; the decision is shared
// with the other ranks through a flag written by the root strictly before
// a barrier that the others read strictly after (the runtime's scheduler
// provides the necessary happens-before edges).
func Measure(net *simnet.Network, nprocs int, set Settings, mode Mode, op Op) (Measurement, error) {
	return MeasureOn(mpi.NewRunnerOn(net, mpi.Options{}), nprocs, set, mode, op)
}

// MeasureOn is Measure on a reusable Runner: callers measuring many
// points on the same platform (the sweep engine, the calibration loops)
// keep one warm Runner per worker instead of rebuilding scheduler state
// for every point. Results are bit-identical to Measure on the Runner's
// network.
//
// Settings.Engine selects how repetitions execute: the default (auto)
// runs the first repetition under the scheduler while capturing its
// execution plan, and — once an echo run has validated that the
// program's structure is plan-stable — re-times the remaining
// repetitions with the allocation-free replay engine, producing
// bit-identical samples at a fraction of the cost.
func MeasureOn(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op) (Measurement, error) {
	return measureOnEngine(r, nprocs, set, mode, op, false)
}

// measureOnEngine is MeasureOn with the compile fast path available: a
// timingIndependent measurement on a replay-invariant network is compiled
// goroutine-free (mpi.Runner.Compile) and replayed with no scheduler run.
// Any other measurement captures under the scheduler and echo-validates,
// which is what catches a program whose structure changes across
// invocations. Samples are bit-identical on every path.
func measureOnEngine(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op, timingIndependent bool) (Measurement, error) {
	set = set.withDefaults()
	m := r.Metrics()
	if set.Engine == EngineScheduler {
		meas, err := measureScheduler(r, nprocs, set, mode, op)
		if err == nil {
			m.Counter(mRepsScheduler).Add(int64(meas.Reps))
		}
		return meas, err
	}
	why := FallbackNone
	if r.Network().ReplayInvariant() {
		if timingIndependent {
			if meas, ok := measureCompiled(r, nprocs, set, mode, op); ok {
				m.Counter(mRepsReplay).Add(int64(meas.Reps))
				return meas, nil
			}
		}
		meas, reason, err := measureReplay(r, nprocs, set, mode, op)
		if err != nil {
			return Measurement{}, err
		}
		if reason == FallbackNone {
			m.Counter(mRepsReplay).Add(int64(meas.Reps))
			return meas, nil
		}
		why = reason
	} else {
		// A time-windowed perturbation makes the effective timing depend on
		// virtual time; don't even capture.
		why = FallbackTimeVarying
	}
	if set.Engine == EngineReplay {
		return Measurement{}, fmt.Errorf("experiment: replay engine: cannot replay this measurement (%s); use the scheduler engine", why)
	}
	m.Counter(mFallbacksByWhy[why]).Inc()
	meas, err := measureScheduler(r, nprocs, set, mode, op)
	meas.Fallback = why
	if err == nil {
		m.Counter(mRepsScheduler).Add(int64(meas.Reps))
	}
	return meas, err
}

// measureCompiled measures a timing-independent point with no scheduler
// run: it compiles the point's repetition goroutine-free and replays it.
// ok is false when the point does not compile, or its plan does not
// replay to completion; the caller then measures it through the capture
// path, so errors surface exactly as the scheduler reports them.
func measureCompiled(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op) (Measurement, bool) {
	m := r.Metrics()
	// Reset first: the replay below must consume the noise stream from
	// the exact position a capturing run would have.
	r.Network().Reset()
	plan, err := r.Compile(nprocs, repetition(op, mode))
	if err == nil {
		var meas Measurement
		if meas, err = replayPoint(r, nprocs, set, mode, plan); err == nil {
			m.Counter(mPlanCompiles).Inc()
			return meas, true
		}
	}
	m.Counter(mFallbacksByWhy[FallbackCompile]).Inc()
	return Measurement{}, false
}

// repetition is one repetition of op as a replayable plan spans it: the
// open barrier, the sample marks around op, the close barrier in
// Completion mode, and the decide barrier that chains repetitions —
// everything a capturing run records after its boundary mark.
func repetition(op Op, mode Mode) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		root := p.Rank() == 0
		p.Barrier() // open: align all ranks
		if root {
			p.Mark() // sample start
		}
		op(p)
		if mode == Completion {
			p.Barrier() // close: wait for global completion
		}
		if root {
			p.Mark() // sample end
		}
		p.Barrier() // decide (chains repetitions exactly as captured)
		return nil
	}
}

// sampler is the adaptive stop rule every engine shares: it counts
// repetitions, keeps the samples of those past the warmup, and stops once
// the CI half-width meets the precision target or MaxReps samples are in.
// Its Samples buffer is sized for MaxReps once, so the hot loop's appends
// never regrow it.
type sampler struct {
	set  Settings
	rep  int // repetitions added so far, warmup included
	meas Measurement
	done bool
}

func newSampler(set Settings) *sampler {
	return &sampler{set: set, meas: Measurement{Samples: make([]float64, 0, set.MaxReps)}}
}

// add records the next repetition's sample and reports whether the
// measurement is complete.
func (s *sampler) add(sample float64) bool {
	s.rep++
	if s.rep <= s.set.Warmup {
		return false
	}
	s.meas.Samples = append(s.meas.Samples, sample)
	if n := len(s.meas.Samples); n >= s.set.MinReps {
		ci, err := stats.MeanCI(s.meas.Samples, s.set.Confidence)
		converged := err == nil && ci.RelativeError() <= s.set.Precision
		if converged || n >= s.set.MaxReps {
			s.meas.CI = ci
			s.meas.Converged = converged
			s.done = true
		}
	}
	return s.done
}

// result summarises the collected samples.
func (s *sampler) result() Measurement {
	meas := s.meas
	meas.Mean = stats.Mean(meas.Samples)
	meas.Reps = len(meas.Samples)
	_, meas.NormalityP = stats.JarqueBera(meas.Samples)
	meas.Lag1 = stats.Lag1Autocorrelation(meas.Samples)
	return meas
}

// measureScheduler is the full-scheduler repetition loop: one simulated
// MPI program whose root collects samples and decides whether to
// continue; the decision is shared with the other ranks through a flag
// written by the root strictly before a barrier that the others read
// strictly after (the runtime's scheduler provides the necessary
// happens-before edges).
func measureScheduler(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op) (Measurement, error) {
	smp := newSampler(set)
	stop := false
	_, err := r.Run(nprocs, func(p *mpi.Proc) error {
		root := p.Rank() == 0
		// Calibrate the (deterministic) barrier cost.
		p.Barrier()
		t0 := p.Now()
		p.Barrier()
		barrierCost := p.Now() - t0

		for {
			p.Barrier() // open: align all ranks
			start := p.Now()
			op(p)
			var sample float64
			switch mode {
			case Completion:
				p.Barrier() // close: wait for global completion
				sample = p.Now() - start - barrierCost
			default:
				sample = p.Now() - start
			}
			if root {
				stop = smp.add(sample)
			}
			p.Barrier() // decide: publish the root's stop flag
			if stop {
				return nil
			}
		}
	})
	if err != nil {
		return Measurement{}, err
	}
	return smp.result(), nil
}

// replayLanes bounds how many repetitions one replay batch re-times; the
// jitter for the whole batch is drawn up front and the mark buffers are
// lane-major (see mpi.Replayer).
const replayLanes = 8

// replayUntilDone re-times repetitions with rp until smp stops.
// Repetitions up to the first possible convergence decision are batched
// (at most lanes per Replay); after that each repetition may be the last
// and is replayed alone. Each repetition's sample is the span between its
// two marks, less the barrier cost bc in Completion mode. It fails when
// the repetition budget runs out before a decision or the plan does not
// close over a repetition.
func replayUntilDone(rp *mpi.Replayer, smp *sampler, lanes int, mode Mode, bc float64) error {
	set := smp.set
	firstDecision := set.Warmup + set.MinReps - 1
	for !smp.done {
		k := 1
		if smp.rep <= firstDecision {
			k = firstDecision - smp.rep + 1
		}
		k = min(k, lanes, set.Warmup+set.MaxReps-smp.rep)
		if k < 1 {
			return fmt.Errorf("experiment: replay budget exhausted before a decision")
		}
		marks, ok := rp.Replay(k)
		if !ok {
			return fmt.Errorf("experiment: plan does not close over a repetition")
		}
		for l := 0; l < k && !smp.done; l++ {
			sample := marks[l*2+1] - marks[l*2]
			if mode == Completion {
				sample -= bc
			}
			smp.add(sample)
		}
	}
	return nil
}

// measureReplay is the capture-then-replay repetition loop. It executes
// repetition 0 under the scheduler in a capturing program whose root
// brackets the repetition with marks, compiles the repetition into a
// Plan, replays repetition 1, and validates the plan with an echo run:
// the repetition's closures re-executed against the replayed clocks,
// every submitted operation byte-compared with the plan (mpi.EchoRun).
// The echo proves the program's structure does not depend on the jitter
// drawn, so repetitions 2..N are re-timed by the same mpi.Replayer,
// which continues the captured program's exact state (clocks, NIC ports,
// noise-stream position). The sample sequence, and therefore the
// Measurement, is bit-identical to measureScheduler's.
//
// A non-empty reason means the measurement belongs to the scheduler
// engine — the echo detected structural divergence, the program carries
// payload bytes (which an echo cannot deliver), or the plan does not
// close over a repetition — and the caller reruns it there.
func measureReplay(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op) (Measurement, FallbackReason, error) {
	var (
		captured    float64
		barrierCost float64
	)
	res, cap, err := r.RunCapture(nprocs, func(p *mpi.Proc) error {
		root := p.Rank() == 0
		// Calibrate the (deterministic) barrier cost, as measureScheduler
		// does.
		p.Barrier()
		t0 := p.Now()
		p.Barrier()
		bc := p.Now() - t0

		if root {
			p.Mark() // repetition boundary
		}
		p.Barrier() // open: align all ranks
		start := p.Now()
		if root {
			p.Mark() // sample start
		}
		op(p)
		var sample float64
		switch mode {
		case Completion:
			p.Barrier() // close: wait for global completion
			sample = p.Now() - start - bc
		default:
			sample = p.Now() - start
		}
		if root {
			p.Mark() // sample end
			captured = sample
			barrierCost = bc
		}
		p.Barrier() // decide (kept so replayed repetitions chain exactly)
		return nil
	})
	if err != nil {
		return Measurement{}, FallbackNone, err
	}

	// Payload-carrying programs cannot be echo-validated (plans hold
	// structure, not data). The capturing root marked 3 points; anything
	// else means op itself calls Mark, which the replay cannot attribute.
	if cap.HasPayload() {
		return Measurement{}, FallbackPayload, nil
	}
	if cap.MarkCount() != 3 {
		return Measurement{}, FallbackMarkInOp, nil
	}
	// The plan spans everything after the boundary mark: open barrier,
	// sample marks, the operation, and the decide barrier — one complete
	// repetition, chaining into the next exactly as the scheduler's loop
	// iterations do.
	plan, perr := r.CompilePlan(cap, 0, -1)
	if perr != nil || plan.Marks() != 2 {
		return Measurement{}, FallbackPlan, nil
	}

	// Replicate the adaptive decision of the scheduler loop's root over
	// the sample sequence, captured then replayed. Settings are
	// normalised (MinReps >= 2), so one sample never decides and
	// repetition 1 is always replayed.
	smp := newSampler(set)
	smp.add(captured)
	lanes := min(replayLanes, set.Warmup+set.MaxReps-smp.rep)
	// The Runner's recycled replayer: bit-identical to a fresh
	// mpi.NewReplayer, without rebuilding the lane buffers per point.
	rp, err := r.NewReplayer(plan, res.FinishTimes, lanes)
	if err != nil {
		return Measurement{}, FallbackNone, err
	}
	// Replay repetition 1 alone, recording its echo clocks, then
	// echo-validate the plan against them before trusting any replayed
	// sample. Later repetitions record nothing.
	rp.RecordEchoClocks()
	marks, ok := rp.Replay(1)
	if !ok {
		return Measurement{}, FallbackPlan, nil
	}
	if r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, repetition(op, mode)) != nil {
		return Measurement{}, FallbackEchoDivergence, nil
	}
	sample := marks[1] - marks[0]
	if mode == Completion {
		sample -= barrierCost
	}
	smp.add(sample)
	if replayUntilDone(rp, smp, lanes, mode, barrierCost) != nil {
		return Measurement{}, FallbackPlan, nil
	}
	if m := r.Metrics(); m != nil {
		// Repetitions 1..rep-1 were re-timed by the replayer, bypassing the
		// scheduler; each walks the plan's send events once.
		m.Counter(mReplayTransfers).Add(int64(smp.rep-1) * int64(plan.Sends()))
	}
	return smp.result(), FallbackNone, nil
}

// replayPoint re-times every repetition of a compiled plan, the first
// included, with no scheduler run at all.
//
// Bit-identicality with the capture path: a capturing run's preamble (two
// calibration barriers from clock zero) consumes no jitter and leaves
// every rank's clock at exactly twice the analytical barrier cost, so
// replaying the plan from those clocks, idle ports, and a freshly
// reseeded noise stream (the caller resets the network) performs
// literally the same floating-point arithmetic as the scheduler run of
// repetition 0 — and the chained lanes reproduce repetitions 1..N exactly
// as the capture path replays them. The sample sequence, and hence the
// Measurement, is bit-identical to both other engines.
//
// An error means the plan does not replay to completion (a deadlocking
// program, or a plan that does not fit the Runner's network); the caller
// falls back to the capture path.
func replayPoint(r *mpi.Runner, nprocs int, set Settings, mode Mode, plan *mpi.Plan) (Measurement, error) {
	// The capturing preamble's two calibration barriers release all ranks
	// at exactly bc and then bc+bc; start the replay from those clocks.
	bc := plan.BarrierCost()
	start := make([]float64, nprocs)
	for i := range start {
		start[i] = bc + bc
	}
	smp := newSampler(set)
	lanes := min(replayLanes, set.Warmup+set.MaxReps-smp.rep)
	rp, err := r.NewReplayer(plan, start, lanes)
	if err != nil {
		return Measurement{}, err
	}
	if err := replayUntilDone(rp, smp, lanes, mode, bc); err != nil {
		return Measurement{}, err
	}
	if m := r.Metrics(); m != nil {
		// Every repetition was re-timed by the replayer.
		m.Counter(mReplayTransfers).Add(int64(smp.rep) * int64(plan.Sends()))
	}
	return smp.result(), nil
}

// measurePoint measures one grid point on a Runner built from pr (see
// newProfileRunner). A point whose stage is timing-independent is
// compiled goroutine-free.
func measurePoint(r *mpi.Runner, pr cluster.Profile, pt Point, set Settings) (Measurement, error) {
	if pt.Procs > pr.Nodes {
		return Measurement{}, fmt.Errorf("experiment: %d procs exceed %s's %d nodes", pt.Procs, pr.Name, pr.Nodes)
	}
	st, m, seg := pt.Stage, pt.MsgBytes, pt.SegSize
	return measureOnEngine(r, pt.Procs, set, st.Mode, func(p *mpi.Proc) {
		st.Run(p, m, seg)
	}, st.TimingIndependent)
}

// newProfileRunner builds a reusable Runner on a fresh network of the
// profile's full size, so one Runner serves every communicator size the
// profile admits. A non-nil registry is threaded into the Runner's
// Options, where both the Runner and MeasureOn record into it.
func newProfileRunner(pr cluster.Profile, m *obs.Registry) (*mpi.Runner, error) {
	net, err := pr.Network()
	if err != nil {
		return nil, err
	}
	return mpi.NewRunnerOn(net, mpi.Options{Metrics: m}), nil
}
