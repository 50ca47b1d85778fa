package experiment

import (
	"fmt"
	"time"

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
	// EngineAuto (the default) captures the first repetition under the
	// full scheduler, validates the captured plan with an echo run (the
	// program re-executed against replayed clocks, its operation stream
	// byte-compared to the plan), and re-times the remaining repetitions
	// with the plan-replay engine, falling back to the scheduler when the
	// structure diverges. Results are bit-identical to EngineScheduler
	// either way.
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
	// FallbackRebindDivergence: the point's operation stream diverged from
	// its structure class's plan template during a rebind pass
	// (mpi.Runner.Rebind); the point was re-measured through the full
	// capture path. The measurement still ran on the replay engine, so
	// this reason appears only in the metrics registry, never on a
	// Measurement.
	FallbackRebindDivergence FallbackReason = "rebind-divergence"
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
	mRepsReplay      = obs.Name("experiment_reps_total", "engine", "replay")
	mRepsScheduler   = obs.Name("experiment_reps_total", "engine", "scheduler")
	mReplayTransfers = "experiment_replay_transfers_total"
	mPlanTemplates   = "experiment_plan_templates_total"
	mPlanRebinds     = "experiment_plan_rebinds_total"
	// mCaptureDedup counts captures avoided by single-flight election: a
	// worker that blocked on another worker's in-flight capture of the
	// same structure class and came back holding the published template.
	// Without the single-flight layer each of those would have been a
	// duplicate scheduler capture (≈3.3× the rebind cost it pays instead).
	mCaptureDedup = "experiment_sweep_capture_dedup_total"
	// mSingleFlightWait times how long blocked workers waited on an
	// in-flight capture (obs.Registry.Span naming: _seconds histogram).
	mSingleFlightWait = "experiment_sweep_singleflight_wait_seconds"
	mFallbacksByWhy   = map[FallbackReason]string{}
	fallbackReasonSet = []FallbackReason{
		FallbackPayload, FallbackMarkInOp, FallbackPlan,
		FallbackEchoDivergence, FallbackTimeVarying,
		FallbackRebindDivergence,
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

// planClass identifies a measurement's structure class for the plan
// template cache: key is the class key (e.g. coll.BcastClassKey) and
// store is where the class's template lives. The zero value disables
// templating: MeasureOn captures and replays as before. With a class
// attached, the first measured point of a class publishes its validated
// plan as the class template, and every later point of the class rebinds
// the template goroutine-free (mpi.Runner.Rebind) instead of capturing
// under the scheduler — with bit-identical samples either way.
type planClass struct {
	key   string
	store *mpi.TemplateStore
}

// enabled reports whether the class can consult a template store.
func (c planClass) enabled() bool { return c.store != nil && c.key != "" }

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
	return measureOnClass(r, nprocs, set, mode, op, planClass{})
}

// measureOnClass is MeasureOn with an optional structure class attached
// (the plan-template fast path; see planClass).
func measureOnClass(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op, cls planClass) (Measurement, error) {
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
		var release func() // non-nil iff this call leads its class's capture flight
		if cls.enabled() {
			// Single-flight template resolution: either the class's
			// template is published (rebind it), or this call is elected
			// its capture leader (fall through to the capture path, whose
			// Put completes the flight), or another worker is capturing it
			// right now (block until it publishes, then rebind). release
			// is non-nil exactly for the leader; deferring it guarantees
			// the waiters are unblocked on every exit path — it is a no-op
			// once the template is published.
			var tpl *mpi.Plan
			var waited time.Duration
			tpl, release, waited = cls.store.Acquire(cls.key)
			if release != nil {
				defer release()
			}
			if waited > 0 {
				m.Histogram(mSingleFlightWait).Observe(waited.Seconds())
				if tpl != nil {
					m.Counter(mCaptureDedup).Inc()
				}
			}
			if tpl != nil {
				meas, rerr := measureRebound(r, nprocs, set, mode, op, tpl)
				if rerr == nil {
					m.Counter(mPlanRebinds).Inc()
					m.Counter(mRepsReplay).Add(int64(meas.Reps))
					return meas, nil
				}
				// The point's structure diverged from its class template
				// (or the template no longer fits the network): re-measure
				// through the full capture path, which also refreshes the
				// template. Replay is still used, so this fallback is a
				// metrics-only event.
				m.Counter(mFallbacksByWhy[FallbackRebindDivergence]).Inc()
			}
		}
		meas, reason, err := measureReplay(r, nprocs, set, mode, op, cls)
		if err != nil {
			return Measurement{}, err
		}
		if reason == FallbackNone {
			m.Counter(mRepsReplay).Add(int64(meas.Reps))
			return meas, nil
		}
		why = reason
		if release != nil {
			// The class cannot be templated (payload, marks, plan shape):
			// abandon the flight now, before the slow scheduler rerun
			// below, so same-class waiters don't stall behind it.
			release()
		}
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
//
// When a structure class is attached, the plan is published to the
// class's template store once the echo run has validated it, so later
// points of the class rebind it instead of capturing.
func measureReplay(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op, cls planClass) (Measurement, FallbackReason, error) {
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
	// Replay repetition 1 alone, then echo-validate the plan against its
	// clocks before trusting any replayed sample.
	marks, ok := rp.Replay(1)
	if !ok {
		return Measurement{}, FallbackPlan, nil
	}
	eerr := r.EchoRun(plan, rp.EchoClocks(), res.FinishTimes, func(p *mpi.Proc) error {
		root := p.Rank() == 0
		p.Barrier()
		if root {
			p.Mark()
		}
		op(p)
		if mode == Completion {
			p.Barrier()
		}
		if root {
			p.Mark()
		}
		p.Barrier()
		return nil
	})
	if eerr != nil {
		return Measurement{}, FallbackEchoDivergence, nil
	}
	// The plan is validated; later repetitions need no echo clocks.
	rp.DiscardEchoClocks()
	// Publish the validated plan as its structure class's template (Put
	// clones, so the Runner's recycled plan buffer is safe to keep using
	// below).
	if cls.enabled() {
		cls.store.Put(cls.key, plan)
		r.Metrics().Counter(mPlanTemplates).Inc()
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

// measureRebound is the plan-template fast path: the point's repetition
// closures are rebound onto its structure class's template
// (mpi.Runner.Rebind) — a goroutine-free structural pass that harvests
// the new byte counts and recomputes link timings — and then *every*
// repetition, including the first, is re-timed by the Replayer. No
// scheduler run happens at all.
//
// Bit-identicality with the capture path: a capturing run's preamble (two
// calibration barriers from clock zero) consumes no jitter and leaves
// every rank's clock at exactly twice the analytical barrier cost, so
// replaying the rebound plan from those clocks, idle ports, and a freshly
// reseeded noise stream performs literally the same floating-point
// arithmetic as the scheduler run of repetition 0 — and the chained lanes
// reproduce repetitions 1..N exactly as the capture path replays them.
// The sample sequence, and hence the Measurement, is bit-identical to
// both other engines.
//
// An error means the point diverged from its template (or the template
// does not fit the Runner's network); the caller falls back to the full
// capture path, which re-publishes a fresh template.
func measureRebound(r *mpi.Runner, nprocs int, set Settings, mode Mode, op Op, tpl *mpi.Plan) (Measurement, error) {
	if tpl.Procs() != nprocs {
		return Measurement{}, fmt.Errorf("experiment: rebind: template spans %d ranks, point has %d", tpl.Procs(), nprocs)
	}
	// Reset first: the rebind pass recomputes link timings from the
	// network's quiet state, and the replay below must consume the noise
	// stream from the exact position a capturing run would have.
	r.Network().Reset()
	plan, err := r.Rebind(tpl, func(p *mpi.Proc) error {
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
	})
	if err != nil {
		return Measurement{}, err
	}
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
	// The template was echo-validated when it was captured; no echo run is
	// needed for a structurally identical rebind.
	rp.DiscardEchoClocks()
	if err := replayUntilDone(rp, smp, lanes, mode, bc); err != nil {
		return Measurement{}, fmt.Errorf("experiment: rebind: %w", err)
	}
	if m := r.Metrics(); m != nil {
		// Every repetition was re-timed by the replayer.
		m.Counter(mReplayTransfers).Add(int64(smp.rep) * int64(plan.Sends()))
	}
	return smp.result(), nil
}

// measurePoint measures one grid point on a Runner built from pr (see
// newProfileRunner). When tmpl is non-nil and the point's stage names a
// structure class, the first point of each class captures and every later
// point rebinds the class template.
func measurePoint(r *mpi.Runner, pr cluster.Profile, pt Point, set Settings, tmpl *mpi.TemplateStore) (Measurement, error) {
	if pt.Procs > pr.Nodes {
		return Measurement{}, fmt.Errorf("experiment: %d procs exceed %s's %d nodes", pt.Procs, pr.Name, pr.Nodes)
	}
	st, m, seg := pt.Stage, pt.MsgBytes, pt.SegSize
	return measureOnClass(r, pt.Procs, set, st.Mode, func(p *mpi.Proc) {
		st.Run(p, m, seg)
	}, planClass{key: pt.classKey(), store: tmpl})
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
