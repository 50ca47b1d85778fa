package mpi

import (
	"fmt"

	"mpicollperf/internal/obs"
	"mpicollperf/internal/simnet"
)

// Runner executes simulated MPI programs back to back on one network,
// reusing the scheduler between runs. A fresh scheduler allocates its
// channels, queues, and matching state on every Run/RunOn call; a Runner
// pays that cost once, after which the steady-state per-operation path is
// allocation-free (operations and requests come from freelists, and every
// queue keeps its capacity). Measurement sweeps, which execute thousands
// of short programs per grid point, are the intended caller.
//
// Runs on a Runner are bit-identical to Run/RunOn with the same network
// configuration: the network is Reset before every run (ports idle, noise
// stream reseeded), and scheduler reuse only recycles memory, never
// timing state.
//
// A Runner is not safe for concurrent use; each worker goroutine should
// own one. The number of ranks may vary from run to run (the scheduler
// grows its per-rank structures as needed), bounded by the network size.
type Runner struct {
	net   *simnet.Network
	opts  Options
	sched *scheduler
	procs []*Proc
	rec   *capture // recycled across RunCapture calls
	// Recycled across CompilePlan and Compile calls.
	plan        *Plan
	planScratch *planScratch
	// Recycled across NewReplayer calls.
	replayer *Replayer
	// Recycled across Compile calls (compile.go): the pass's rank state
	// and the per-(src, dst, tag) receive streams, with the streams the
	// last compile filled.
	compileCur compileRank
	streams    map[streamKey]*recvStream
	touched    []*recvStream
}

// NewRunner builds a Runner with a fresh network from cfg.
func NewRunner(cfg simnet.Config, opts Options) (*Runner, error) {
	net, err := simnet.New(cfg)
	if err != nil {
		return nil, err
	}
	return NewRunnerOn(net, opts), nil
}

// NewRunnerOn builds a Runner on an existing network, which every Run will
// Reset. The caller must not use the network concurrently with the Runner.
func NewRunnerOn(net *simnet.Network, opts Options) *Runner {
	return &Runner{net: net, opts: opts, sched: &scheduler{}}
}

// Network returns the network the Runner executes on.
func (r *Runner) Network() *simnet.Network { return r.net }

// Metrics returns the registry from the Runner's Options (possibly nil),
// so layers that drive a Runner — the replay engine, the sweep pool — can
// record into the same registry without threading it separately.
func (r *Runner) Metrics() *obs.Registry { return r.opts.Metrics }

// Run executes fn on nprocs ranks, like RunOn, reusing the Runner's warm
// scheduler state.
func (r *Runner) Run(nprocs int, fn func(*Proc) error) (Result, error) {
	res, _, err := r.run(nprocs, fn, false)
	return res, err
}

// RunCapture executes fn like Run while recording the program's complete
// structural trace — every transfer with its matched receive, every wait,
// barrier, and Proc.Mark — in scheduler processing order. Recording never
// changes timing: the Result is bit-identical to Run of the same fn, and
// a fn differing only in Mark calls times identically too.
//
// Trace segments between marks compile into immutable Plans
// (Capture.Plan) that a Replayer can re-time without running the
// scheduler; the measurement harness captures the first repetition of an
// experiment this way and replays the rest.
//
// The returned Capture shares the Runner's recycled trace buffers: it is
// valid only until the next RunCapture on this Runner. Plans compiled
// from it copy everything they need and stay valid indefinitely.
func (r *Runner) RunCapture(nprocs int, fn func(*Proc) error) (Result, *Capture, error) {
	return r.run(nprocs, fn, true)
}

// CompilePlan compiles a trace segment exactly like Capture.Plan but
// reuses the Runner's plan buffers: the returned Plan is valid only
// until the next CompilePlan on this Runner. A measurement sweep
// compiles one plan per grid point, so the recycled buffers make the
// per-point compilation cost amortize to the walk itself.
func (r *Runner) CompilePlan(cap *Capture, fromMark, toMark int) (*Plan, error) {
	if r.plan == nil {
		r.plan = &Plan{}
		r.planScratch = &planScratch{}
	}
	p, err := cap.plan(r.plan, r.planScratch, fromMark, toMark)
	if err == nil {
		r.opts.Metrics.Histogram("mpi_plan_events").Observe(float64(p.Events()))
	}
	return p, err
}

// NewReplayer builds a Replayer for plan on the Runner's network exactly
// like the package-level NewReplayer, but recycles the Runner's replay
// buffers: the returned Replayer is valid only until the next NewReplayer
// on this Runner. Replays are bit-identical to a fresh Replayer's. A
// measurement sweep builds one replayer per grid point, so the recycled
// buffers flatten what was the largest per-point allocation.
func (r *Runner) NewReplayer(plan *Plan, clocks []float64, lanes int) (*Replayer, error) {
	if r.replayer == nil {
		r.replayer = &Replayer{}
	}
	if err := r.replayer.reinit(r.net, plan, clocks, lanes); err != nil {
		return nil, err
	}
	return r.replayer, nil
}

func (r *Runner) run(nprocs int, fn func(*Proc) error, record bool) (Result, *Capture, error) {
	if nprocs < 1 {
		return Result{}, nil, fmt.Errorf("mpi: nprocs = %d, need >= 1", nprocs)
	}
	if nprocs > r.net.Nodes() {
		return Result{}, nil, fmt.Errorf("mpi: nprocs %d exceeds cluster size %d", nprocs, r.net.Nodes())
	}
	r.net.Reset()
	s := r.sched
	s.reset(r.net, nprocs, r.opts)
	if record {
		if r.rec == nil {
			r.rec = newCapture(r.net, nprocs, s.barrierCost())
		} else {
			r.rec.reset(r.net, nprocs, s.barrierCost())
		}
		s.rec = r.rec
	} else {
		s.rec = nil
	}
	for len(r.procs) < nprocs {
		r.procs = append(r.procs, &Proc{rank: len(r.procs)})
	}
	for i := 0; i < nprocs; i++ {
		p := r.procs[i]
		p.size = nprocs
		p.sched = s
		p.resume = s.resumes[i]
		p.clock = 0
		p.seq = 0
		p.echo = nil
		p.compile = nil
		go runRank(p, fn)
	}
	res, err := s.loop()
	if err == nil {
		if m := r.opts.Metrics; m != nil {
			m.Counter("mpi_runs_total").Inc()
			m.Counter("mpi_operations_total").Add(res.Ops)
			m.Counter("mpi_transfers_total").Add(res.Transfers)
		}
	}
	var cap *Capture
	if rec := s.rec; rec != nil {
		s.rec = nil
		if err == nil {
			cap = &Capture{
				nprocs:      rec.nprocs,
				net:         rec.net,
				cfg:         rec.cfg,
				barrierCost: rec.barrierCost,
				slots:       int(rec.nextSlot),
				payload:     rec.payload,
				events:      rec.events,
				waitSlots:   rec.waitSlots,
				marks:       rec.marks,
			}
		}
	}
	return res, cap, err
}
