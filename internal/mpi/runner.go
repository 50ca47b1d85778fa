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
// stream rewound), and scheduler reuse only recycles memory, never
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
	// Recycled across NewReplayer calls.
	replayer *Replayer
	// Recycled across Compile and Verify calls (compile.go): the plans
	// each builds, the pass's rank state, and its matching scratch — the
	// per-(src, dst, tag) receive streams, each (src, dst) pair's first
	// stream (-1 if none), every send's stream key, and the matched-slot
	// flags — and the pass's timing memo, emptied at every pass.
	plan, check Plan
	compileCur  compileRank
	streams     []recvStream
	pairStream  []int32
	sendKeys    []sendKey
	bound       []bool
	timingMemo  [1 << timingMemoBits]timingKey
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
// so layers that drive a Runner — the replay engine, the sweep — can
// record into the same registry without threading it separately.
func (r *Runner) Metrics() *obs.Registry { return r.opts.Metrics }

// Run executes fn on nprocs ranks, like RunOn, reusing the Runner's warm
// scheduler state.
func (r *Runner) Run(nprocs int, fn func(*Proc) error) (Result, error) {
	if nprocs < 1 {
		return Result{}, fmt.Errorf("mpi: nprocs = %d, need >= 1", nprocs)
	}
	if nprocs > r.net.Nodes() {
		return Result{}, fmt.Errorf("mpi: nprocs %d exceeds cluster size %d", nprocs, r.net.Nodes())
	}
	r.net.Reset()
	s := r.sched
	s.reset(r.net, nprocs, r.opts)
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
	return res, err
}

// NewReplayer builds a Replayer for plan continuing the execution state
// of the Runner's network (whose ports are snapshotted now and whose
// noise stream the replays will read) with the given per-rank clocks —
// the clocks the ranks reach before the plan's first repetition (the
// measurement harness starts from its two calibration barriers). The
// Runner recycles one Replayer's buffers, so the result is valid only
// until the next NewReplayer on this Runner; replays are bit-identical to
// a fresh Replayer's. A measurement sweep builds one replayer per grid
// point, so the recycled buffers flatten what was the largest per-point
// allocation.
func (r *Runner) NewReplayer(plan *Plan, clocks []float64) (*Replayer, error) {
	if r.replayer == nil {
		r.replayer = &Replayer{}
	}
	if err := r.replayer.reinit(r.net, plan, clocks); err != nil {
		return nil, err
	}
	return r.replayer, nil
}
