// Package mpi provides a small message-passing runtime with MPI-like
// semantics executed on the simnet virtual cluster. It is the substrate on
// which the Open MPI collective algorithms of package coll run, and it
// plays the role Open MPI 3.1 plays in the paper.
//
// Each rank is a goroutine executing user code against a *Proc handle.
// Virtual time is managed by a single deterministic scheduler: a rank's
// local clock advances only through communication operations, and the
// scheduler always services the operation with the globally smallest
// virtual timestamp (ties broken by rank), so a program's virtual timing is
// bit-reproducible regardless of the Go scheduler, GOMAXPROCS, or wall
// time.
//
// Supported operations mirror the subset of MPI the broadcast algorithms
// need: blocking and non-blocking point-to-point sends and receives with
// (source, tag) matching and the MPI non-overtaking guarantee, Wait /
// WaitAll, a barrier, and virtual compute time (Sleep).
//
// Messages may carry real payload bytes — the collective tests verify that
// every algorithm actually delivers the root's buffer — or may be synthetic
// (nil payload with an explicit size) so that large performance sweeps do
// not pay for memcpy.
//
// The runtime is built for measurement-sweep throughput: a Runner keeps
// one scheduler and one network alive across runs, and the per-operation
// path of a warm Runner — submit, schedule, match, resume — performs no
// heap allocations (request and operation objects are recycled through
// freelists, and all scheduler queues retain their capacity).
package mpi

import (
	"errors"
	"fmt"

	"mpicollperf/internal/obs"
	"mpicollperf/internal/simnet"
)

// ErrDeadlock is wrapped by the error Run returns when every live rank is
// blocked and no progress is possible.
var ErrDeadlock = errors.New("mpi: deadlock")

// errAborted is panicked inside Proc methods when the run has been aborted
// (by deadlock or by another rank's failure); the rank wrapper recovers it.
var errAborted = errors.New("mpi: run aborted")

// Result summarises a completed run.
type Result struct {
	// FinishTimes holds each rank's virtual time when its function returned.
	FinishTimes []float64
	// MakeSpan is the maximum finish time over all ranks.
	MakeSpan float64
	// Transfers is the number of network transfers simulated.
	Transfers int64
	// Ops is the number of operations the scheduler processed.
	Ops int64
}

// Request is the handle of a non-blocking operation. It is owned by the
// rank that created it and must only be waited on by that rank.
//
// Like an MPI_Request, a handle is dead once it has been waited on: the
// runtime recycles waited requests into the owning rank's freelist, and
// the next Isend or Irecv by that rank may reuse the object. Reading
// Bytes is valid between the wait and the owner's next operation.
type Request struct {
	owner    int
	isRecv   bool
	bound    bool    // completion time known
	at       float64 // virtual completion time, valid when bound
	bytes    int     // received message size, valid for receives when bound
	consumed bool    // has been waited on
	slot     int32   // plan slot a compile pass introduced the request as
}

// Bytes returns the size of the received message. It is only meaningful
// for receive requests after they have been waited on, and must be read
// before the owning rank posts another operation (which may recycle the
// handle).
func (r *Request) Bytes() int { return r.bytes }

// Proc is a rank's handle to the runtime. All methods must be called from
// the goroutine running that rank's function. Methods panic on misuse
// (invalid peer, buffer truncation, waiting on a foreign request); Run
// recovers such panics and reports them as errors.
type Proc struct {
	rank   int
	size   int
	sched  *scheduler
	resume chan reply
	clock  float64
	seq    int64

	// reqFree recycles waited-on requests; it persists across the runs of
	// a Runner, so a warm rank allocates no request objects.
	reqFree []*Request
	// waitBuf holds the requests of the wait in flight: Wait and WaitAll
	// copy their arguments into it, so the slice the operation carries is
	// rank-owned and a caller's variadic arguments never escape.
	waitBuf []*Request
	// reqBuf backs Requests; it persists across runs like reqFree.
	reqBuf []*Request

	// compile, when non-nil, routes submitted operations to the
	// structural compiler (compile.go): the goroutine-free pass of
	// Runner.Compile that records the rank's program into a Plan.
	compile *compileRank
}

// Rank returns this process's rank in 0..Size()-1.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the run.
func (p *Proc) Size() int { return p.size }

// Now returns the rank's current virtual time in seconds. A structural
// compile (Runner.Compile) has no clocks: reading Now there fails the
// compile, so the caller falls back to the scheduler.
func (p *Proc) Now() float64 {
	if p.compile != nil {
		panic(&CompileError{Rank: p.rank, Why: "reads Now during a structural compile"})
	}
	return p.clock
}

// Sleep advances the rank's virtual clock by d seconds of compute time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Errorf("mpi: rank %d: negative sleep %v", p.rank, d))
	}
	p.submit(&operation{kind: opSleep, dur: d})
}

// newRequest takes a request from the rank's freelist, or allocates one.
func (p *Proc) newRequest(isRecv bool) *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		*r = Request{owner: p.rank, isRecv: isRecv}
		return r
	}
	return &Request{owner: p.rank, isRecv: isRecv}
}

// Isend posts a non-blocking send of data to rank dst with the given tag
// and returns its request. If data is nil, size synthetic bytes are sent
// without payload; otherwise the payload is copied out immediately
// (buffered semantics) and size must equal len(data) or be negative
// (meaning len(data)).
func (p *Proc) Isend(dst, tag int, data []byte, size int) *Request {
	if data != nil {
		if size < 0 {
			size = len(data)
		} else if size != len(data) {
			panic(fmt.Errorf("mpi: rank %d: Isend size %d != len(data) %d", p.rank, size, len(data)))
		}
	} else if size < 0 {
		panic(fmt.Errorf("mpi: rank %d: Isend with nil data needs explicit size", p.rank))
	}
	p.checkPeer(dst, "Isend")
	var payload []byte
	if data != nil {
		payload = make([]byte, len(data))
		copy(payload, data)
	}
	req := p.newRequest(false)
	p.submit(&operation{kind: opIsend, peer: dst, tag: tag, data: payload, bytes: size, req: req})
	return req
}

// Irecv posts a non-blocking receive from rank src with the given tag. If
// buf is non-nil the incoming payload is copied into it and the message
// must fit; a nil buf accepts a message of any size without copying.
func (p *Proc) Irecv(src, tag int, buf []byte) *Request {
	p.checkPeer(src, "Irecv")
	req := p.newRequest(true)
	p.submit(&operation{kind: opIrecv, peer: src, tag: tag, data: buf, req: req})
	return req
}

// Wait blocks until the request completes, advancing the rank's clock to
// the completion time.
func (p *Proc) Wait(r *Request) {
	p.waitBuf = append(p.waitBuf[:0], r)
	p.waitAll()
}

// WaitAll blocks until every request completes, advancing the rank's clock
// to the latest completion time. Requests may be waited on only once;
// after the wait returns, the handles are recycled and must not be reused.
func (p *Proc) WaitAll(rs ...*Request) {
	// Element by element: a wait joins a request or two, too few to pay
	// for a bulk copy of pointers.
	buf := p.waitBuf[:0]
	for _, r := range rs {
		buf = append(buf, r)
	}
	p.waitBuf = buf
	p.waitAll()
}

// waitAll waits on the requests in waitBuf. The buffer keeps its handles
// until the next wait overwrites them: they are in the rank's freelist
// anyway.
func (p *Proc) waitAll() {
	rs := p.waitBuf
	for _, r := range rs {
		if r == nil {
			panic(fmt.Errorf("mpi: rank %d: wait on nil request", p.rank))
		}
		if r.owner != p.rank {
			panic(fmt.Errorf("mpi: rank %d: wait on request owned by rank %d", p.rank, r.owner))
		}
		if r.consumed {
			panic(fmt.Errorf("mpi: rank %d: request waited on twice", p.rank))
		}
	}
	p.submit(&operation{kind: opWait, reqs: rs})
	for _, r := range rs {
		r.consumed = true
		p.reqFree = append(p.reqFree, r)
	}
}

// Requests returns an empty rank-owned slice with room for n request
// handles, for building a WaitAll argument without allocating once the
// rank is warm. Each call reuses the same backing array, so the slice is
// valid only until the next Requests call on p.
func (p *Proc) Requests(n int) []*Request {
	if cap(p.reqBuf) < n {
		p.reqBuf = make([]*Request, 0, n)
	}
	return p.reqBuf[:0]
}

// Send is a blocking send: it returns when the send buffer is reusable
// (eager/buffered semantics, matching Open MPI's behaviour for the message
// sizes the collective algorithms use).
func (p *Proc) Send(dst, tag int, data []byte, size int) {
	p.Wait(p.Isend(dst, tag, data, size))
}

// Recv is a blocking receive; it returns the received message size.
func (p *Proc) Recv(src, tag int, buf []byte) int {
	r := p.Irecv(src, tag, buf)
	p.Wait(r)
	return r.bytes
}

// Barrier blocks until every rank has entered the barrier; all ranks leave
// at the same virtual time (the latest arrival plus the configured barrier
// cost). The measurement harness uses it to separate repetitions, exactly
// as the paper's γ(P) experiments do.
func (p *Proc) Barrier() {
	p.submit(&operation{kind: opBarrier})
}

// Mark records a timing-neutral marker in the Plan a compile pass builds
// (see Runner.Compile): it does not advance the rank's clock, costs no
// virtual time, and has no effect on any other rank's timing. The
// measurement harness brackets each sample with marks so a replay knows
// where to read the sample's clocks. Outside a compile pass a Mark is a
// no-op.
func (p *Proc) Mark() {
	if p.compile != nil {
		p.submit(&operation{kind: opMark})
	}
}

func (p *Proc) checkPeer(peer int, op string) {
	if peer < 0 || peer >= p.size {
		panic(fmt.Errorf("mpi: rank %d: %s peer %d outside 0..%d", p.rank, op, peer, p.size-1))
	}
	if peer == p.rank {
		panic(fmt.Errorf("mpi: rank %d: %s to self", p.rank, op))
	}
}

// submit hands an operation to the scheduler and blocks for the reply.
// A compile pass has no scheduler: it records the operation into a new
// plan, with the clock frozen.
func (p *Proc) submit(op *operation) {
	op.rank = p.rank
	if p.compile != nil {
		p.compileStep(op)
		return
	}
	op.clock = p.clock
	p.seq++
	op.seq = p.seq
	p.sched.ops <- *op
	rep := <-p.resume
	if rep.abort {
		panic(errAborted)
	}
	p.clock = rep.clock
}

type opKind int

const (
	opIsend opKind = iota
	opIrecv
	opWait
	opBarrier
	opSleep
	opMark
	opExit
)

func (k opKind) String() string {
	switch k {
	case opIsend:
		return "isend"
	case opIrecv:
		return "irecv"
	case opWait:
		return "wait"
	case opBarrier:
		return "barrier"
	case opSleep:
		return "sleep"
	case opMark:
		return "mark"
	case opExit:
		return "exit"
	}
	return "unknown"
}

type operation struct {
	kind  opKind
	rank  int
	clock float64
	seq   int64
	// key is the cached schedule key, set by pushPending when the
	// operation enters the pending heap (see scheduleKey).
	key float64
	// isend / irecv
	peer  int
	tag   int
	data  []byte
	bytes int
	req   *Request
	// wait
	reqs []*Request
	// sleep
	dur float64
	// exit
	err error
}

type reply struct {
	clock float64
	abort bool
}

// Options tunes runtime behaviour.
type Options struct {
	// BarrierRounds overrides the number of latency rounds a barrier costs;
	// zero means ceil(log2 P) (dissemination-style).
	BarrierRounds int
	// Metrics, when non-nil, receives run/operation/transfer counters and
	// plan-size histograms from Runners. Metrics only observe completed
	// runs — they never alter scheduling or virtual time, so instrumented
	// and uninstrumented runs are bit-identical.
	Metrics *obs.Registry
}

// Run executes fn on nprocs ranks over a fresh network built from cfg and
// returns the per-rank virtual finish times. nprocs must not exceed
// cfg.Nodes. Any rank returning a non-nil error, panicking, or deadlocking
// aborts the whole run.
func Run(cfg simnet.Config, nprocs int, fn func(*Proc) error) (Result, error) {
	net, err := simnet.New(cfg)
	if err != nil {
		return Result{}, err
	}
	return RunOn(net, nprocs, fn, Options{})
}

// RunOn is Run on an existing network (which is Reset first), with options.
// Callers running many programs back to back should prefer a Runner, which
// additionally reuses all scheduler state between runs.
func RunOn(net *simnet.Network, nprocs int, fn func(*Proc) error, opts Options) (Result, error) {
	return NewRunnerOn(net, opts).Run(nprocs, fn)
}

// runRank wraps a rank function, converting panics (including runtime
// aborts and API misuse) into an exit operation so the scheduler always
// learns the rank's fate.
func runRank(p *Proc, fn func(*Proc) error) {
	var exitErr error
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok && errors.Is(err, errAborted) {
				exitErr = errAborted
			} else if err, ok := r.(error); ok {
				exitErr = err
			} else {
				exitErr = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
			}
		}
		p.seq++
		p.sched.ops <- operation{kind: opExit, rank: p.rank, clock: p.clock, seq: p.seq, err: exitErr}
		// No reply for exit; the goroutine is done.
	}()
	exitErr = fn(p)
}
