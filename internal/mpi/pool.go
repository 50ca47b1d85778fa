package mpi

import (
	"fmt"
	"sync/atomic"

	"mpicollperf/internal/obs"
)

// RunnerPool hands out warm Runners to concurrent borrowers. A Runner
// amortizes scheduler, plan, and replay buffers across the runs
// it executes — but only for its owner, because a Runner is
// single-threaded. A parallel measurement sweep therefore wants one warm
// Runner per live worker, reused across sweeps, instead of constructing a
// Runner (and its network) per worker per call: the pool provides exactly
// that, bounded at a fixed capacity.
//
// Runners are constructed lazily by the pool's factory, at most capacity
// of them over the pool's lifetime; Get blocks while all are borrowed.
// Borrowed Runners carry whatever warm buffers their previous borrower
// grew, which never affects results: every run Resets the network and
// scheduler state first, so runs on a pooled Runner are bit-identical to
// runs on a fresh one.
//
// A RunnerPool is safe for concurrent use. It needs no Close: an idle
// pool holds plain memory that the garbage collector reclaims with it.
type RunnerPool struct {
	// sem holds one token per unborrowed slot; Get blocks on it, Put
	// releases it. The free list is LIFO so the most recently used — and
	// therefore warmest — Runner is handed out first, and a lone borrower
	// keeps hitting the same Runner instead of round-robining the pool
	// into existence. It is a lock-free Treiber stack: workers returning
	// Runners between grid points pop and push with a single CAS instead
	// of serialising on a pool mutex. Each Put pushes a fresh node, never
	// a recycled one, so a pop CAS can't be fooled by a head that was
	// popped and re-pushed in between (the classic ABA hazard).
	sem     chan struct{}
	free    atomic.Pointer[freeNode]
	factory func() (*Runner, error)

	created *obs.Counter
	inUse   *obs.Gauge
}

// freeNode is one Treiber-stack cell of the pool's free list.
type freeNode struct {
	r    *Runner
	next *freeNode
}

// NewRunnerPool builds a pool of at most capacity Runners, constructed on
// demand by factory. The factory must return a fresh, independent Runner
// on every call (distinct networks — pooled Runners run concurrently).
// metrics, which may be nil, receives mpi_runner_pool_created_total and
// the mpi_runner_pool_in_use level gauge.
func NewRunnerPool(capacity int, factory func() (*Runner, error), metrics *obs.Registry) (*RunnerPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("mpi: runner pool capacity %d, need >= 1", capacity)
	}
	if factory == nil {
		return nil, fmt.Errorf("mpi: runner pool needs a factory")
	}
	p := &RunnerPool{
		sem:     make(chan struct{}, capacity),
		factory: factory,
		created: metrics.Counter("mpi_runner_pool_created_total"),
		inUse:   metrics.Gauge("mpi_runner_pool_in_use"),
	}
	for i := 0; i < capacity; i++ {
		p.sem <- struct{}{}
	}
	return p, nil
}

// Cap returns the pool's capacity: the maximum number of Runners borrowed
// at once.
func (p *RunnerPool) Cap() int { return cap(p.sem) }

// Get borrows a Runner, blocking while all of the pool's Runners are
// borrowed, and constructing one when the free list is empty but a slot
// is. The borrower owns the Runner exclusively until Put.
func (p *RunnerPool) Get() (*Runner, error) {
	<-p.sem
	var r *Runner
	for {
		head := p.free.Load()
		if head == nil {
			break
		}
		if p.free.CompareAndSwap(head, head.next) {
			r = head.r
			break
		}
	}
	if r == nil {
		var err error
		if r, err = p.factory(); err != nil {
			// Release the slot so the pool stays at full capacity.
			p.sem <- struct{}{}
			return nil, err
		}
		p.created.Inc()
	}
	p.inUse.Add(1)
	return r, nil
}

// Put returns a borrowed Runner to the pool. Putting a Runner that was
// not borrowed from this pool grows it past its capacity (and, full,
// blocks); don't.
func (p *RunnerPool) Put(r *Runner) {
	if r == nil {
		return
	}
	p.inUse.Add(-1)
	n := &freeNode{r: r}
	for {
		head := p.free.Load()
		n.next = head
		if p.free.CompareAndSwap(head, n) {
			break
		}
	}
	p.sem <- struct{}{}
}
