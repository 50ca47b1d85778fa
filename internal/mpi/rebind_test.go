package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mpicollperf/internal/simnet"
)

// sizedPattern is replayPattern with parametrised byte counts: the same
// structure class (pipeline chain, per-rank compute, ack fan-in) at
// different sizes — exactly the shape of two grid points that share a
// plan template. The request slice is fixed-size so the steady-state
// allocation test can run the pattern allocation-free.
func sizedPattern(p *Proc, seg, ack int) {
	n, r := p.Size(), p.Rank()
	const segs = 3
	if r == 0 {
		for s := 0; s < segs; s++ {
			p.Send(1, s, nil, seg)
		}
	} else {
		var fwd [segs]*Request
		k := 0
		for s := 0; s < segs; s++ {
			p.Recv(r-1, s, nil)
			if r+1 < n {
				fwd[k] = p.Isend(r+1, s, nil, seg)
				k++
			}
		}
		if k > 0 {
			p.WaitAll(fwd[:k]...)
		}
	}
	p.Sleep(float64(r) * 1e-7)
	if r == 0 {
		for d := 1; d < n; d++ {
			p.Recv(d, 99, nil)
		}
	} else {
		p.Send(0, 99, nil, ack+r)
	}
}

// captureSized captures one marked repetition of sizedPattern on a fresh
// Runner and compiles it, as captureOneRep does for replayPattern.
func captureSized(t testing.TB, cfg simnet.Config, nprocs, seg, ack int) (*Runner, *Plan, Result) {
	t.Helper()
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, cap, err := r.RunCapture(nprocs, func(p *Proc) error {
		root := p.Rank() == 0
		if root {
			p.Mark()
		}
		p.Barrier()
		if root {
			p.Mark()
		}
		sizedPattern(p, seg, ack)
		p.Barrier()
		if root {
			p.Mark()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := r.CompilePlan(cap, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	return r, plan, res
}

// rebindClosure is the repetition body a rebind re-executes against a
// captureSized template: the plan's span without the boundary mark.
func rebindClosure(seg, ack int) func(*Proc) error {
	return func(p *Proc) error {
		root := p.Rank() == 0
		p.Barrier()
		if root {
			p.Mark()
		}
		sizedPattern(p, seg, ack)
		p.Barrier()
		if root {
			p.Mark()
		}
		return nil
	}
}

// TestRebindMatchesCapture is the template differential: rebinding a
// captured plan to new byte sizes must produce a plan equivalent — bind
// for bind — to a fresh capture of the resized pattern, and replaying
// both from identical state must yield bit-identical marks and clocks.
func TestRebindMatchesCapture(t *testing.T) {
	const nprocs = 8
	for name, cfg := range map[string]simnet.Config{
		"one_per_node": replayTestConfig(nprocs),
		"two_per_node": replayDualConfig(nprocs),
		"noise_free":   testConfig(nprocs),
	} {
		t.Run(name, func(t *testing.T) {
			tplR, tpl, _ := captureSized(t, cfg, nprocs, 8192, 256)
			refR, ref, refRes := captureSized(t, cfg, nprocs, 4096, 512)

			got, err := tplR.Rebind(tpl, rebindClosure(4096, 512))
			if err != nil {
				t.Fatalf("rebind: %v", err)
			}
			if !got.EquivalentTo(ref) {
				t.Fatal("rebound plan not equivalent to a fresh capture of the resized pattern")
			}
			// Rebinding back to the template's own sizes reproduces it.
			same, err := tplR.Rebind(tpl, rebindClosure(8192, 256))
			if err != nil {
				t.Fatalf("identity rebind: %v", err)
			}
			if !same.EquivalentTo(tpl) {
				t.Fatal("identity rebind diverges from its own template")
			}
			// Replay differential from identical state: reset both networks
			// (noise stream to position 0) and replay from the reference's
			// finish clocks.
			got, err = tplR.Rebind(tpl, rebindClosure(4096, 512))
			if err != nil {
				t.Fatalf("re-rebind: %v", err)
			}
			tplR.Network().Reset()
			refR.Network().Reset()
			const lanes = 4
			want, err := NewReplayer(refR.Network(), ref, refRes.FinishTimes, lanes)
			if err != nil {
				t.Fatal(err)
			}
			have, err := tplR.NewReplayer(got, refRes.FinishTimes, lanes)
			if err != nil {
				t.Fatal(err)
			}
			for batch, k := range []int{1, lanes, lanes - 1} {
				wm, wok := want.Replay(k)
				hm, hok := have.Replay(k)
				if !wok || !hok {
					t.Fatalf("batch %d: replay ok %v vs %v", batch, hok, wok)
				}
				for i := range wm {
					if hm[i] != wm[i] {
						t.Fatalf("batch %d mark %d: %x != %x", batch, i, hm[i], wm[i])
					}
				}
			}
			wc, hc := want.Clocks(), have.Clocks()
			for i := range wc {
				if hc[i] != wc[i] {
					t.Fatalf("clock %d: %x != %x", i, hc[i], wc[i])
				}
			}
		})
	}
}

// TestRebindDetectsDivergence: every way a program's structure can drift
// from its template must surface as a typed *RebindError, and a failed
// rebind must leave the Runner able to rebind (and run) again.
func TestRebindDetectsDivergence(t *testing.T) {
	const nprocs = 6
	cfg := replayTestConfig(nprocs)
	r, tpl, _ := captureSized(t, cfg, nprocs, 8192, 256)

	divergent := map[string]func(*Proc) error{
		"extra_sleep": func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			sizedPattern(p, 8192, 256)
			p.Sleep(1e-9)
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			return nil
		},
		"short_stream": func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			return nil
		},
		"wrong_tag": func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			n, rank := p.Size(), p.Rank()
			if rank == 0 {
				for s := 0; s < 3; s++ {
					p.Send(1, s+7, nil, 8192) // tags diverge
				}
			} else {
				var fwd [3]*Request
				k := 0
				for s := 0; s < 3; s++ {
					p.Recv(rank-1, s+7, nil)
					if rank+1 < n {
						fwd[k] = p.Isend(rank+1, s+7, nil, 8192)
						k++
					}
				}
				if k > 0 {
					p.WaitAll(fwd[:k]...)
				}
			}
			p.Sleep(float64(rank) * 1e-7)
			if rank == 0 {
				for d := 1; d < n; d++ {
					p.Recv(d, 99, nil)
				}
			} else {
				p.Send(0, 99, nil, 256+rank)
			}
			p.Barrier()
			if rank == 0 {
				p.Mark()
			}
			return nil
		},
		"payload_send": func(p *Proc) error {
			p.Barrier()
			if p.Rank() == 0 {
				p.Mark()
			}
			data := make([]byte, 8192)
			n, rank := p.Size(), p.Rank()
			if rank == 0 {
				for s := 0; s < 3; s++ {
					p.Send(1, s, data, -1)
				}
			} else {
				var fwd [3]*Request
				k := 0
				for s := 0; s < 3; s++ {
					p.Recv(rank-1, s, nil)
					if rank+1 < n {
						fwd[k] = p.Isend(rank+1, s, nil, 8192)
						k++
					}
				}
				if k > 0 {
					p.WaitAll(fwd[:k]...)
				}
			}
			p.Sleep(float64(rank) * 1e-7)
			if rank == 0 {
				for d := 1; d < n; d++ {
					p.Recv(d, 99, nil)
				}
			} else {
				p.Send(0, 99, nil, 256+rank)
			}
			p.Barrier()
			if rank == 0 {
				p.Mark()
			}
			return nil
		},
	}
	for name, fn := range divergent {
		if _, err := r.Rebind(tpl, fn); err == nil {
			t.Errorf("%s: divergent rebind accepted", name)
		} else {
			var re *RebindError
			if !errors.As(err, &re) {
				t.Errorf("%s: error %v is not a *RebindError", name, err)
			}
		}
	}

	// Plan-level mismatch: a network too small for the template.
	small, err := NewRunner(replayTestConfig(nprocs-2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Rebind(tpl, rebindClosure(8192, 256)); err == nil {
		t.Error("template accepted on a network with too few nodes")
	} else {
		var re *RebindError
		if !errors.As(err, &re) || re.Rank != -1 {
			t.Errorf("plan-level mismatch reported as %v, want *RebindError with Rank -1", err)
		}
	}

	// The Runner recovers: a faithful rebind and a normal run still work.
	if _, err := r.Rebind(tpl, rebindClosure(4096, 64)); err != nil {
		t.Fatalf("faithful rebind after failures: %v", err)
	}
	if _, err := r.Run(nprocs, func(p *Proc) error { p.Barrier(); return nil }); err != nil {
		t.Fatalf("runner broken after failed rebinds: %v", err)
	}
}

// TestRebindSteadyStateAllocs pins the template fast path's allocation
// contract: once the Runner's rebind and replay buffers have grown to the
// plan's shape, a full rebind + replay of a point allocates nothing. The
// pattern uses only blocking operations (whose wait goes through the
// Proc's fixed buffer); a closure that builds its own request slices
// charges those to itself on every engine, not to the rebind machinery.
func TestRebindSteadyStateAllocs(t *testing.T) {
	const nprocs, lanes = 8, 4
	cfg := replayTestConfig(nprocs)
	blocking := func(seg int) func(*Proc) error {
		return func(p *Proc) error {
			root := p.Rank() == 0
			p.Barrier()
			if root {
				p.Mark()
			}
			n, rank := p.Size(), p.Rank()
			for s := 0; s < 3; s++ {
				if rank == 0 {
					p.Send(1, s, nil, seg)
				} else {
					p.Recv(rank-1, s, nil)
					if rank+1 < n {
						p.Send(rank+1, s, nil, seg)
					}
				}
			}
			p.Sleep(float64(rank) * 1e-7)
			p.Barrier()
			if root {
				p.Mark()
			}
			return nil
		}
	}
	r, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, cap, err := r.RunCapture(nprocs, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Mark()
		}
		return blocking(8192)(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := r.CompilePlan(cap, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	fn := blocking(4096)
	start := make([]float64, nprocs)
	point := func() {
		plan, err := r.Rebind(tpl, fn)
		if err != nil {
			t.Fatal(err)
		}
		r.Network().Reset()
		rp, err := r.NewReplayer(plan, start, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rp.Replay(lanes); !ok {
			t.Fatal("replay failed")
		}
	}
	point() // grow the buffers
	if avg := testing.AllocsPerRun(20, point); avg > 0 {
		t.Errorf("steady-state rebind+replay allocates %v times per point, want 0", avg)
	}
}

// TestTemplateStoreConcurrent exercises the sharded store under
// concurrent publishers and readers (meaningful under -race): clones in,
// shared plans out, equivalent throughout.
func TestTemplateStoreConcurrent(t *testing.T) {
	const nprocs = 4
	_, plan, _ := captureSized(t, replayTestConfig(nprocs), nprocs, 8192, 256)
	store := NewTemplateStore()
	const keys, workers = 24, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("class/%d", i)
				if got := store.Get(key); got != nil && !got.EquivalentTo(plan) {
					t.Errorf("key %s: stored template diverged", key)
					return
				}
				store.Put(key, plan)
			}
		}()
	}
	wg.Wait()
	if store.Len() != keys {
		t.Fatalf("store holds %d templates, want %d", store.Len(), keys)
	}
	if store.Put("class/0", plan) {
		t.Fatal("Put over a stored key reported it new")
	}
	if !store.Put("fresh", plan) {
		t.Fatal("Put of an absent key did not report it new")
	}
	for i := 0; i < keys; i++ {
		got := store.Get(fmt.Sprintf("class/%d", i))
		if got == nil || !got.EquivalentTo(plan) {
			t.Fatalf("key class/%d: missing or diverged template", i)
		}
		if got == plan {
			t.Fatal("store returned the caller's plan, want a private clone")
		}
	}
	if store.Get("absent") != nil {
		t.Fatal("absent key returned a template")
	}
}
