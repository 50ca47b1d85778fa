package main

import (
	"context"
	"sync"
	"time"
)

// loadResult holds one load phase's per-request outcomes.
type loadResult struct {
	// Latency is each successful request's time in seconds. In an open
	// loop it runs from the request's due time, so a stall also charges
	// the requests queued behind it; in a closed loop from its send.
	Latency []float64
	// Late is, per request of an open loop, how many seconds after its
	// due time the generator actually sent it.
	Late              []float64
	Attempted, Failed int
	Elapsed           time.Duration
}

func (r *loadResult) merge(o loadResult) {
	r.Latency = append(r.Latency, o.Latency...)
	r.Late = append(r.Late, o.Late...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}

// openLoop issues requests on a fixed schedule, whatever the replies do:
// request i is due at start + i/rate and goes out on connection i%conns.
// Each connection is served by one goroutine, so a slow reply delays the
// requests queued on that connection, and their latency counts that
// wait. do(conn, i) performs request i and reports whether it failed.
func openLoop(ctx context.Context, rate float64, dur time.Duration, conns int, do func(conn, i int) error) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	start := time.Now().Add(time.Millisecond)
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer pinPacer()()
			part := &parts[c]
			for i := c; i < n; i += conns {
				if ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				sent := time.Now()
				err := do(c, i)
				done := time.Now()
				part.Attempted++
				part.Late = append(part.Late, max(0, sent.Sub(due).Seconds()))
				if err != nil {
					part.Failed++
					continue
				}
				part.Latency = append(part.Latency, done.Sub(due).Seconds())
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	for _, p := range parts {
		out.merge(p)
	}
	out.Elapsed = time.Since(start)
	return out
}

// closedLoop runs conns callers that each send their next request as
// soon as the previous reply arrives, for dur. Caller c sends requests
// c, c+conns, c+2·conns, ...
func closedLoop(ctx context.Context, dur time.Duration, conns int, do func(conn, i int) error) loadResult {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			part := &parts[c]
			for i := c; ctx.Err() == nil; i += conns {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				err := do(c, i)
				part.Attempted++
				if err != nil {
					part.Failed++
					continue
				}
				part.Latency = append(part.Latency, time.Since(sent).Seconds())
			}
		}(c)
	}
	wg.Wait()
	var out loadResult
	for _, p := range parts {
		out.merge(p)
	}
	out.Elapsed = time.Since(start)
	return out
}
