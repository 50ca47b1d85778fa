package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestOpenLoopTimesFromDueTime stalls one request of a single-connection
// open loop: the requests queued behind it must be reported late, and
// their latency must include the wait, because it runs from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	res := openLoop(context.Background(), 1000, 100*time.Millisecond, 1, func(_, i int) error {
		if i == 10 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Attempted != 100 || res.Failed != 0 || len(res.Latency) != 100 || len(res.Late) != 100 {
		t.Fatalf("attempted=%d failed=%d latencies=%d late=%d", res.Attempted, res.Failed, len(res.Latency), len(res.Late))
	}
	// Request 11 was due 1 ms after request 10 and could only start once
	// the stall ended: ~29 ms late, and its latency counts all of it.
	if late := res.Late[11]; late < 0.020 {
		t.Errorf("request behind the stall reported %.1f ms late, want ~29 ms", late*1e3)
	}
	if res.Latency[11] < res.Late[11] {
		t.Errorf("latency %.3f s is shorter than lateness %.3f s: not timed from due time", res.Latency[11], res.Late[11])
	}
	if res.Latency[10] < stall.Seconds() {
		t.Errorf("stalled request latency %.3f s < stall", res.Latency[10])
	}
	// Well after the stall the generator catches up.
	if res.Late[90] > 0.005 {
		t.Errorf("generator still %.1f ms late at the end", res.Late[90]*1e3)
	}
}

func TestOpenLoopSpreadsOverConnectionsAndCountsFailures(t *testing.T) {
	var seen [2]int
	res := openLoop(context.Background(), 2000, 50*time.Millisecond, 2, func(c, i int) error {
		seen[c]++
		if i%10 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if seen[0] != 50 || seen[1] != 50 {
		t.Errorf("per-connection requests = %v, want 50 each", seen)
	}
	if res.Failed != 10 || len(res.Latency) != 90 {
		t.Errorf("failed=%d ok=%d, want 10 and 90", res.Failed, len(res.Latency))
	}
}

func TestClosedLoopRunsForDuration(t *testing.T) {
	res := closedLoop(context.Background(), 30*time.Millisecond, 2, func(_, _ int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if res.Attempted < 10 || res.Elapsed < 30*time.Millisecond || res.Elapsed > 200*time.Millisecond {
		t.Errorf("attempted=%d elapsed=%v", res.Attempted, res.Elapsed)
	}
}
