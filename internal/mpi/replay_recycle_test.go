package mpi

import (
	"testing"

	"mpicollperf/internal/cluster"
)

// TestRunnerNewReplayerMatchesFresh is the recycling differential: a
// Runner's recycled replayer, re-initialised across plans of different
// shapes (rank counts, lane counts — growing and shrinking its buffers),
// must replay bit-identically to a fresh package-level NewReplayer on an
// identical capture. This is the contract the sweep's warm path rests on.
func TestRunnerNewReplayerMatchesFresh(t *testing.T) {
	cfg := cluster.Gros().Net
	recycled, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ nprocs, lanes int }{
		{8, 4},   // first use: buffers allocated
		{5, 6},   // fewer ranks, more lanes: mixed grow/shrink
		{8, 3},   // back up: reuse of previously grown stripes
		{124, 2}, // the full gros width: 128 frontier leaves, 4 unused
		{3, 2},   // down to a 4-leaf frontier inside the grown tree
	}
	for _, tc := range cases {
		// Fresh reference: identical capture on an identical, fresh Runner.
		fr, fplan, fres := captureOneRep(t, cfg, tc.nprocs)
		want, err := NewReplayer(fr.Network(), fplan, fres.FinishTimes, tc.lanes)
		if err != nil {
			t.Fatal(err)
		}

		// Same capture on the long-lived Runner, replayer recycled.
		res, cap, err := recycled.RunCapture(tc.nprocs, func(p *Proc) error {
			root := p.Rank() == 0
			if root {
				p.Mark()
			}
			p.Barrier()
			if root {
				p.Mark()
			}
			replayPattern(p)
			p.Barrier()
			if root {
				p.Mark()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := recycled.CompilePlan(cap, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := recycled.NewReplayer(plan, res.FinishTimes, tc.lanes)
		if err != nil {
			t.Fatal(err)
		}
		want.RecordEchoClocks()
		got.RecordEchoClocks()

		for batch, k := range []int{1, tc.lanes, tc.lanes - 1} {
			wm, wok := want.Replay(k)
			gm, gok := got.Replay(k)
			if wok != gok {
				t.Fatalf("nprocs=%d lanes=%d batch %d: ok %v vs %v", tc.nprocs, tc.lanes, batch, gok, wok)
			}
			if !wok {
				t.Fatalf("nprocs=%d lanes=%d batch %d: reference replay failed", tc.nprocs, tc.lanes, batch)
			}
			if len(wm) != len(gm) {
				t.Fatalf("nprocs=%d lanes=%d batch %d: %d marks vs %d", tc.nprocs, tc.lanes, batch, len(gm), len(wm))
			}
			for i := range wm {
				if gm[i] != wm[i] {
					t.Fatalf("nprocs=%d lanes=%d batch %d mark %d: %v != %v", tc.nprocs, tc.lanes, batch, i, gm[i], wm[i])
				}
			}
			we, ge := want.EchoClocks(), got.EchoClocks()
			if batch == 0 {
				// Echo clocks are recorded (and identical) for the armed
				// first batch even though the previous plan's later
				// batches recorded none.
				if ge == nil || len(ge) != len(we) {
					t.Fatalf("nprocs=%d lanes=%d: recycled replayer recorded %d echo clocks, want %d", tc.nprocs, tc.lanes, len(ge), len(we))
				}
				for i := range we {
					if ge[i] != we[i] {
						t.Fatalf("nprocs=%d lanes=%d echo clock %d: %v != %v", tc.nprocs, tc.lanes, i, ge[i], we[i])
					}
				}
			} else if we != nil || ge != nil {
				t.Fatalf("nprocs=%d lanes=%d batch %d: unarmed replay recorded echo clocks", tc.nprocs, tc.lanes, batch)
			}
		}
		wc, gc := want.Clocks(), got.Clocks()
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("nprocs=%d lanes=%d clock %d: %v != %v", tc.nprocs, tc.lanes, i, gc[i], wc[i])
			}
		}
	}
}
