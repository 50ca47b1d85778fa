package mpi

import (
	"testing"

	"mpicollperf/internal/cluster"
)

// TestRunnerNewReplayerMatchesFresh is the recycling differential: a
// Runner's recycled replayer, re-initialised across plans of different
// shapes (rank counts — growing and shrinking its buffers), must replay
// bit-identically to a fresh Runner's replayer on an identical compile,
// repetition after repetition. This is the contract the sweep's warm
// path rests on.
func TestRunnerNewReplayerMatchesFresh(t *testing.T) {
	cfg := cluster.Gros().Net
	recycled, err := NewRunner(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ nprocs, reps int }{
		{8, 4},   // first use: buffers allocated
		{5, 6},   // fewer ranks, more repetitions: mixed grow/shrink
		{8, 3},   // back up: reuse of previously grown buffers
		{124, 2}, // the full gros width: 128 frontier leaves, 4 unused
		{3, 2},   // down to a 4-leaf frontier inside the grown tree
	}
	for _, tc := range cases {
		// Fresh reference: identical compile on an identical, fresh Runner.
		fr, fplan, start := compileOneRep(t, cfg, tc.nprocs, replayPattern)
		want, err := fr.NewReplayer(fplan, start)
		if err != nil {
			t.Fatal(err)
		}

		// Same compile on the long-lived Runner, replayer recycled.
		plan, err := recycled.Compile(tc.nprocs, markedRep(replayPattern))
		if err != nil {
			t.Fatal(err)
		}
		recycled.Network().Reset()
		got, err := recycled.NewReplayer(plan, start)
		if err != nil {
			t.Fatal(err)
		}

		for rep := 0; rep < tc.reps; rep++ {
			wm, wok := want.Replay()
			gm, gok := got.Replay()
			if wok != gok {
				t.Fatalf("nprocs=%d rep %d: ok %v vs %v", tc.nprocs, rep, gok, wok)
			}
			if !wok {
				t.Fatalf("nprocs=%d rep %d: reference replay failed", tc.nprocs, rep)
			}
			if len(wm) != len(gm) {
				t.Fatalf("nprocs=%d rep %d: %d marks vs %d", tc.nprocs, rep, len(gm), len(wm))
			}
			for i := range wm {
				if gm[i] != wm[i] {
					t.Fatalf("nprocs=%d rep %d mark %d: %v != %v", tc.nprocs, rep, i, gm[i], wm[i])
				}
			}
		}
		wc, gc := want.Clocks(), got.Clocks()
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("nprocs=%d clock %d: %v != %v", tc.nprocs, i, gc[i], wc[i])
			}
		}
	}
}
