package guideline

import (
	"context"
	"testing"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/perturb"
)

// FuzzGuidelines fuzzes the perturbation-robust invariant set (pattern
// equivalences and monotonicity in m, see Invariant) over random cluster
// shapes — node count, processes per node, α (latency), β (inverse
// bandwidth) — random perturbation specs, and random (P, m) points. The
// profiles are built with zero noise amplitude, so the simulator core is
// deterministic and the invariants are exact: any violation is a checker
// or simulator bug, not measurement luck. (Random perturbations stay
// time-invariant multiplicative under zero noise — the jitter family
// scales the platform's noise amplitude, which is zero here.)
func FuzzGuidelines(f *testing.F) {
	f.Add(uint8(8), uint8(1), uint16(20), uint8(2), int64(1), uint8(0), uint8(4), uint8(4))
	f.Add(uint8(5), uint8(2), uint16(3), uint8(0), int64(7), uint8(40), uint8(2), uint8(16))
	f.Add(uint8(12), uint8(1), uint16(100), uint8(3), int64(42), uint8(100), uint8(6), uint8(1))
	f.Add(uint8(4), uint8(3), uint16(55), uint8(1), int64(-3), uint8(75), uint8(3), uint8(63))
	f.Add(uint8(10), uint8(2), uint16(7), uint8(2), int64(1001), uint8(25), uint8(8), uint8(8))
	f.Fuzz(func(t *testing.T, nodes, ppn uint8, latMicro uint16, bwSel uint8, seed int64, pertCent, pSel, mScale uint8) {
		n := 3 + int(nodes)%10 // 3..12 process slots
		lat := (1 + float64(latMicro%200)) * 1e-6
		bw := []float64{1e8, 1e9, 2.5e9, 1e10}[int(bwSel)%4]
		pr, err := cluster.Custom("fuzz", n, lat, bw)
		if err != nil {
			t.Fatal(err)
		}
		pr.Net.NoiseAmplitude = 0
		if p := 1 + int(ppn)%3; p > 1 {
			pr.Net.ProcsPerNode = p
			pr.Net.IntraNodeLatency = lat / 20
			pr.Net.IntraNodeByteTime = 1e-10
		}
		if intensity := float64(pertCent%101) / 100; intensity > 0 {
			pr = pr.Perturbed(perturb.Random(seed, intensity, pr.Net.NICs()))
		}
		procs := 2 + int(pSel)%(n-1)            // 2..n
		m := procs * (1 + int(mScale)%64) * 128 // P | m, up to P·8 KiB
		set := experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 8, Warmup: 1}
		rep, err := Harness{Profiles: []cluster.Profile{pr}, Guidelines: Invariant(), Procs: []int{procs}, Sizes: []int{m}, Settings: set}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Checks) == 0 {
			t.Fatalf("no applicable checks at P=%d m=%d on %d nodes", procs, m, n)
		}
		for _, c := range rep.Checks {
			if c.Violated {
				t.Errorf("invariant %s violated at P=%d m=%d (ratio %.4f, %s=%.3e vs %s=%.3e)",
					c.Guideline, c.Procs, c.MsgBytes, c.Ratio, c.Left, c.LeftSec, c.Right, c.RightSec)
			}
		}
	})
}
