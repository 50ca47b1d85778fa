package main

import "testing"

// TestNextOpFollowsMix checks that a workload's units interleave in its
// mix's proportions: every operation gets units, and after every full
// cycle each has run exactly its weight times the number of cycles.
func TestNextOpFollowsMix(t *testing.T) {
	for _, wl := range workloadNames {
		weights := mix[wl]
		cycle := 0
		for _, op := range opNames {
			if weights[op] < 1 {
				t.Fatalf("%s: the mix gives %s no units", wl, op)
			}
			cycle += weights[op]
		}
		counts := map[string]int{}
		for i := 1; i <= 4*cycle; i++ {
			counts[nextOp(counts, weights)]++
			if i%cycle != 0 {
				continue
			}
			for _, op := range opNames {
				if want := weights[op] * i / cycle; counts[op] != want {
					t.Errorf("%s after %d units: %s ran %d times, want %d", wl, i, op, counts[op], want)
				}
			}
		}
	}
}
