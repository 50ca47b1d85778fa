package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{7, 1}, -0.5, 8.5},
		{[]float64{3.5, 1.25, 9, 2, 2, 8, 100}, 2.0, 9.0},
	} {
		q1, q3, ok := quartiles(tc.xs)
		if !ok || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	spread, ok := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || math.Abs(spread-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("relativeSpread = %v, %v", spread, ok)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	p99, ok := tailPercentile(xs, 99, 10)
	if !ok || p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", p99, ok)
	}
	if _, ok := tailPercentile(xs[:999], 99, 10); ok {
		t.Error("999 samples leave 9 beyond p99: must not be reportable")
	}
	if p50, ok := tailPercentile([]float64{1, 2, 3, 4}, 50, 1); !ok || p50 != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, %v", p50, ok)
	}
}
