package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly
// like Python's statistics.quantiles(xs, n=4) (its default "exclusive"
// method), which is how the benchmark's run-to-run spread is judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		ld := len(s)
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3), true
}

// relativeSpread is the interquartile distance of xs as a share of its
// median — the steadiness measure the benchmark bounds are judged by.
func relativeSpread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// tailPercentile returns the nearest-rank p-th percentile of xs (0 < p <
// 100) and whether it may be reported: a tail percentile counts only
// when at least minBeyond samples lie strictly beyond its rank.
func tailPercentile(xs []float64, p float64, minBeyond int) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}
