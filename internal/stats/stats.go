// Package stats provides the statistical machinery used throughout the
// reproduction: descriptive statistics, Student-t confidence intervals,
// ordinary least squares and robust (Huber) linear regression, normality
// and independence diagnostics, and helpers for building logarithmic
// parameter grids.
//
// The package is self-contained (stdlib only). Quantile functions are
// implemented via the regularised incomplete beta function, which is exact
// enough for the 95% confidence intervals the measurement methodology of
// the paper requires (MPIBlib-style adaptive benchmarking).
package stats

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
)

// ErrInsufficientData is returned when an estimator is given fewer samples
// than it mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (divisor n-1).
// It returns 0 when fewer than two samples are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := make([]float64, n)
	copy(cp, xs)
	insertionSort(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}

// insertionSort sorts small slices in place; the sample sizes handled here
// (benchmark repetitions, regression residuals) are tens to hundreds of
// elements, where this is perfectly adequate and allocation-free.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// MAD returns the median absolute deviation of xs scaled by 1.4826 so that
// it estimates the standard deviation for normally distributed data. The
// Huber regressor uses it as a robust scale estimate.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return 1.4826 * Median(dev)
}

// ConfidenceInterval holds a two-sided Student-t confidence interval for a
// sample mean.
type ConfidenceInterval struct {
	Mean      float64 // sample mean
	HalfWidth float64 // t_{1-a/2, n-1} * s/sqrt(n)
	Level     float64 // confidence level, e.g. 0.95
	N         int     // sample size
}

// RelativeError reports the CI half-width as a fraction of the mean. The
// paper's stopping rule accepts a sample once this drops below 0.025.
func (ci ConfidenceInterval) RelativeError() float64 {
	if ci.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(ci.HalfWidth / ci.Mean)
}

// MeanCI computes the two-sided Student-t confidence interval of the mean of
// xs at the given confidence level (0 < level < 1). It requires at least two
// samples.
func MeanCI(xs []float64, level float64) (ConfidenceInterval, error) {
	n := len(xs)
	if n < 2 {
		return ConfidenceInterval{}, ErrInsufficientData
	}
	m := Mean(xs)
	se := StdDev(xs) / math.Sqrt(float64(n))
	t := TQuantile(1-(1-level)/2, float64(n-1))
	return ConfidenceInterval{Mean: m, HalfWidth: t * se, Level: level, N: n}, nil
}

// TQuantile returns the p-quantile of Student's t distribution with df
// degrees of freedom, computed by bisection on the CDF. p must lie in (0,1).
//
// Results are memoized per (p, df): the adaptive measurement loop asks
// for the same few quantiles after every sample, and each bisection costs
// 200 incomplete-beta evaluations. A memoized value is the bisection's
// own result, bit for bit.
func TQuantile(p, df float64) float64 {
	if !(p > 0 && p < 1) || math.IsNaN(df) {
		return tQuantileBisect(p, df)
	}
	k := tKey{p, df}
	if q, ok := (*tMemo.Load())[k]; ok {
		return q
	}
	q := tQuantileBisect(p, df)
	tMemoMu.Lock()
	defer tMemoMu.Unlock()
	old := *tMemo.Load()
	if len(old) >= tMemoCap {
		return q
	}
	next := make(map[tKey]float64, len(old)+1)
	for kk, v := range old {
		next[kk] = v
	}
	next[k] = q
	tMemo.Store(&next)
	return q
}

// tKey is a memoized quantile's argument pair.
type tKey struct{ p, df float64 }

// tMemo is the quantile memo: an immutable map replaced wholesale (copy
// on write, under tMemoMu) when a new pair is added, so lookups take no
// lock and allocate nothing. The distinct pairs a process asks for are
// few — one per (confidence level, sample count) — so the copies stay
// small; tMemoCap bounds the memo for callers that sweep arbitrary
// arguments.
const tMemoCap = 4096

var (
	tMemo   atomic.Pointer[map[tKey]float64]
	tMemoMu sync.Mutex
)

func init() {
	m := map[tKey]float64{}
	tMemo.Store(&m)
}

// tQuantileBisect is TQuantile without the memo.
func tQuantileBisect(p, df float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// The CDF is monotone; bracket the quantile and bisect. t quantiles for
	// the levels used here are well inside (-200, 200) even for df = 1.
	lo, hi := -200.0, 200.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// TCDF returns P(T <= t) for Student's t distribution with df degrees of
// freedom, via the regularised incomplete beta function.
func TCDF(t, df float64) float64 {
	if math.IsNaN(t) || df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	ib := RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - 0.5*ib
	}
	return 0.5 * ib
}

// RegIncBeta returns the regularised incomplete beta function I_x(a, b),
// evaluated with the standard continued-fraction expansion (Numerical
// Recipes betacf form).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function
// using the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Lag1Autocorrelation returns the lag-1 sample autocorrelation of xs. The
// measurement methodology uses it as an independence diagnostic: values far
// from zero indicate that consecutive repetitions are correlated (warm-up
// effects, interference) and the sample should not be trusted.
func Lag1Autocorrelation(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i+1 < n {
			num += d * (xs[i+1] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// JarqueBera returns the Jarque-Bera normality statistic of xs and the
// corresponding approximate p-value (chi-squared with 2 degrees of freedom).
// Small p-values reject normality. The paper checks that repetition
// populations follow the normal distribution before accepting a mean.
func JarqueBera(xs []float64) (statistic, pvalue float64) {
	n := len(xs)
	if n < 4 {
		return 0, 1
	}
	m := Mean(xs)
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - m
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	fn := float64(n)
	m2 /= fn
	m3 /= fn
	m4 /= fn
	if m2 == 0 {
		return 0, 1
	}
	skew := m3 / math.Pow(m2, 1.5)
	kurt := m4 / (m2 * m2)
	jb := fn / 6 * (skew*skew + (kurt-3)*(kurt-3)/4)
	// p = P(chi2_2 > jb) = exp(-jb/2) for 2 degrees of freedom.
	return jb, math.Exp(-jb / 2)
}

// LogSpace returns n values from lo to hi (inclusive) separated by a
// constant step in logarithmic scale, exactly as the paper spaces its
// message sizes ("log m_{i-1} - log m_i = const"). lo and hi must be
// positive and n >= 2; a degenerate request (n <= 1 or a non-positive
// bound) falls back to the single-point grid [lo], which cannot cover
// hi — callers offering n as a knob must validate it themselves, as
// cmd/bcastbench does.
func LogSpace(lo, hi float64, n int) []float64 {
	if n <= 1 || lo <= 0 || hi <= 0 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		out[i] = math.Exp(llo + f*(lhi-llo))
	}
	out[0], out[n-1] = lo, hi
	return out
}

// LogSpaceBytes is LogSpace for message sizes: it rounds each point to the
// nearest integer byte count and deduplicates while preserving order.
func LogSpaceBytes(lo, hi, n int) []int {
	fs := LogSpace(float64(lo), float64(hi), n)
	out := make([]int, 0, len(fs))
	last := -1
	for _, f := range fs {
		v := int(math.Round(f))
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}
