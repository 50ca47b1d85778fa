package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased sample variance of this classic data set is 32/7.
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestMeanEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("Variance of single sample != 0")
	}
	if Mean([]float64{42}) != 42 {
		t.Fatal("Mean of single sample")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
		{[]float64{-1, -5, 7, 7}, 3},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Median mutated its input: %v", in)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max should be infinities")
	}
}

func TestMAD(t *testing.T) {
	// For {1,2,3,4,5} the deviations from the median 3 are {2,1,0,1,2},
	// whose median is 1, so MAD = 1.4826.
	if got := MAD([]float64{1, 2, 3, 4, 5}); !almostEqual(got, 1.4826, 1e-12) {
		t.Fatalf("MAD = %v", got)
	}
	if MAD(nil) != 0 {
		t.Fatal("MAD(nil) != 0")
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		p, df, want, tol float64
	}{
		{0.975, 1, 12.706, 1e-3},
		{0.975, 2, 4.303, 1e-3},
		{0.975, 10, 2.228, 1e-3},
		{0.975, 30, 2.042, 1e-3},
		{0.975, 120, 1.980, 1e-3},
		{0.95, 10, 1.812, 1e-3},
		{0.995, 10, 3.169, 1e-3},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > c.tol*c.want {
			t.Errorf("TQuantile(%v, %v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

// TestTQuantileMemoBitIdentical: the memoized quantiles MeanCI asks for
// are the uncached bisection's results bit for bit, on the first
// (computing) call and on every later (memoized) one, at the 95% and 99%
// levels for df 1..200.
func TestTQuantileMemoBitIdentical(t *testing.T) {
	for _, level := range []float64{0.95, 0.99} {
		p := 1 - (1-level)/2
		for df := 1.0; df <= 200; df++ {
			want := tQuantileBisect(p, df)
			for call := 0; call < 2; call++ {
				if got := TQuantile(p, df); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("level %v df %v call %d: memoized %x, bisection %x", level, df, call, got, want)
				}
			}
		}
	}
}

// TestTQuantileMemoConcurrent: concurrent callers adding to and reading
// the memo agree with the bisection (meaningful under -race).
func TestTQuantileMemoConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for df := 1.0; df <= 40; df++ {
				p := 0.9 + float64(w)/100
				if got, want := TQuantile(p, df), tQuantileBisect(p, df); got != want {
					t.Errorf("TQuantile(%v, %v) = %v, bisection %v", p, df, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTQuantileSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 9, 40} {
		hi := TQuantile(0.9, df)
		lo := TQuantile(0.1, df)
		if !almostEqual(hi, -lo, 1e-9) {
			t.Errorf("df=%v: quantiles not symmetric: %v vs %v", df, hi, lo)
		}
	}
	if TQuantile(0.5, 7) != 0 {
		t.Error("median quantile should be 0")
	}
}

func TestTQuantileInvalidP(t *testing.T) {
	if !math.IsNaN(TQuantile(0, 5)) || !math.IsNaN(TQuantile(1, 5)) {
		t.Fatal("out-of-range p should give NaN")
	}
}

func TestTCDFRoundTrip(t *testing.T) {
	for _, df := range []float64{2, 5, 29} {
		for _, p := range []float64{0.6, 0.9, 0.975, 0.999} {
			q := TQuantile(p, df)
			if got := TCDF(q, df); math.Abs(got-p) > 1e-9 {
				t.Errorf("TCDF(TQuantile(%v,%v)) = %v", p, df, got)
			}
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Fatal("RegIncBeta bounds")
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := RegIncBeta(1, 1, x); !almostEqual(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(1,b) = 1-(1-x)^b.
	if got := RegIncBeta(1, 4, 0.3); !almostEqual(got, 1-math.Pow(0.7, 4), 1e-10) {
		t.Errorf("I_0.3(1,4) = %v", got)
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 10.5, 9.5}
	ci, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.N != 6 || ci.Level != 0.95 {
		t.Fatalf("CI metadata wrong: %+v", ci)
	}
	want := TQuantile(0.975, 5) * StdDev(xs) / math.Sqrt(6)
	if !almostEqual(ci.HalfWidth, want, 1e-9) {
		t.Fatalf("HalfWidth = %v, want %v", ci.HalfWidth, want)
	}
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Fatal("expected error on single sample")
	}
}

func TestRelativeError(t *testing.T) {
	ci := ConfidenceInterval{Mean: 100, HalfWidth: 2}
	if ci.RelativeError() != 0.02 {
		t.Fatal("relative error")
	}
	zero := ConfidenceInterval{Mean: 0, HalfWidth: 1}
	if !math.IsInf(zero.RelativeError(), 1) {
		t.Fatal("zero mean should be infinite relative error")
	}
}

func TestLag1Autocorrelation(t *testing.T) {
	// A strictly alternating sequence is strongly negatively correlated.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if ac := Lag1Autocorrelation(alt); ac > -0.5 {
		t.Fatalf("alternating autocorr = %v, want strongly negative", ac)
	}
	// A linear ramp is strongly positively correlated.
	ramp := make([]float64, 50)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if ac := Lag1Autocorrelation(ramp); ac < 0.8 {
		t.Fatalf("ramp autocorr = %v, want strongly positive", ac)
	}
	if Lag1Autocorrelation([]float64{1, 2}) != 0 {
		t.Fatal("short input should give 0")
	}
	if Lag1Autocorrelation([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("constant input should give 0")
	}
}

func TestJarqueBera(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	normal := make([]float64, 500)
	for i := range normal {
		normal[i] = rng.NormFloat64()
	}
	_, pNormal := JarqueBera(normal)
	if pNormal < 0.01 {
		t.Fatalf("JB rejected normal data, p=%v", pNormal)
	}
	// Exponential data is heavily skewed and should be rejected.
	expo := make([]float64, 500)
	for i := range expo {
		expo[i] = rng.ExpFloat64()
	}
	_, pExp := JarqueBera(expo)
	if pExp > 0.01 {
		t.Fatalf("JB accepted exponential data, p=%v", pExp)
	}
	if _, p := JarqueBera([]float64{1, 2, 3}); p != 1 {
		t.Fatal("tiny samples should not reject")
	}
	if _, p := JarqueBera([]float64{2, 2, 2, 2, 2}); p != 1 {
		t.Fatal("constant samples should not reject")
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !almostEqual(xs[i], want[i], 1e-9) {
			t.Fatalf("LogSpace = %v", xs)
		}
	}
	if got := LogSpace(5, 500, 1); len(got) != 1 || got[0] != 5 {
		t.Fatal("n=1 should return {lo}")
	}
}

func TestLogSpaceConstantLogStep(t *testing.T) {
	xs := LogSpace(8192, 4<<20, 10) // paper's 8KB..4MB grid
	if len(xs) != 10 {
		t.Fatalf("len = %d", len(xs))
	}
	step := math.Log(xs[1]) - math.Log(xs[0])
	for i := 2; i < len(xs); i++ {
		s := math.Log(xs[i]) - math.Log(xs[i-1])
		if math.Abs(s-step) > 1e-9 {
			t.Fatalf("log steps not constant: %v vs %v", s, step)
		}
	}
}

func TestLogSpaceBytes(t *testing.T) {
	xs := LogSpaceBytes(8192, 4<<20, 10)
	if xs[0] != 8192 || xs[len(xs)-1] != 4<<20 {
		t.Fatalf("endpoints wrong: %v", xs)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatalf("not strictly increasing: %v", xs)
		}
	}
	// Degenerate range collapses to unique values.
	if got := LogSpaceBytes(4, 5, 10); len(got) > 2 {
		t.Fatalf("dedup failed: %v", got)
	}
}

func TestOLSExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Intercept, 1, 1e-12) || !almostEqual(fit.Slope, 2, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
	if r2 := fit.RSquared(xs, ys); !almostEqual(r2, 1, 1e-12) {
		t.Fatalf("R2 = %v", r2)
	}
}

func TestOLSDegenerate(t *testing.T) {
	if _, err := OLS([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should error")
	}
	if _, err := OLS([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x should error")
	}
	if _, err := OLS([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestHuberMatchesOLSOnCleanData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2.5 + 0.75*xs[i] + 0.01*rng.NormFloat64()
	}
	h, err := HuberRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := OLS(xs, ys)
	if math.Abs(h.Intercept-o.Intercept) > 0.05 || math.Abs(h.Slope-o.Slope) > 0.005 {
		t.Fatalf("huber %+v vs ols %+v diverge on clean data", h, o)
	}
}

func TestHuberResistsOutliers(t *testing.T) {
	// y = 10 + 3x with two gross outliers; OLS is pulled away, Huber is not.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 + 3*x
	}
	ys[2] += 500
	ys[7] -= 300
	h, err := HuberRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	o, _ := OLS(xs, ys)
	hErr := math.Abs(h.Slope-3) + math.Abs(h.Intercept-10)
	oErr := math.Abs(o.Slope-3) + math.Abs(o.Intercept-10)
	if hErr > 0.5 {
		t.Fatalf("huber fit corrupted by outliers: %+v", h)
	}
	if hErr >= oErr {
		t.Fatalf("huber (%v) should beat ols (%v) on contaminated data", hErr, oErr)
	}
}

func TestHuberPerfectFitShortCircuits(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 2, 3, 4}
	fit, err := HuberRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Intercept, 1, 1e-12) || !almostEqual(fit.Slope, 1, 1e-12) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestHuberLoss(t *testing.T) {
	if HuberLoss(0.5, 1) != 0.125 {
		t.Fatal("quadratic region")
	}
	// |r| > delta: delta*(|r| - delta/2).
	if got := HuberLoss(3, 1); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("linear region = %v", got)
	}
	if HuberLoss(-3, 1) != HuberLoss(3, 1) {
		t.Fatal("loss should be even")
	}
}

// Property: OLS on any non-degenerate exact line recovers it.
func TestOLSRecoversLineProperty(t *testing.T) {
	f := func(a, b float64, seed int64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = a + b*xs[i]
		}
		// Ensure non-degenerate spread.
		xs[0], xs[1] = 0, 100
		ys[0], ys[1] = a, a+100*b
		fit, err := OLS(xs, ys)
		if err != nil {
			return false
		}
		return almostEqual(fit.Intercept, a, 1e-6) && almostEqual(fit.Slope, b, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MeanCI half-width shrinks as samples repeat (more data, same
// distribution => narrower interval).
func TestCIShrinksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := make([]float64, 8)
	for i := range base {
		base[i] = 100 + rng.NormFloat64()
	}
	small, err := MeanCI(base, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]float64, 0, 64)
	for i := 0; i < 8; i++ {
		for _, b := range base {
			big = append(big, b+0.01*rng.NormFloat64())
		}
	}
	large, err := MeanCI(big, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if large.HalfWidth >= small.HalfWidth {
		t.Fatalf("CI did not shrink: %v -> %v", small.HalfWidth, large.HalfWidth)
	}
}

// Property: Huber and OLS agree exactly when residuals are all zero.
func TestHuberEqualsOLSWhenExact(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		xs := []float64{0, 1, 2, 5, 9}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		h, err1 := HuberRegression(xs, ys)
		o, err2 := OLS(xs, ys)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(h.Intercept, o.Intercept, 1e-9) && almostEqual(h.Slope, o.Slope, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
