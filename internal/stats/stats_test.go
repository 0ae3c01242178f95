package stats

import (
	"math"
	"sort"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSumKahan(t *testing.T) {
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1)
	}
	got := Sum(xs)
	if got != 1e16+10000 {
		t.Errorf("Sum = %v, want %v", got, 1e16+10000.0)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	// Sample variance with n-1 denominator: ss = 32, 32/7.
	if v := Variance(xs); !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
	if v := Variance([]float64{1}); v != 0 {
		t.Errorf("Variance of singleton = %v, want 0", v)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("Mean(nil) = %v, want 0", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("Quantile singleton = %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Median even = %v, want 2.5", m)
	}
	if m := MedianOf([]float64{3, 1, 2}); m != 2 {
		t.Errorf("MedianOf = %v, want 2", m)
	}
}

func TestSummary(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	s := Summary(xs)
	if s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Q1 != 3 || s.Q3 != 7 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
}

func TestSortedCopyLeavesInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	ys := SortedCopy(xs)
	if xs[0] != 3 {
		t.Error("SortedCopy mutated its input")
	}
	if !sort.Float64sAreSorted(ys) {
		t.Error("SortedCopy result not sorted")
	}
}

func TestNormalCDFValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999, 1 - 1e-10} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEqual(got, p, 1e-10*math.Max(1, 1/p)) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if z := NormalQuantile(0.975); !almostEqual(z, 1.959963984540054, 1e-9) {
		t.Errorf("z(0.975) = %v", z)
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestChiSquaredKnownValues(t *testing.T) {
	// Critical values: P(X² > 3.841459) = 0.05 for df=1,
	// P(X² > 5.991465) = 0.05 for df=2.
	if got := ChiSquaredSF(3.841458820694124, 1); !almostEqual(got, 0.05, 1e-9) {
		t.Errorf("ChiSquaredSF df=1 = %v", got)
	}
	if got := ChiSquaredSF(5.991464547107979, 2); !almostEqual(got, 0.05, 1e-9) {
		t.Errorf("ChiSquaredSF df=2 = %v", got)
	}
	if got := ChiSquaredSF(6.634896601021214, 1); !almostEqual(got, 0.01, 1e-9) {
		t.Errorf("ChiSquaredSF df=1 = %v", got)
	}
	if ChiSquaredSF(-1, 3) != 1 {
		t.Error("chi-squared at negative x")
	}
}

func TestStudentT(t *testing.T) {
	// t(0.975, df=5) = 2.570582; t(0.99, df=2) = 6.964557.
	if got := StudentTQuantile(0.975, 5); !almostEqual(got, 2.5705818366147395, 1e-6) {
		t.Errorf("t(0.975, 5) = %v", got)
	}
	if got := StudentTQuantile(0.99, 2); !almostEqual(got, 6.964556734283257, 1e-6) {
		t.Errorf("t(0.99, 2) = %v", got)
	}
	if got := StudentTCDF(0, 7); got != 0.5 {
		t.Errorf("StudentTCDF(0) = %v", got)
	}
	// Symmetry.
	if a, b := StudentTCDF(-1.3, 9), 1-StudentTCDF(1.3, 9); !almostEqual(a, b, 1e-12) {
		t.Errorf("t symmetry: %v vs %v", a, b)
	}
	// Converges to normal for large df.
	if a, b := StudentTCDF(1.2, 100000), NormalCDF(1.2); !almostEqual(a, b, 1e-4) {
		t.Errorf("t large-df: %v vs normal %v", a, b)
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := BetaInc(1, 1, x); !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_0.5(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 2, 7.5} {
		if got := BetaInc(a, a, 0.5); !almostEqual(got, 0.5, 1e-12) {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
}

func TestBinomial(t *testing.T) {
	// Binomial(10, 0.5): P(X=5) = 252/1024.
	if got := BinomialPMF(10, 5, 0.5); !almostEqual(got, 252.0/1024.0, 1e-12) {
		t.Errorf("BinomialPMF = %v", got)
	}
	// CDF as sum of PMFs.
	for k := -1; k <= 11; k++ {
		var want float64
		for i := 0; i <= k && i <= 10; i++ {
			want += BinomialPMF(10, i, 0.3)
		}
		if k >= 10 {
			want = 1
		}
		if got := BinomialCDF(10, k, 0.3); !almostEqual(got, want, 1e-10) {
			t.Errorf("BinomialCDF(10,%d,0.3) = %v, want %v", k, got, want)
		}
	}
	// Degenerate p.
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 3, 0) != 0 {
		t.Error("PMF p=0")
	}
	if BinomialPMF(5, 5, 1) != 1 || BinomialPMF(5, 3, 1) != 0 {
		t.Error("PMF p=1")
	}
}

func TestLogChoose(t *testing.T) {
	if got := LogChoose(10, 3); !almostEqual(got, math.Log(120), 1e-12) {
		t.Errorf("LogChoose(10,3) = %v", got)
	}
	if !math.IsInf(LogChoose(5, 7), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose out of range should be -Inf")
	}
}
