package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExactLine(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	r, err := LinearRegression(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.Slope, 2, 1e-12) || !almostEqual(r.Intercept, 1, 1e-12) {
		t.Errorf("fit = %v + %v·x", r.Intercept, r.Slope)
	}
	if !almostEqual(r.R2, 1, 1e-12) {
		t.Errorf("R² = %v", r.R2)
	}
	if !almostEqual(r.ResidualSD, 0, 1e-9) {
		t.Errorf("ResidualSD = %v", r.ResidualSD)
	}
	for _, res := range r.Residuals {
		if !almostEqual(res, 0, 1e-9) {
			t.Errorf("residual = %v", res)
		}
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1, 2}, []float64{1}); err != ErrMismatch {
		t.Errorf("mismatch err = %v", err)
	}
	if _, err := LinearRegression([]float64{1, 2}, []float64{1, 2}); err != ErrShortSample {
		t.Errorf("short err = %v", err)
	}
	// Constant x has no identifiable slope.
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrShortSample {
		t.Errorf("constant-x err = %v", err)
	}
}

func TestSlopeCICoversTruth(t *testing.T) {
	// Monte-Carlo calibration of the 95% slope CI.
	rng := rand.New(rand.NewSource(17))
	const trials = 1000
	hit := 0
	for i := 0; i < trials; i++ {
		n := 30
		x := make([]float64, n)
		y := make([]float64, n)
		for j := 0; j < n; j++ {
			x[j] = float64(j)
			y[j] = 2 + 0.5*x[j] + rng.NormFloat64()
		}
		r, err := LinearRegression(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if r.SlopeCI(0.95).Contains(0.5) {
			hit++
		}
	}
	cov := float64(hit) / trials
	if cov < 0.92 || cov > 0.98 {
		t.Errorf("slope CI coverage = %.3f, want ≈ 0.95", cov)
	}
}

func TestSlopeCISignDetection(t *testing.T) {
	// A strongly negative relationship must give a strictly negative CI;
	// pure noise must give a CI containing zero (the §4.9 test pattern).
	rng := rand.New(rand.NewSource(23))
	n := 100
	x := make([]float64, n)
	yNeg := make([]float64, n)
	yNoise := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i) / float64(n)
		yNeg[i] = 1 - 0.8*x[i] + 0.02*rng.NormFloat64()
		yNoise[i] = 0.5 + 0.02*rng.NormFloat64()
	}
	rNeg, err := LinearRegression(x, yNeg)
	if err != nil {
		t.Fatal(err)
	}
	if ci := rNeg.SlopeCI(0.95); !ci.StrictlyNegative() {
		t.Errorf("negative-slope CI = %+v", ci)
	}
	rNoise, err := LinearRegression(x, yNoise)
	if err != nil {
		t.Fatal(err)
	}
	if ci := rNoise.SlopeCI(0.95); !ci.Contains(0) {
		t.Errorf("noise slope CI = %+v, should contain 0", ci)
	}
}

// TestRegressionRecovery is a property test: for any non-degenerate line,
// fitting noise-free points recovers the parameters.
func TestRegressionRecovery(t *testing.T) {
	f := func(a, b int8) bool {
		slope := float64(b)
		intercept := float64(a)
		x := []float64{0, 1, 2, 3, 4, 5}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = intercept + slope*x[i]
		}
		r, err := LinearRegression(x, y)
		if err != nil {
			return false
		}
		return almostEqual(r.Slope, slope, 1e-8) && almostEqual(r.Intercept, intercept, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalQQ(t *testing.T) {
	if pts := NormalQQ(nil); pts != nil {
		t.Error("NormalQQ(nil) should be nil")
	}
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 5
	}
	pts := NormalQQ(xs)
	if len(pts) != 200 {
		t.Fatalf("len = %d", len(pts))
	}
	// Theoretical quantiles must be increasing and symmetric around 0.
	for i := 1; i < len(pts); i++ {
		if pts[i].Theoretical <= pts[i-1].Theoretical {
			t.Fatal("theoretical quantiles not increasing")
		}
	}
	if corr := QQCorrelation(xs); corr < 0.99 {
		t.Errorf("QQ correlation for normal data = %v", corr)
	}
	// Strongly bimodal data correlates worse than normal data.
	bimodal := make([]float64, 200)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = -10 + 0.01*rng.NormFloat64()
		} else {
			bimodal[i] = 10 + 0.01*rng.NormFloat64()
		}
	}
	if cb, cn := QQCorrelation(bimodal), QQCorrelation(xs); cb >= cn {
		t.Errorf("bimodal QQ corr %v not below normal %v", cb, cn)
	}
}

func TestCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if c := Correlation(x, x); !almostEqual(c, 1, 1e-12) {
		t.Errorf("self correlation = %v", c)
	}
	y := []float64{4, 3, 2, 1}
	if c := Correlation(x, y); !almostEqual(c, -1, 1e-12) {
		t.Errorf("anti correlation = %v", c)
	}
	if c := Correlation(x, []float64{5, 5, 5, 5}); c != 0 {
		t.Errorf("constant correlation = %v", c)
	}
	if c := Correlation(x, x[:2]); c != 0 {
		t.Errorf("mismatched correlation = %v", c)
	}
}

func TestQQCorrelationDegenerate(t *testing.T) {
	if c := QQCorrelation([]float64{1}); c != 0 {
		t.Errorf("QQCorrelation singleton = %v", c)
	}
	// Constant sample: sd guard kicks in, correlation of constant = 0.
	if c := QQCorrelation([]float64{2, 2, 2, 2}); c != 0 {
		t.Errorf("QQCorrelation constant = %v", c)
	}
	_ = math.Pi // keep math import for symmetry with sibling tests
}
