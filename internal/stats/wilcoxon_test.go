package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWilcoxonPaperValue reproduces the §4.7 statement: "The p-value of the
// signed wilcoxon rank sum test is 0.0156 for any two samples of size 7,
// such that the values of the one are always below the corresponding value
// of the other".
func TestWilcoxonPaperValue(t *testing.T) {
	a := []float64{0.75, 0.74, 0.73, 0.77, 0.78, 0.72, 0.76}
	b := []float64{0.70, 0.69, 0.71, 0.72, 0.73, 0.68, 0.70}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	res, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("n=7 should use the exact distribution")
	}
	if !almostEqual(res.PValue, 2.0/128.0, 1e-12) {
		t.Errorf("p = %v, want 0.015625", res.PValue)
	}
	if res.WMinus != 0 || res.WPlus != 28 {
		t.Errorf("W+ = %v, W− = %v", res.WPlus, res.WMinus)
	}
}

func TestWilcoxonErrors(t *testing.T) {
	if _, err := WilcoxonSignedRankDiffs(nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	// All differences zero → nothing to rank.
	if _, err := WilcoxonSignedRankDiffs([]float64{0, 0}); err != ErrEmpty {
		t.Errorf("all-zero err = %v", err)
	}
}

func TestWilcoxonSymmetricSample(t *testing.T) {
	// Perfectly symmetric differences: W+ ≈ W−, p-value large.
	diffs := []float64{-3, -2, -1, 1, 2, 3}
	res, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	if res.WPlus != res.WMinus { //lint:allow floateq rank sums are small exact halves, symmetry must hold bit for bit
		t.Errorf("W+ = %v, W− = %v", res.WPlus, res.WMinus)
	}
	if res.PValue < 0.9 {
		t.Errorf("p = %v for symmetric sample", res.PValue)
	}
}

func TestWilcoxonTies(t *testing.T) {
	// Tied absolute values receive midranks; must not panic or produce NaN.
	diffs := []float64{1, 1, -1, 2, 2, -2, 3}
	res, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PValue) || res.PValue <= 0 || res.PValue > 1 {
		t.Errorf("p = %v", res.PValue)
	}
	// Sum of ranks preserved: W+ + W− = n(n+1)/2 even with midranks.
	if got := res.WPlus + res.WMinus; !almostEqual(got, 28, 1e-12) {
		t.Errorf("rank sum = %v", got)
	}
}

func TestWilcoxonKnownSmallCase(t *testing.T) {
	// n=5 all positive: one-tailed 1/32, two-sided 2/32 = 0.0625.
	diffs := []float64{1, 2, 3, 4, 5}
	res, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.PValue, 2.0/32.0, 1e-12) {
		t.Errorf("p = %v, want 0.0625", res.PValue)
	}
}

func TestWilcoxonDropsZeros(t *testing.T) {
	res, err := WilcoxonSignedRankDiffs([]float64{0, 0, 1, 2, 3, 4, 5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 5 {
		t.Errorf("N = %d, want 5 after dropping zeros", res.N)
	}
	if !almostEqual(res.PValue, 2.0/32.0, 1e-12) {
		t.Errorf("p = %v", res.PValue)
	}
}

func TestWilcoxonNormalApproxLargeN(t *testing.T) {
	// A clearly shifted large sample must give a tiny p-value via the
	// normal path.
	rng := rand.New(rand.NewSource(3))
	n := 100
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = rng.NormFloat64() + 1.5
	}
	res, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("n=100 should use the normal approximation")
	}
	if res.PValue > 1e-6 {
		t.Errorf("p = %v for strongly shifted sample", res.PValue)
	}
}

func TestWilcoxonNullCalibration(t *testing.T) {
	// Under the null (symmetric differences) the rejection rate at 5%
	// should be ≈ 5% (slightly conservative for discrete small-n).
	rng := rand.New(rand.NewSource(11))
	const trials = 2000
	rejected := 0
	for i := 0; i < trials; i++ {
		diffs := make([]float64, 15)
		for j := range diffs {
			diffs[j] = rng.NormFloat64()
		}
		res, err := WilcoxonSignedRankDiffs(diffs)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	if rate > 0.08 {
		t.Errorf("null rejection rate = %.3f, want ≤ 0.05 + slack", rate)
	}
}

func TestExactMatchesNormalApproxModerateN(t *testing.T) {
	// At n=20 (the crossover), exact and normal p-values should agree
	// reasonably for a moderate shift.
	rng := rand.New(rand.NewSource(5))
	diffs := make([]float64, 20)
	for i := range diffs {
		diffs[i] = rng.NormFloat64() + 0.5
	}
	exact, err := WilcoxonSignedRankDiffs(diffs)
	if err != nil {
		t.Fatal(err)
	}
	diffs21 := append(append([]float64{}, diffs...), 0.4)
	approx, err := WilcoxonSignedRankDiffs(diffs21)
	if err != nil {
		t.Fatal(err)
	}
	if exact.PValue <= 0 || approx.PValue <= 0 {
		t.Fatalf("p-values: exact %v approx %v", exact.PValue, approx.PValue)
	}
	ratio := exact.PValue / approx.PValue
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("exact (%v) and approx (%v) p-values diverge", exact.PValue, approx.PValue)
	}
}
