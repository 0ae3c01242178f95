package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"logscape/internal/parallel"
)

func TestQuantileCIIndicesErrors(t *testing.T) {
	if _, _, err := QuantileCIIndices(0, 0.5, 0.95); err != ErrEmpty {
		t.Errorf("n=0: err = %v", err)
	}
	for _, lvl := range []float64{0, 1, -1, 2} {
		if _, _, err := QuantileCIIndices(100, 0.5, lvl); err != ErrBadLevel {
			t.Errorf("level=%v: err = %v", lvl, err)
		}
	}
	for _, p := range []float64{0, 1} {
		if _, _, err := QuantileCIIndices(100, p, 0.95); err != ErrBadLevel {
			t.Errorf("p=%v: err = %v", p, err)
		}
	}
	// n=5 cannot support a 95% median CI: coverage of [x_(1),x_(5)] is
	// 1 − 2·(1/2)^5 = 0.9375 < 0.95.
	if _, _, err := QuantileCIIndices(5, 0.5, 0.95); err != ErrShortSample {
		t.Errorf("n=5: err = %v", err)
	}
	// n=6 can: 1 − 2/64 = 0.96875.
	j, k, err := QuantileCIIndices(6, 0.5, 0.95)
	if err != nil {
		t.Fatalf("n=6: %v", err)
	}
	if j != 1 || k != 6 {
		t.Errorf("n=6: (j,k) = (%d,%d), want (1,6)", j, k)
	}
}

func TestMedianCIKnownIndices(t *testing.T) {
	// Le Boudec's table gives for n=10, level 0.95 the interval
	// [x_(2), x_(9)] with exact coverage 0.9785.
	j, k, err := QuantileCIIndices(10, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	cover := BinomialCDF(10, k-1, 0.5) - BinomialCDF(10, j-1, 0.5)
	if cover < 0.95 {
		t.Errorf("coverage %v < level", cover)
	}
	if j > 5 || k < 6 {
		t.Errorf("interval (%d,%d) does not straddle the median index", j, k)
	}
	// The exact search yields the tightest choice: removing one order
	// statistic from either side must drop coverage below the level.
	if BinomialCDF(10, k-1, 0.5)-BinomialCDF(10, j, 0.5) >= 0.95 &&
		BinomialCDF(10, k-2, 0.5)-BinomialCDF(10, j-1, 0.5) >= 0.95 {
		t.Errorf("interval (%d,%d) is not tight", j, k)
	}
}

func TestMedianCIPaperN7(t *testing.T) {
	// The paper computes 98.4%-level CIs from 7 per-day values: with n=7
	// the extreme interval [x_(1), x_(7)] has coverage 1 − 2/128 = 0.984375,
	// which is exactly why the paper reports "0.984 level" intervals.
	j, k, err := QuantileCIIndices(7, 0.5, 0.984)
	if err != nil {
		t.Fatal(err)
	}
	if j != 1 || k != 7 {
		t.Errorf("(j,k) = (%d,%d), want (1,7)", j, k)
	}
	if _, _, err := QuantileCIIndices(7, 0.5, 0.985); err != ErrShortSample {
		t.Errorf("n=7 at 0.985 should be infeasible, got err = %v", err)
	}
}

func TestMedianCIValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ci, err := MedianCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Low >= ci.High {
		t.Errorf("degenerate CI %+v", ci)
	}
	if !ci.Contains(5.5) {
		t.Errorf("CI %+v does not contain the sample median", ci)
	}
	if ci.Level != 0.95 {
		t.Errorf("Level = %v", ci.Level)
	}
}

func TestMedianCIOfUnsorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}
	ci, err := MedianCIOf(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := MedianCI([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95)
	if ci != want {
		t.Errorf("MedianCIOf = %+v, want %+v", ci, want)
	}
	if xs[0] != 9 {
		t.Error("MedianCIOf mutated its input")
	}
}

func TestQuantileCINormalApproxAgreement(t *testing.T) {
	// For n just under and over the exact-search limit the two methods
	// should produce nearby indices.
	jE, kE, err := QuantileCIIndices(2000, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	jA, kA, err := QuantileCIIndices(2001, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if abs(jE-jA) > 3 || abs(kE-kA) > 3 {
		t.Errorf("exact (%d,%d) vs approx (%d,%d) disagree", jE, kE, jA, kA)
	}
}

// TestMedianCIIndicesMatchQuantileCIIndices: the looked-up pair is the
// computed pair — cold, warm, and asked for from several goroutines at once
// — over the whole memoised range, across its edge, and for every input
// QuantileCIIndices rejects.
func TestMedianCIIndicesMatchQuantileCIIndices(t *testing.T) {
	check := func(t *testing.T, n int, level float64) {
		wantJ, wantK, err := QuantileCIIndices(n, 0.5, level)
		j, k, ok := MedianCIIndices(n, level)
		if ok != (err == nil) || ok && (j != wantJ || k != wantK) {
			t.Errorf("MedianCIIndices(%d, %v) = (%d, %d, %v), QuantileCIIndices gives (%d, %d, %v)",
				n, level, j, k, ok, wantJ, wantK, err)
		}
	}
	for _, level := range []float64{0.95, 0.99} {
		parallel.Map(4, 4, func(g int) struct{} {
			for n := 1 + g%2; n <= exactSearchLimit; n += 2 { // two workers race on every n
				check(t, n, level)
			}
			return struct{}{}
		})
		for n := -1; n <= exactSearchLimit+50; n++ { // warm now, plus both edges
			check(t, n, level)
		}
	}
	for _, level := range []float64{0, 1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		for _, n := range []int{0, 1, 100, exactSearchLimit + 1} {
			check(t, n, level)
			check(t, n, level)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestMedianCICoverage is a Monte-Carlo property test: across repeated
// exponential samples, the share of intervals containing the true median
// must be at least the nominal level (the order-statistic CI is
// conservative).
func TestMedianCICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		trials = 2000
		n      = 41
		level  = 0.95
	)
	trueMedian := 0.6931471805599453 // ln 2 for Exp(1)
	hit := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = rng.ExpFloat64()
		}
		sort.Float64s(xs)
		ci, err := MedianCI(xs, level)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(trueMedian) {
			hit++
		}
	}
	coverage := float64(hit) / trials
	if coverage < level-0.02 {
		t.Errorf("empirical coverage %.3f below nominal %.2f", coverage, level)
	}
}

func TestCIRelations(t *testing.T) {
	a := CI{Low: 1, High: 2, Level: 0.95}
	b := CI{Low: 3, High: 4, Level: 0.95}
	if !a.Below(b) || b.Below(a) {
		t.Error("Below misordered")
	}
	if !a.StrictlyPositive() {
		t.Error("StrictlyPositive")
	}
	neg := CI{Low: -2, High: -1}
	if !neg.StrictlyNegative() || neg.StrictlyPositive() {
		t.Error("StrictlyNegative")
	}
	if !a.Contains(1) || !a.Contains(2) || a.Contains(2.1) {
		t.Error("Contains bounds")
	}
}
