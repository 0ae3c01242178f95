package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestFigure4RunningExample reproduces figure 4 of the paper: the
// contingency table for bigram type (A2, A3) in the running example session,
// with counts O11=2, O21=0, O12=1, O22=5.
func TestFigure4RunningExample(t *testing.T) {
	tab := ContingencyTable{O11: 2, O21: 0, O12: 1, O22: 5}
	if n := tab.N(); n != 8 {
		t.Fatalf("N = %v, want 8 (the running example has 8 bigrams)", n)
	}
	if tab.R1() != 3 || tab.C1() != 2 {
		t.Errorf("marginals R1=%v C1=%v", tab.R1(), tab.C1())
	}
	e11, _, _, _ := tab.Expected()
	if !almostEqual(e11, 3.0*2.0/8.0, 1e-12) {
		t.Errorf("E11 = %v", e11)
	}
	if !PositiveAssociation(tab) {
		t.Error("the running example pair must show attraction")
	}
	g2 := LogLikelihoodG2(tab)
	if g2 <= 0 {
		t.Errorf("G² = %v, want > 0", g2)
	}
	res := TestAssociation(tab)
	if res.G2 != g2 || !res.Positive { //lint:allow floateq both sides computed by the same call, identity must be exact
		t.Errorf("TestAssociation = %+v", res)
	}
	if res.PValue <= 0 || res.PValue >= 1 {
		t.Errorf("p-value = %v", res.PValue)
	}
}

func TestG2KnownValue(t *testing.T) {
	// Dunning's statistic for a strongly associated table, checked against
	// a hand computation of 2·Σ O log(O/E).
	tab := ContingencyTable{O11: 10, O12: 2, O21: 3, O22: 85}
	e11, e12, e21, e22 := tab.Expected()
	want := 2 * (10*math.Log(10/e11) + 2*math.Log(2/e12) +
		3*math.Log(3/e21) + 85*math.Log(85/e22))
	if got := LogLikelihoodG2(tab); !almostEqual(got, want, 1e-9) {
		t.Errorf("G² = %v, want %v", got, want)
	}
}

func TestG2IndependentTableIsZero(t *testing.T) {
	// Perfectly independent table: O == E everywhere.
	tab := ContingencyTable{O11: 10, O12: 20, O21: 30, O22: 60}
	if g2 := LogLikelihoodG2(tab); !almostEqual(g2, 0, 1e-9) {
		t.Errorf("G² = %v for independent table", g2)
	}
	if x2 := PearsonX2(tab); !almostEqual(x2, 0, 1e-9) {
		t.Errorf("X² = %v for independent table", x2)
	}
	if PositiveAssociation(tab) {
		t.Error("independent table shows attraction")
	}
}

func TestG2ZeroCells(t *testing.T) {
	// Zero cells must not produce NaN thanks to 0·log 0 = 0.
	tables := []ContingencyTable{
		{O11: 0, O12: 5, O21: 5, O22: 5},
		{O11: 5, O12: 0, O21: 0, O22: 5},
		{O11: 3, O12: 0, O21: 0, O22: 0},
		{O11: 0, O12: 0, O21: 0, O22: 4},
	}
	for _, tab := range tables {
		g2 := LogLikelihoodG2(tab)
		if math.IsNaN(g2) || g2 < 0 {
			t.Errorf("G²(%v) = %v", tab, g2)
		}
	}
}

func TestG2EmptyTable(t *testing.T) {
	var tab ContingencyTable
	if g2 := LogLikelihoodG2(tab); g2 != 0 {
		t.Errorf("G² of empty table = %v", g2)
	}
}

func TestPearsonX2KnownValue(t *testing.T) {
	// Classic shortcut formula check: X² = N(ad−bc)²/(R1 R2 C1 C2).
	tab := ContingencyTable{O11: 20, O12: 10, O21: 5, O22: 65}
	n := 100.0
	d := 20*65 - 10*5
	want := n * float64(d*d) / (30 * 70 * 25 * 75)
	if got := PearsonX2(tab); !almostEqual(got, want, 1e-9) {
		t.Errorf("X² = %v, want %v", got, want)
	}
}

func TestPearsonX2ZeroMarginal(t *testing.T) {
	tab := ContingencyTable{O11: 0, O12: 0, O21: 5, O22: 5}
	if got := PearsonX2(tab); got != 0 {
		t.Errorf("X² with zero marginal = %v", got)
	}
}

// TestG2VsPearsonSkewed demonstrates Dunning's point (the reason the paper
// prefers G²): on heavily skewed tables with a rare joint event, Pearson's
// X² wildly overestimates significance relative to G².
func TestG2VsPearsonSkewed(t *testing.T) {
	tab := ContingencyTable{O11: 2, O12: 1, O21: 1, O22: 10000}
	g2 := LogLikelihoodG2(tab)
	x2 := PearsonX2(tab)
	if x2 <= g2 {
		t.Errorf("expected X² (%v) ≫ G² (%v) on skewed table", x2, g2)
	}
	if x2 < 10*g2 {
		t.Errorf("X²/G² = %v, expected dramatic inflation", x2/g2)
	}
}

// TestG2Properties checks invariances of G² under the table symmetries that
// must not change the strength of association.
func TestG2Properties(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		tab := ContingencyTable{O11: float64(a), O12: float64(b), O21: float64(c), O22: float64(d)}
		if tab.N() == 0 {
			return true
		}
		g2 := LogLikelihoodG2(tab)
		if math.IsNaN(g2) || g2 < 0 {
			return false
		}
		// Transpose invariance.
		tr := ContingencyTable{O11: tab.O11, O12: tab.O21, O21: tab.O12, O22: tab.O22}
		if !almostEqual(LogLikelihoodG2(tr), g2, 1e-9*(1+g2)) {
			return false
		}
		// Swapping both rows and columns (relabelling A→¬A, B→¬B) is also
		// invariant.
		sw := ContingencyTable{O11: tab.O22, O12: tab.O21, O21: tab.O12, O22: tab.O11}
		return almostEqual(LogLikelihoodG2(sw), g2, 1e-9*(1+g2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestG2ScaleMonotone: scaling all cells by k scales G² by exactly k
// (likelihood ratios are extensive in the sample size).
func TestG2ScaleMonotone(t *testing.T) {
	tab := ContingencyTable{O11: 6, O12: 3, O21: 2, O22: 20}
	g2 := LogLikelihoodG2(tab)
	for _, k := range []float64{2, 5, 10} {
		scaled := ContingencyTable{O11: k * tab.O11, O12: k * tab.O12, O21: k * tab.O21, O22: k * tab.O22}
		if got := LogLikelihoodG2(scaled); !almostEqual(got, k*g2, 1e-9*k*g2) {
			t.Errorf("G²(k=%v) = %v, want %v", k, got, k*g2)
		}
	}
}

// TestG2NullDistribution: under independence, the rejection rate at level
// alpha should be close to alpha (asymptotic chi-squared calibration).
func TestG2NullDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 3000
	const n = 400
	rejected := 0
	for i := 0; i < trials; i++ {
		var tab ContingencyTable
		for j := 0; j < n; j++ {
			r := rng.Float64() < 0.3
			c := rng.Float64() < 0.2
			switch {
			case r && c:
				tab.O11++
			case r:
				tab.O12++
			case c:
				tab.O21++
			default:
				tab.O22++
			}
		}
		if ChiSquaredSF(LogLikelihoodG2(tab), 1) < 0.05 {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	if rate > 0.08 || rate < 0.02 {
		t.Errorf("null rejection rate = %.3f, want ≈ 0.05", rate)
	}
}

func TestContingencyString(t *testing.T) {
	tab := ContingencyTable{O11: 2, O12: 1, O21: 0, O22: 5}
	if s := tab.String(); s != "[[2 0] [1 5]]" {
		t.Errorf("String = %q", s)
	}
}
