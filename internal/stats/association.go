package stats

import (
	"fmt"
	"math"
)

// ContingencyTable is a 2×2 contingency table in the notation of Evert's
// work on word co-occurrence (the UCS toolkit the paper's approach L2 builds
// on). For a bigram type (A, B) extracted from log sessions:
//
//	O11 — bigrams whose first element is A and second is B
//	O12 — first element is A, second is not B
//	O21 — first element is not A, second is B
//	O22 — neither
//
// Figure 4 of the paper shows the table for the running example's bigram
// type (A2, A3): O11 = 2, O21 = 0, O12 = 1, O22 = 5.
type ContingencyTable struct {
	O11, O12, O21, O22 float64
}

// N returns the total number of observations in the table.
func (t ContingencyTable) N() float64 { return t.O11 + t.O12 + t.O21 + t.O22 }

// R1 returns the first row marginal (first element is A).
func (t ContingencyTable) R1() float64 { return t.O11 + t.O12 }

// R2 returns the second row marginal.
func (t ContingencyTable) R2() float64 { return t.O21 + t.O22 }

// C1 returns the first column marginal (second element is B).
func (t ContingencyTable) C1() float64 { return t.O11 + t.O21 }

// C2 returns the second column marginal.
func (t ContingencyTable) C2() float64 { return t.O12 + t.O22 }

// Expected returns the expected counts (E11, E12, E21, E22) under the null
// hypothesis of independence of rows and columns.
func (t ContingencyTable) Expected() (e11, e12, e21, e22 float64) {
	n := t.N()
	if n == 0 {
		return 0, 0, 0, 0
	}
	e11 = t.R1() * t.C1() / n
	e12 = t.R1() * t.C2() / n
	e21 = t.R2() * t.C1() / n
	e22 = t.R2() * t.C2() / n
	return
}

// String renders the table in the layout of figure 4.
func (t ContingencyTable) String() string {
	return fmt.Sprintf("[[%g %g] [%g %g]]", t.O11, t.O21, t.O12, t.O22)
}

// xlogx returns x·log(x) with the convention 0·log 0 = 0.
func xlogx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// LogLikelihoodG2 returns Dunning's log-likelihood ratio statistic G² for
// the table ("Accurate methods for the statistics of surprise and
// coincidence", Computational Linguistics 1993 — reference [14] of the
// paper). Under independence G² follows asymptotically a chi-squared
// distribution with one degree of freedom, and it behaves much better than
// Pearson's X² on the heavily skewed tables typical of co-occurrence data,
// which is why approach L2 adopts it.
//
// G² = 2 · Σ O·log(O/E), computed in the entropy form that is numerically
// exact for zero cells.
func LogLikelihoodG2(t ContingencyTable) float64 {
	n := t.N()
	if n == 0 {
		return 0
	}
	g2 := 2 * (xlogx(t.O11) + xlogx(t.O12) + xlogx(t.O21) + xlogx(t.O22) -
		xlogx(t.R1()) - xlogx(t.R2()) - xlogx(t.C1()) - xlogx(t.C2()) +
		xlogx(n))
	if g2 < 0 {
		// Guard against negative rounding residue for near-independent
		// tables.
		return 0
	}
	return g2
}

// PearsonX2 returns Pearson's chi-squared statistic X² for the table. It is
// provided for the ablation comparing Dunning's test against the "more
// common test by Pearson" the paper mentions. Tables with a zero marginal
// yield 0.
func PearsonX2(t ContingencyTable) float64 {
	n := t.N()
	if n == 0 {
		return 0
	}
	den := t.R1() * t.R2() * t.C1() * t.C2()
	if den == 0 {
		return 0
	}
	d := t.O11*t.O22 - t.O12*t.O21
	return n * d * d / den
}

// PositiveAssociation reports whether the observed joint count exceeds its
// expectation under independence, i.e. whether the association, if any, is
// attraction rather than repulsion. Both G² and X² are two-sided statistics,
// so a one-sided collocation decision must combine them with this check.
func PositiveAssociation(t ContingencyTable) bool {
	e11, _, _, _ := t.Expected()
	return t.O11 > e11
}

// AssociationTest is the outcome of a one-sided association test on a 2×2
// contingency table.
type AssociationTest struct {
	Table ContingencyTable
	// G2 is Dunning's log-likelihood ratio statistic.
	G2 float64
	// PValue is the two-sided asymptotic p-value of G2 (chi-squared, 1 df).
	PValue float64
	// Positive indicates attraction (O11 above expectation).
	Positive bool
}

// TestAssociation computes Dunning's test for the table.
func TestAssociation(t ContingencyTable) AssociationTest {
	g2 := LogLikelihoodG2(t)
	return AssociationTest{
		Table:    t,
		G2:       g2,
		PValue:   ChiSquaredSF(g2, 1),
		Positive: PositiveAssociation(t),
	}
}
