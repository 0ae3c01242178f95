package eval

import (
	"strings"
	"testing"
)

// TestAblations asserts the DESIGN.md §5 design-choice relationships on the
// shared week (slow: runs seven L1 variants over a full day).
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is expensive")
	}
	r := testRunner(t)
	a := r.Ablations(0)
	get := func(technique, prefix string) AblationRow {
		t.Helper()
		for _, row := range a.Rows {
			if row.Technique == technique && strings.HasPrefix(row.Variant, prefix) {
				return row
			}
		}
		t.Fatalf("missing ablation row %s/%s", technique, prefix)
		return AblationRow{}
	}
	paper := get("L1", "paper")
	if paper.TP == 0 {
		t.Fatal("paper L1 variant found nothing")
	}

	// Two-sided and mean variants trade precision for recall relative to
	// the paper's robust one-sided median test.
	twoSided := get("L1", "two-sided")
	if twoSided.FP < paper.FP {
		t.Errorf("two-sided FP %d < paper FP %d", twoSided.FP, paper.FP)
	}
	mean := get("L1", "mean statistic")
	if mean.Precision() > paper.Precision() {
		t.Errorf("mean precision %.2f above the median's %.2f", mean.Precision(), paper.Precision())
	}

	// The global slot collapses under the time-of-day confounder (§3.1):
	// dramatically more positives, dreadful precision.
	global := get("L1", "global 24h slot")
	if global.FP < 10*paper.FP+50 {
		t.Errorf("global slot FP = %d; the confounder should flood it", global.FP)
	}
	if global.Precision() > 0.5 {
		t.Errorf("global slot precision = %.2f, should collapse", global.Precision())
	}

	// Equal-count (adaptive) slots stay in the paper variant's regime.
	eq := get("L1", "equal-count")
	if eq.TP == 0 {
		t.Error("equal-count slots found nothing")
	}
	if eq.Precision() < 0.5 {
		t.Errorf("equal-count precision = %.2f", eq.Precision())
	}

	// Dunning vs Pearson (§3.2): Pearson admits at least as many false
	// positives on the same corpus.
	g2 := get("L2", "Dunning")
	x2 := get("L2", "Pearson")
	if x2.FP < g2.FP {
		t.Errorf("Pearson FP %d < G² FP %d", x2.FP, g2.FP)
	}

	// Stop patterns (§4.8): equal TP, far fewer FP.
	with := get("L3", "with stop")
	without := get("L3", "without stop")
	if with.TP != without.TP {
		t.Errorf("stop patterns changed TP: %d vs %d", with.TP, without.TP)
	}
	if without.FP < with.FP+10 {
		t.Errorf("without stops FP %d not clearly above with-stops %d", without.FP, with.FP)
	}

	// The delay-histogram baseline: higher recall than L1 but far worse
	// precision under hospital-scale parallelism (the paper's critique).
	base := get("baseline", "Agrawal")
	if base.TP < paper.TP {
		t.Errorf("baseline TP %d below L1's %d", base.TP, paper.TP)
	}
	if base.Precision() > paper.Precision()/1.5 {
		t.Errorf("baseline precision %.2f not clearly below L1's %.2f",
			base.Precision(), paper.Precision())
	}
	if s := a.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}
