package eval

import (
	"math"
	"sync"
	"testing"

	"logscape/internal/core/l2"
	"logscape/internal/logmodel"
)

// The evaluation tests run on one shared full-scale week (seed 2005, the
// seed used by cmd/evalrun); everything downstream of the seed is
// deterministic, so these tests assert the *reproduced paper shapes*
// directly and act as regression tests for the whole pipeline.
var (
	runnerOnce sync.Once
	sharedRun  *Runner
)

func testRunner(t *testing.T) *Runner {
	t.Helper()
	runnerOnce.Do(func() {
		sharedRun = NewRunner(DefaultOptions(2005))
	})
	return sharedRun
}

func TestRunnerSetup(t *testing.T) {
	r := testRunner(t)
	if len(r.Topo.Apps) != 54 || len(r.Topo.Groups) != 47 {
		t.Fatalf("topology = %d apps, %d groups", len(r.Topo.Apps), len(r.Topo.Groups))
	}
	if r.PairUniverse() != 1431 {
		t.Errorf("pair universe = %d, want 1431 ((54²−54)/2)", r.PairUniverse())
	}
	if r.DepUniverse() != 54*47 {
		t.Errorf("dep universe = %d", r.DepUniverse())
	}
	if len(r.TrueDeps) != 177 {
		t.Errorf("true deps = %d, want 177", len(r.TrueDeps))
	}
	if len(r.Stores) != 7 {
		t.Fatalf("stores = %d", len(r.Stores))
	}
	for d, s := range r.Stores {
		if s.Len() == 0 || !s.Sorted() {
			t.Errorf("day %d store invalid", d)
		}
	}
}

func TestAutoMinLogs(t *testing.T) {
	if got := AutoMinLogs(1); got != 10 {
		t.Errorf("AutoMinLogs(1) = %d", got)
	}
	if got := AutoMinLogs(0.01); got != 8 {
		t.Errorf("AutoMinLogs floor = %d", got)
	}
	if got := AutoMinLogs(10); got != 100 {
		t.Errorf("AutoMinLogs(10) = %d (the paper's minlogs at full volume)", got)
	}
}

// TestTable1Shape checks the table 1 reproduction: weekday/weekend volume
// ratio and the Monday peak.
func TestTable1Shape(t *testing.T) {
	r := testRunner(t)
	tab := r.Table1()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	weekdaySum := 0
	for _, d := range []int{0, 1, 2, 3, 6} {
		if tab.Rows[d].Weekend {
			t.Errorf("day %d marked weekend", d)
		}
		weekdaySum += tab.Rows[d].Logs
	}
	mean := float64(weekdaySum) / 5
	for _, d := range []int{4, 5} {
		if !tab.Rows[d].Weekend {
			t.Errorf("day %d not marked weekend", d)
		}
		ratio := float64(tab.Rows[d].Logs) / mean
		if ratio < 0.2 || ratio > 0.5 {
			t.Errorf("weekend ratio = %.2f, want ≈ 1/3 (table 1)", ratio)
		}
	}
	if float64(tab.Rows[6].Logs) < mean {
		t.Error("Monday should be the volume peak (10.7 M in table 1)")
	}
	if tab.Total < 400000 || tab.Total > 700000 {
		t.Errorf("total = %d, want ≈ 1/100 of 56.8 M", tab.Total)
	}
	if s := tab.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

func TestFigure1Correlated(t *testing.T) {
	r := testRunner(t)
	f := r.Figure1(0, logmodel.TimeRange{})
	if len(f.SeriesA) == 0 || len(f.SeriesA) != len(f.SeriesB) {
		t.Fatalf("series lengths %d/%d", len(f.SeriesA), len(f.SeriesB))
	}
	if f.Correlation < 0.15 {
		t.Errorf("correlation = %.2f; interacting applications must correlate (figure 1)", f.Correlation)
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

func TestFigure2BothDirectionsPositive(t *testing.T) {
	r := testRunner(t)
	f := r.Figure2(0)
	for i, d := range f.Directions {
		if !d.Positive {
			t.Errorf("direction %d (%s→%s) not positive", i, d.Reference, d.Candidate)
		}
		// The figure's defining feature: the candidate's 95% interval lies
		// below the random one.
		if !d.CandidateCI95.Below(d.RandomCI95) {
			t.Errorf("direction %d CIs not separated: %+v vs %+v",
				i, d.CandidateCI95, d.RandomCI95)
		}
		if d.RandomBox.Median <= 0 {
			t.Errorf("direction %d random box degenerate", i)
		}
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

func TestFigure3Excerpt(t *testing.T) {
	r := testRunner(t)
	f := r.Figure3(0, 0, 0)
	if len(f.Events) == 0 {
		t.Fatal("no session excerpt found")
	}
	if len(f.Sources) < 4 {
		t.Errorf("sources = %v, want ≥ 4 (a call-tree excerpt)", f.Sources)
	}
	for i := 1; i < len(f.Events); i++ {
		if f.Events[i].Time < f.Events[i-1].Time {
			t.Fatal("events out of order")
		}
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

// TestFigure4Exact reproduces figure 4 to the digit.
func TestFigure4Exact(t *testing.T) {
	f := Figure4()
	if f.Table.O11 != 2 || f.Table.O21 != 0 || f.Table.O12 != 1 || f.Table.O22 != 5 {
		t.Errorf("table = %+v, want O11=2 O21=0 O12=1 O22=5", f.Table)
	}
	if !f.Test.Positive {
		t.Error("running example must show attraction")
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

// TestFigure5Shape asserts the qualitative reproduction of figure 5: L1
// detects a modest subset of the reference model with a low error rate on
// unrelated pairs (the paper: 30–46 TPs, ≈ 2% error on 1253 unrelated
// pairs).
func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("L1 over a full week is expensive")
	}
	r := testRunner(t)
	f := r.Figure5()
	if len(f.Days) != 7 {
		t.Fatalf("days = %d", len(f.Days))
	}
	for _, d := range f.Days {
		if d.Weekend {
			continue
		}
		if d.TP < 5 || d.TP > 80 {
			t.Errorf("day %d TP = %d, want a modest subset (paper: 30–46)", d.Day, d.TP)
		}
		// Error rate on unrelated pairs ≈ 2% in the paper.
		fpRate := float64(d.FP) / 1253
		if fpRate > 0.03 {
			t.Errorf("day %d FP rate = %.3f, want ≤ ≈2%%", d.Day, fpRate)
		}
	}
	if f.RatioCI.Low <= 0.3 {
		t.Errorf("ratio CI = %+v; most L1 positives must be true", f.RatioCI)
	}
}

// TestFigure6Shape asserts figure 6: L2 finds far more dependencies than
// L1, with visible false positives and a weekend dip.
func TestFigure6Shape(t *testing.T) {
	r := testRunner(t)
	f := r.Figure6()
	weekdayTP, weekendTP := 0, 0
	weekdayFP := 0
	nWeekday, nWeekend := 0, 0
	for _, d := range f.Days {
		if d.Weekend {
			weekendTP += d.TP
			nWeekend++
		} else {
			weekdayTP += d.TP
			weekdayFP += d.FP
			nWeekday++
		}
	}
	avgWeekday := float64(weekdayTP) / float64(nWeekday)
	avgWeekend := float64(weekendTP) / float64(nWeekend)
	if avgWeekday < 50 || avgWeekday > 120 {
		t.Errorf("weekday TP mean = %.0f, want ≈ 62–74 (figure 6)", avgWeekday)
	}
	if avgWeekend >= avgWeekday {
		t.Error("weekend TP must dip (figure 6 reflects the real weekend slowdown)")
	}
	if weekdayFP == 0 {
		t.Error("L2 must show concurrency false positives (§4.6)")
	}
	if f.RatioCI.Low < 0.6 || f.RatioCI.High > 1 {
		t.Errorf("ratio CI = %+v", f.RatioCI)
	}
}

// TestFigure7Shape asserts figure 7: the absolute number of true positives
// grows toward infinite timeout while the precision peaks at a moderate
// one.
func TestFigure7Shape(t *testing.T) {
	r := testRunner(t)
	f := r.Figure7(6, nil)
	if len(f.Points) < 5 {
		t.Fatalf("points = %d", len(f.Points))
	}
	var inf TimeoutPoint
	bestFiniteRatio := 0.0
	minFiniteTP := math.MaxInt
	for _, p := range f.Points {
		if p.Timeout == l2.NoTimeout {
			inf = p
			continue
		}
		if ratio := p.Ratio(); ratio > bestFiniteRatio {
			bestFiniteRatio = ratio
		}
		if p.TP < minFiniteTP {
			minFiniteTP = p.TP
		}
	}
	if inf.TP <= minFiniteTP {
		t.Errorf("TP at infinity (%d) must exceed the most restrictive timeout (%d)", inf.TP, minFiniteTP)
	}
	if bestFiniteRatio <= inf.Ratio() {
		t.Errorf("best finite ratio %.2f must beat infinity's %.2f (figure 7)",
			bestFiniteRatio, inf.Ratio())
	}
}

// TestTable2Signs asserts the §4.7 conclusion: every finite timeout
// improves the true-positive ratio (positive median difference) and
// reduces the absolute true positives (negative median difference, CI
// strictly negative), with the exact small-sample Wilcoxon p-value 0.0156
// when all seven days agree.
func TestTable2Signs(t *testing.T) {
	r := testRunner(t)
	tab := r.Table2(nil)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row.RatioDiffMedian <= 0 {
			t.Errorf("to=%v: ratio diff median = %+.2f, want > 0", row.Timeout, row.RatioDiffMedian)
		}
		if row.TPDiffMedian >= 0 {
			t.Errorf("to=%v: tp diff median = %+.1f, want < 0", row.Timeout, row.TPDiffMedian)
		}
		if !row.TPDiffCI.StrictlyNegative() {
			t.Errorf("to=%v: tp diff CI = %+v, want strictly negative", row.Timeout, row.TPDiffCI)
		}
		if !almostEq(row.WilcoxonTPP, 0.015625, 1e-9) {
			t.Errorf("to=%v: Wilcoxon p = %v, want 0.0156 (all days agree)", row.Timeout, row.WilcoxonTPP)
		}
	}
	// The paper's headline: the ratio-diff CIs are strictly positive. With
	// the reproduction seed they are; assert it so regressions surface.
	for _, row := range tab.Rows {
		if !row.RatioDiffCI.StrictlyPositive() {
			t.Errorf("to=%v: ratio diff CI = %+v, want strictly positive (table 2)",
				row.Timeout, row.RatioDiffCI)
		}
	}
	if s := tab.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestFigure8Taxonomy asserts the §4.8 error analysis to the count:
// 6 rare + 7 unlogged + 3 wrong-name false negatives; 2 inverted + 5
// stack-trace + 7 coincidence + 5 similar-id false positives; 24 inverted
// dependencies without stop patterns.
func TestFigure8Taxonomy(t *testing.T) {
	r := testRunner(t)
	f := r.Figure8()
	if got := len(f.FNByKind[FNRare]); got != 6 {
		t.Errorf("rare FNs = %d, want 6", got)
	}
	if got := len(f.FNByKind[FNUnlogged]); got != 7 {
		t.Errorf("unlogged FNs = %d, want 7", got)
	}
	if got := len(f.FNByKind[FNWrongName]); got != 3 {
		t.Errorf("wrong-name FNs = %d, want 3", got)
	}
	if got := len(f.FNByKind[FNOther]); got != 0 {
		t.Errorf("unexplained FNs = %d (%v), want 0 — the paper accounts for every miss",
			got, f.FNByKind[FNOther])
	}
	if got := len(f.FPByKind[FPInverted]); got != 2 {
		t.Errorf("inverted FPs = %d, want 2", got)
	}
	if got := len(f.FPByKind[FPStackTrace]); got != 5 {
		t.Errorf("stack-trace FPs = %d, want 5", got)
	}
	if got := len(f.FPByKind[FPCoincidence]); got != 7 {
		t.Errorf("coincidence FPs = %d, want 7", got)
	}
	if got := len(f.FPByKind[FPSimilarID]); got != 5 {
		t.Errorf("similar-id FPs = %d, want 5", got)
	}
	if got := len(f.FPByKind[FPOther]); got != 0 {
		t.Errorf("unexplained FPs = %d (%v)", got, f.FPByKind[FPOther])
	}
	if f.UnionFP != 19 {
		t.Errorf("union FPs = %d, want 19", f.UnionFP)
	}
	if f.InvertedWithoutStops != 24 {
		t.Errorf("inverted without stops = %d, want 24", f.InvertedWithoutStops)
	}
	// Per-day shape: high precision, weekend dip.
	for _, d := range f.PerDay.Days {
		if d.Ratio() < 0.85 {
			t.Errorf("day %d ratio = %.2f, want ≥ 0.85 (paper CI [0.93, 0.96])", d.Day, d.Ratio())
		}
	}
	weekday, weekend := 0, 0
	for _, d := range f.PerDay.Days {
		if d.Weekend {
			weekend += d.TP
		} else {
			weekday += d.TP
		}
	}
	if float64(weekend)/2 >= float64(weekday)/5 {
		t.Error("weekend TP must be clearly below weekday TP (figure 8)")
	}
	if f.PerDay.RatioCI.Low < 0.88 {
		t.Errorf("ratio CI = %+v, want ≈ [0.93, 0.96]", f.PerDay.RatioCI)
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

// TestFigure9Signs asserts the §4.9 regression conclusions: the load slope
// for L1 is strictly negative, the one for L2 compatible with zero, and the
// false-positive slopes compatible with zero.
func TestFigure9Signs(t *testing.T) {
	if testing.Short() {
		t.Skip("hourly study over a full week is expensive")
	}
	r := testRunner(t)
	f := r.Figure9(0)
	if len(f.Points) < 30 {
		t.Fatalf("only %d usable hours", len(f.Points))
	}
	if !f.P1SlopeCI.StrictlyNegative() {
		t.Errorf("p1 slope CI = %+v, want strictly negative (paper: [−0.284, −0.215])", f.P1SlopeCI)
	}
	if !f.P2SlopeCI.Contains(0) {
		t.Errorf("p2 slope CI = %+v, want to contain zero (paper: [−0.025, 0.002])", f.P2SlopeCI)
	}
	if !f.FP2SlopeCI.Contains(0) {
		t.Errorf("fp2 slope CI = %+v, want to contain zero", f.FP2SlopeCI)
	}
	if len(f.ExcludedApps) == 0 {
		t.Error("apps with unlogged invocations must be excluded (§4.9 removes 4)")
	}
	// Residual normality check, as the paper's qqplot verification.
	if f.P1QQCorr < 0.9 || f.P2QQCorr < 0.9 {
		t.Errorf("residual QQ correlations %.2f/%.2f, want ≈ 1", f.P1QQCorr, f.P2QQCorr)
	}
	if s := f.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

// TestSessionSummaryShape reproduces the §4.6 session statistics: the
// weekday/weekend session ratio of ≈ 4:1 and a single-digit assigned-log
// percentage in the paper's 7.5–11% neighborhood.
func TestSessionSummaryShape(t *testing.T) {
	r := testRunner(t)
	s := r.SessionSummary()
	if len(s.Rows) != 7 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	var weekday, weekend float64
	var nWeekday, nWeekend int
	for _, row := range s.Rows {
		if row.AssignedShare < 0.04 || row.AssignedShare > 0.20 {
			t.Errorf("day %d assigned share = %.3f, want ≈ 0.075–0.11", row.Day, row.AssignedShare)
		}
		if row.MeanLength < 4 {
			t.Errorf("day %d mean session length = %.1f", row.Day, row.MeanLength)
		}
		if row.Weekend {
			weekend += float64(row.Sessions)
			nWeekend++
		} else {
			weekday += float64(row.Sessions)
			nWeekday++
		}
	}
	ratio := (weekday / float64(nWeekday)) / (weekend / float64(nWeekend))
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("weekday/weekend session ratio = %.1f, want ≈ 4 (4000 vs 1000)", ratio)
	}
	if out := s.String(); len(out) == 0 {
		t.Error("empty rendering")
	}
}

// TestFigure8TaxonomyCrossSeed re-runs the §4.8 taxonomy at a different
// seed: the count-exact reproduction must be a property of the simulator's
// construction, not of one lucky seed.
func TestFigure8TaxonomyCrossSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a second full week")
	}
	r := NewRunner(DefaultOptions(7))
	f := r.Figure8()
	wantFN := map[FNKind]int{FNRare: 6, FNUnlogged: 7, FNWrongName: 3, FNOther: 0}
	for kind, want := range wantFN {
		if got := len(f.FNByKind[kind]); got != want {
			t.Errorf("seed 7: FN %s = %d, want %d", kind, got, want)
		}
	}
	wantFP := map[FPKind]int{FPInverted: 2, FPStackTrace: 5, FPCoincidence: 7, FPSimilarID: 5, FPOther: 0}
	for kind, want := range wantFP {
		if got := len(f.FPByKind[kind]); got != want {
			t.Errorf("seed 7: FP %s = %d, want %d", kind, got, want)
		}
	}
	if f.InvertedWithoutStops != 24 {
		t.Errorf("seed 7: inverted without stops = %d", f.InvertedWithoutStops)
	}
}

// TestPrecisionOrdering asserts the paper's headline comparison: the
// precision of the mined model grows with the semantic content used,
// L3 ≻ L2 (§6: "a performance that is proportional to the amount of
// semantic content of log messages considered").
func TestPrecisionOrdering(t *testing.T) {
	r := testRunner(t)
	l2ci := r.Figure6().RatioCI
	l3ci := r.Figure8().PerDay.RatioCI
	if (l3ci.Low+l3ci.High)/2 <= (l2ci.Low+l2ci.High)/2 {
		t.Errorf("L3 ratio CI %+v must sit above L2's %+v", l3ci, l2ci)
	}
}
