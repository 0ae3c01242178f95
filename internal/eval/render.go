package eval

import (
	"fmt"
	"strings"

	"logscape/internal/core/l2"
	"logscape/internal/logmodel"
	"logscape/internal/stats"
)

// ASCII renderings of the experiment results, in the spirit of the paper's
// tables and figures. Every result type has a String method so cmd/evalrun
// and the examples can print them directly.

func timeoutLabel(to logmodel.Millis) string {
	if to == l2.NoTimeout {
		return "inf"
	}
	return fmt.Sprintf("%.1fs", to.Seconds())
}

// String renders table 1.
func (t Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: days in test period with number of logs\n")
	b.WriteString("day        date        logs      weekend\n")
	for _, row := range t.Rows {
		we := ""
		if row.Weekend {
			we = "yes"
		}
		fmt.Fprintf(&b, "%-10d %s  %-9d %s\n", row.Day, row.Date.Format("2006-01-02"), row.Logs, we)
	}
	fmt.Fprintf(&b, "total: %d logs\n", t.Total)
	return b.String()
}

// String renders a per-day decisions figure (figures 5, 6 and 8): a bar per
// day with the true-positive (lower) and false-positive (upper) areas.
func (r PerDayResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Positive decisions per day for method %s\n", r.Technique)
	b.WriteString("day  date        TP   FP   ratio\n")
	for _, d := range r.Days {
		we := " "
		if d.Weekend {
			we = "w"
		}
		fmt.Fprintf(&b, "%-4d %s%s %-4d %-4d %.2f  %s|%s\n",
			d.Day, d.Date.Format("2006-01-02"), we, d.TP, d.FP, d.Ratio(),
			strings.Repeat("#", scaleBar(d.TP)), strings.Repeat("x", scaleBar(d.FP)))
	}
	fmt.Fprintf(&b, "median TP-ratio CI (level %.3f): [%.2f, %.2f]\n",
		r.RatioCILevel, r.RatioCI.Low, r.RatioCI.High)
	return b.String()
}

// scaleBar compresses counts into a bar length ≤ 60.
func scaleBar(n int) int {
	if n < 0 {
		return 0
	}
	if n > 150 {
		n = 150
	}
	return (n + 2) / 3
}

// String renders figure 7.
func (f Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: L2 positive decisions on %s for different timeouts\n",
		f.Date.Format("2006-01-02"))
	b.WriteString("timeout  TP   FP   ratio\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-8s %-4d %-4d %.2f\n", timeoutLabel(p.Timeout), p.TP, p.FP, p.Ratio())
	}
	return b.String()
}

// String renders table 2.
func (t Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: median timeout influences (level %.2f CIs, Wilcoxon two-sided)\n", t.Level)
	b.WriteString("to      tpr_to−tpr_inf [CI]           tp_to−tp_inf [CI]        p(tpr)   p(tp)\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-7s %+5.1f (%+5.1f, %+5.1f)    %+5.1f (%+5.1f, %+5.1f)    %.4f   %.4f\n",
			timeoutLabel(r.Timeout),
			r.RatioDiffMedian, r.RatioDiffCI.Low, r.RatioDiffCI.High,
			r.TPDiffMedian, r.TPDiffCI.Low, r.TPDiffCI.High,
			r.WilcoxonRatioP, r.WilcoxonTPP)
	}
	return b.String()
}

// String renders figure 8 with the error taxonomy.
func (f Figure8Result) String() string {
	var b strings.Builder
	b.WriteString(f.PerDay.String())
	fmt.Fprintf(&b, "union over all days: TP=%d FP=%d FN=%d\n", f.UnionTP, f.UnionFP, f.UnionFN)
	b.WriteString("false negatives by kind:\n")
	for _, kind := range []FNKind{FNRare, FNUnlogged, FNWrongName, FNOther} {
		if ps := f.FNByKind[kind]; len(ps) > 0 {
			fmt.Fprintf(&b, "  %-22s %d\n", kind, len(ps))
		}
	}
	b.WriteString("false positives by kind:\n")
	for _, kind := range []FPKind{FPInverted, FPStackTrace, FPCoincidence, FPSimilarID, FPOther} {
		if ps := f.FPByKind[kind]; len(ps) > 0 {
			fmt.Fprintf(&b, "  %-24s %d\n", kind, len(ps))
		}
	}
	fmt.Fprintf(&b, "inverted dependencies without stop patterns: %d\n", f.InvertedWithoutStops)
	return b.String()
}

// String renders figure 9.
func (f Figure9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: load study over %d hours (excluded apps: %s)\n",
		len(f.Points), strings.Join(f.ExcludedApps, ", "))
	fmt.Fprintf(&b, "p1 slope CI (95%%): [%+.3f, %+.3f]   (paper: strictly negative)\n",
		f.P1SlopeCI.Low, f.P1SlopeCI.High)
	fmt.Fprintf(&b, "p2 slope CI (95%%): [%+.3f, %+.3f]   (paper: contains zero)\n",
		f.P2SlopeCI.Low, f.P2SlopeCI.High)
	fmt.Fprintf(&b, "fp1 slope CI: [%+.3f, %+.3f], fp2 slope CI: [%+.3f, %+.3f]\n",
		f.FP1SlopeCI.Low, f.FP1SlopeCI.High, f.FP2SlopeCI.Low, f.FP2SlopeCI.High)
	fmt.Fprintf(&b, "residual QQ correlations: p1 %.3f, p2 %.3f\n", f.P1QQCorr, f.P2QQCorr)
	return b.String()
}

// String renders figure 1 as two aligned sparklines.
func (f Figure1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: logs per second, %s vs %s (corr %.2f)\n",
		f.AppA, f.AppB, f.Correlation)
	fmt.Fprintf(&b, "%-16s %s\n", f.AppA, sparkline(f.SeriesA))
	fmt.Fprintf(&b, "%-16s %s\n", f.AppB, sparkline(f.SeriesB))
	return b.String()
}

// sparkline renders a count series with height glyphs.
func sparkline(series []int) string {
	glyphs := []rune(" .:-=+*#%@")
	max := 0
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return strings.Repeat(" ", len(series))
	}
	var b strings.Builder
	for _, v := range series {
		i := v * (len(glyphs) - 1) / max
		b.WriteRune(glyphs[i])
	}
	return b.String()
}

// String renders figure 2 as textual boxplots.
func (f Figure2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: boxplots for pair (%s, %s)\n", f.AppA, f.AppB)
	for _, d := range f.Directions {
		fmt.Fprintf(&b, "reference %s, candidate %s (positive: %v)\n",
			d.Reference, d.Candidate, d.Positive)
		fmt.Fprintf(&b, "  S_r: %s  median CI95 [%.3f, %.3f] CI99 [%.3f, %.3f]\n",
			boxLabel(d.RandomBox), d.RandomCI95.Low, d.RandomCI95.High,
			d.RandomCI99.Low, d.RandomCI99.High)
		fmt.Fprintf(&b, "  S_b: %s  median CI95 [%.3f, %.3f] CI99 [%.3f, %.3f]\n",
			boxLabel(d.CandidateBox), d.CandidateCI95.Low, d.CandidateCI95.High,
			d.CandidateCI99.Low, d.CandidateCI99.High)
	}
	return b.String()
}

func boxLabel(f5 stats.FiveNum) string {
	return fmt.Sprintf("min %.3f q1 %.3f med %.3f q3 %.3f max %.3f",
		f5.Min, f5.Q1, f5.Median, f5.Q3, f5.Max)
}

// String renders figure 3 as the paper draws it: one row per source, time
// advancing to the right.
func (f Figure3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: excerpt of a user session (user %s)\n", f.User)
	if len(f.Events) == 0 {
		b.WriteString("(no session found)\n")
		return b.String()
	}
	t0 := f.Events[0].Time
	for _, src := range f.Sources {
		fmt.Fprintf(&b, "%-20s", src)
		for _, ev := range f.Events {
			if ev.Source == src {
				fmt.Fprintf(&b, " %5.1fs", (ev.Time - t0).Seconds())
			} else {
				b.WriteString("      .")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// String renders figure 4.
func (f Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: contingency table for bigram type (%s, %s)\n",
		f.Type.First, f.Type.Second)
	fmt.Fprintf(&b, "            a=%-4s a≠%s\n", f.Type.First, f.Type.First)
	fmt.Fprintf(&b, "  b=%-4s    %-6.0f %.0f\n", f.Type.Second, f.Table.O11, f.Table.O21)
	fmt.Fprintf(&b, "  b≠%-4s    %-6.0f %.0f\n", f.Type.Second, f.Table.O12, f.Table.O22)
	fmt.Fprintf(&b, "G² = %.3f, p = %.4f, positive = %v\n", f.Test.G2, f.Test.PValue, f.Test.Positive)
	return b.String()
}
