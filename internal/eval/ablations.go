package eval

import (
	"fmt"
	"strings"

	"logscape/internal/baseline"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/logmodel"
)

// AblationRow is one design-choice variant evaluated on the ablation day.
type AblationRow struct {
	// Technique groups the rows ("L1", "L2", "L3", "baseline").
	Technique string
	// Variant names the design choice.
	Variant string
	// TP and FP score the variant against the reference model.
	TP, FP int
}

// Precision returns TP/(TP+FP).
func (r AblationRow) Precision() float64 { return ratioOrNaN(r.TP, r.FP) }

// AblationsResult evaluates every DESIGN.md §5 design choice on one day of
// the simulated week, holding everything else fixed.
type AblationsResult struct {
	Day  int
	Rows []AblationRow
}

// Ablations runs the ablation suite on the given day.
func (r *Runner) Ablations(day int) AblationsResult {
	res := AblationsResult{Day: day}
	store := r.Stores[day]
	dayRange := r.Sim.DayRange(day)
	apps := r.AppNames()

	scoreL1 := func(variant string, cfg l1.Config) {
		if cfg.MinLogs == 0 {
			cfg.MinLogs = r.Opts.L1.MinLogs
		}
		cfg.Seed = r.Opts.Seed
		conf := r.ScorePairs(l1.Mine(store, dayRange, apps, cfg).DependentPairs())
		res.Rows = append(res.Rows, AblationRow{Technique: "L1", Variant: variant, TP: conf.TP, FP: conf.FP})
	}
	// 1–3: distance, sidedness, statistic (DESIGN.md §5 items 1–3).
	scoreL1("paper (nearest, one-sided, median)", l1.Config{})
	scoreL1("next-arrival distance (Li & Ma)", l1.Config{Distance: l1.DistNext})
	scoreL1("two-sided test (Li & Ma)", l1.Config{TwoSided: true})
	scoreL1("mean statistic (Li & Ma)", l1.Config{Statistic: l1.StatMean})
	// §5 future-work variants.
	scoreL1("total-activity reference (§5)", l1.Config{Reference: l1.RefTotalActivity})
	// 6: slotting.
	scoreL1("global 24h slot", l1.Config{SlotWidth: 24 * logmodel.MillisPerHour, ThS: 0.04})
	{
		cfg := l1.Config{MinLogs: r.Opts.L1.MinLogs, Seed: r.Opts.Seed}
		slots := l1.EqualCountSlots(store, dayRange, 24)
		conf := r.ScorePairs(l1.MineSlots(store, slots, apps, cfg).DependentPairs())
		res.Rows = append(res.Rows, AblationRow{Technique: "L1", Variant: "equal-count slots (§5 adaptive)", TP: conf.TP, FP: conf.FP})
	}

	// 4: association measure for L2.
	ss := r.sessionsCached(day)
	for _, m := range []struct {
		name    string
		measure l2.Measure
	}{
		{"Dunning G² (paper)", l2.MeasureG2},
		{"Pearson X²", l2.MeasurePearson},
		{"Fisher exact", l2.MeasureFisher},
	} {
		conf := r.ScorePairs(l2.Mine(ss, l2.Config{Measure: m.measure}).DependentPairs())
		res.Rows = append(res.Rows, AblationRow{Technique: "L2", Variant: m.name, TP: conf.TP, FP: conf.FP})
	}

	// 5: stop patterns for L3.
	for _, v := range []struct {
		name string
		cfg  l3.Config
	}{
		{"with stop patterns (paper)", l3.Config{Stops: r.Opts.Stops}},
		{"without stop patterns", l3.Config{}},
	} {
		deps := l3.NewMiner(r.Dir, v.cfg).Mine(store, logmodel.TimeRange{}).Dependencies()
		conf := r.ScoreDeps(deps)
		res.Rows = append(res.Rows, AblationRow{Technique: "L3", Variant: v.name, TP: conf.TP, FP: conf.FP})
	}

	// Related-work baseline on the same day and universe.
	conf := r.ScorePairs(baseline.Mine(store, dayRange, apps, baseline.Config{Metrics: r.Opts.Metrics}).DependentPairs())
	res.Rows = append(res.Rows, AblationRow{Technique: "baseline", Variant: "Agrawal delay histogram", TP: conf.TP, FP: conf.FP})

	return res
}

// String renders the ablation table.
func (a AblationsResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations on day %d (DESIGN.md §5)\n", a.Day)
	b.WriteString("technique  variant                                TP   FP   precision\n")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-10s %-38s %-4d %-4d %.2f\n",
			r.Technique, r.Variant, r.TP, r.FP, r.Precision())
	}
	return b.String()
}
