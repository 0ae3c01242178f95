package eval

import (
	"fmt"
	"io"

	"logscape/internal/logmodel"
)

// ReportOptions selects what WriteReport includes.
type ReportOptions struct {
	// SkipSlow omits the expensive experiments (figure 5's full-week L1
	// run, figure 9's hourly study, the ablations).
	SkipSlow bool
	// AblationDay is the day for the ablation suite (default 0).
	AblationDay int
}

// WriteReport renders the complete evaluation as a Markdown document: the
// per-experiment renderings in paper order, preceded by a configuration
// summary. cmd/evalrun exposes it as -report; the committed EXPERIMENTS.md
// is the curated version of this output.
func (r *Runner) WriteReport(w io.Writer, opts ReportOptions) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "# logscape evaluation report\n\n")
	fmt.Fprintf(bw, "Configuration: seed %d, scale %.2f, %d days; %d applications, %d service groups, %d true dependencies (%d true application pairs).\n\n",
		r.Opts.Seed, r.Opts.Scale, r.Opts.Days,
		len(r.Topo.Apps), len(r.Topo.Groups), len(r.TrueDeps), len(r.TruePairs))
	fmt.Fprintf(bw, "L1: minlogs %d, th_pr %.2f (0 = default 0.6), th_s %.2f (0 = default 0.3). Sessions and L2/L3 at package defaults unless overridden.\n\n",
		r.Opts.L1.MinLogs, r.Opts.L1.ThPr, r.Opts.L1.ThS)

	section := func(title string, body fmt.Stringer) {
		fmt.Fprintf(bw, "## %s\n\n```\n%s```\n\n", title, body)
	}
	section("Table 1 — log volume per day", r.Table1())
	section("Figure 1 — correlated activity", r.Figure1(0, logmodel.TimeRange{}))
	section("Figure 2 — L1 slot-test boxplots", r.Figure2(0))
	section("Figure 3 — session excerpt", r.Figure3(0, 0, 0))
	section("Figure 4 — running-example contingency table", Figure4())
	if !opts.SkipSlow {
		section("Figure 5 — L1 per day", r.Figure5())
	}
	section("Session creation (§4.6)", r.SessionSummary())
	section("Figure 6 — L2 per day", r.Figure6())
	section("Figure 7 — timeout sweep", r.Figure7(len(r.Stores)-1, nil))
	section("Table 2 — timeout influence", r.Table2(nil))
	section("Figure 8 — L3 per day with error taxonomy", r.Figure8())
	if !opts.SkipSlow {
		section("Figure 9 — load study", r.Figure9(0))
		section("Ablations", r.Ablations(opts.AblationDay))
		if sc, err := RunDriftExperiment(DefaultDriftOptions(r.Opts.Seed)); err != nil {
			if bw.err == nil {
				bw.err = err
			}
		} else {
			section("Drift detection — scripted incidents", sc)
		}
	}
	if r.Opts.Metrics != nil {
		// Last, so the snapshot covers every experiment above. Counters only:
		// they are a function of the seed, which keeps the whole report one
		// (CI regenerates it and compares); timings are evalrun -stats's.
		doc, err := r.Opts.Metrics.CounterDocument()
		if err != nil && bw.err == nil {
			bw.err = err
		}
		fmt.Fprintf(bw, "## Metrics snapshot\n\n```json\n%s\n```\n\n", doc)
	}
	return bw.err
}

// errWriter folds write errors so report generation reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
