// Command evalrun reproduces the paper's evaluation (§4) on the simulated
// HUG week: it regenerates every table and figure and prints them in order.
//
// Usage:
//
//	evalrun [-seed N] [-scale F] [-exp name[,name...]]
//	evalrun -drift [-seed N] [-drift-json file]
//
// Experiment names: table1, fig1, fig2, fig3, fig4, fig5, fig6, fig7,
// table2, fig8, fig9, all (default). -drift runs the scored
// drift-detection experiment over the scripted-incident corpus instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"logscape/internal/eval"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

func main() {
	seed := flag.Int64("seed", 2005, "simulation seed")
	scale := flag.Float64("scale", 1, "volume scale (1 = 1/100 of HUG)")
	exps := flag.String("exp", "all", "comma-separated experiments to run")
	report := flag.String("report", "", "write a full Markdown report to this file and exit")
	stats := flag.Bool("stats", false, "print the run's metrics document (JSON) to stderr")
	drift := flag.Bool("drift", false, "run the scored drift-detection experiment and exit")
	driftJSON := flag.String("drift-json", "", "with -drift, also write the scorecard JSON to this file")
	flag.Parse()

	if *drift || *driftJSON != "" {
		// The drift experiment generates its own scripted-incident corpus;
		// the full evaluation week is not needed.
		t0 := time.Now() //lint:allow wallclock progress timing on stderr, not part of mined results
		sc, err := eval.RunDriftExperiment(eval.DefaultDriftOptions(*seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalrun:", err)
			os.Exit(1)
		}
		took := time.Since(t0).Round(time.Millisecond) //lint:allow wallclock progress timing on stderr, not part of mined results
		fmt.Fprintf(os.Stderr, "drift experiment done in %v\n", took)
		fmt.Print(sc)
		if *driftJSON != "" {
			data, err := json.MarshalIndent(sc, "", "  ")
			if err != nil {
				fmt.Fprintln(os.Stderr, "evalrun:", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*driftJSON, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "evalrun:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "scorecard written to %s\n", *driftJSON)
		}
		return
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	opts := eval.DefaultOptions(*seed)
	opts.Scale = *scale
	// Metrics are always collected for -report (the report embeds the
	// counters; the timings are -stats's); the registry reads the wall
	// clock only through the sanctioned obs.SystemClock edge.
	opts.Metrics = obs.NewWithClock(obs.SystemClock)
	start := time.Now() //lint:allow wallclock progress timing on stderr, not part of mined results
	fmt.Fprintf(os.Stderr, "simulating week (seed %d, scale %.2f)...\n", *seed, *scale)
	r := eval.NewRunner(opts)
	elapsed := time.Since(start).Round(time.Millisecond) //lint:allow wallclock progress timing on stderr, not part of mined results
	fmt.Fprintf(os.Stderr, "week ready in %v (%d apps, %d groups, %d true deps)\n",
		elapsed, len(r.Topo.Apps), len(r.Topo.Groups), len(r.TrueDeps))

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalrun:", err)
			os.Exit(1)
		}
		if err := r.WriteReport(f, eval.ReportOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "evalrun:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "evalrun:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *report)
		return
	}

	run := func(name string, f func() fmt.Stringer) {
		if !sel(name) {
			return
		}
		t0 := time.Now() //lint:allow wallclock per-experiment timing banner, not part of mined results
		res := f()
		took := time.Since(t0).Round(time.Millisecond) //lint:allow wallclock per-experiment timing banner, not part of mined results
		fmt.Printf("=== %s (%v) ===\n%s\n", name, took, res)
	}

	run("table1", func() fmt.Stringer { return r.Table1() })
	run("fig1", func() fmt.Stringer { return r.Figure1(0, logmodel.TimeRange{}) })
	run("fig2", func() fmt.Stringer { return r.Figure2(0) })
	run("fig3", func() fmt.Stringer { return r.Figure3(0, 0, 0) })
	run("fig4", func() fmt.Stringer { return eval.Figure4() })
	run("fig5", func() fmt.Stringer { return r.Figure5() })
	run("sessions", func() fmt.Stringer { return r.SessionSummary() })
	run("fig6", func() fmt.Stringer { return r.Figure6() })
	run("fig7", func() fmt.Stringer { return r.Figure7(6, nil) })
	run("table2", func() fmt.Stringer { return r.Table2(nil) })
	run("fig8", func() fmt.Stringer { return r.Figure8() })
	run("fig9", func() fmt.Stringer { return r.Figure9(0) })
	run("ablations", func() fmt.Stringer { return r.Ablations(0) })

	if *stats {
		if err := opts.Metrics.WriteJSON(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "evalrun:", err)
			os.Exit(1)
		}
	}
}
