// Command depmine mines dependency models from log files with the paper's
// three techniques (and the Agrawal et al. baseline), optionally scoring
// the result against a reference model.
//
// Usage:
//
//	depmine -method l1|l2|l3|baseline [flags] LOGFILE...
//
// Common flags:
//
//	-dir FILE       service-directory XML (required for l3)
//	-truth FILE     reference model to score against (tab-separated pairs)
//	-dot FILE       write the mined model as a Graphviz dot graph
//
// Method-specific flags:
//
//	-timeout SEC    L2 bigram timeout (0 = infinity; default 1)
//	-minlogs N      L1 per-slot minimum log count (default 10)
//	-nostops        L3: disable the canonical stop patterns
//	-direction      L2: print the §5 direction heuristic for mined pairs
//	-workers N      mining parallelism for every method (0 = all cores,
//	                1 = sequential); results are identical for any N.
//	                -follow commits each bucket (document, store,
//	                checkpoint) beside the mining of the next at any N
//
// Observability:
//
//	-stats          print the run's metrics document (JSON) to stderr
//	-listen ADDR    follow mode: serve /metrics and /debug/pprof/ on ADDR
//	                (e.g. :8080, or :0 for an ephemeral port)
//
// Follow mode (streaming):
//
//	-follow         tail one log stream (a file or - for stdin) and emit the
//	                sliding-window model on every closed bucket: a model
//	                document to stdout, a delta summary to stderr
//	-bucket SEC     bucket width in seconds (default 3600)
//	-window N       window size in buckets (default 24)
//	-resume FILE    checkpoint file: written atomically on every closed
//	                bucket, loaded on start to resume a killed follow run
//	                without replaying the stream or double-ingesting a line
//	                (requires -store; refused for stdin and after a rotation)
//	-quarantine FILE  append every rejected line, prefixed with its fault
//	                class (malformed, oversized, late, corrupt)
//	-drift          run the drift detector over the delivered buckets and
//	                print one DRIFT line per confirmed change point to
//	                stderr (dependency births and deaths, association-score
//	                shifts, citation-delay shifts); detector state rides in
//	                the -resume checkpoint, so a resumed run neither drops
//	                nor repeats alerts
//	-store DIR      persist every closed bucket's model + evidence to an
//	                on-disk segment store (compacted hour→day→week); with
//	                -resume, restart replays the window from local segments
//	                instead of re-reading the source logs, and DRIFT lines
//	                carry a segment=… locator
//
// Time-travel subcommands (query a store written by -follow -store):
//
//	depmine query -store DIR -at TIME          print the model document
//	                                           retained at TIME, exactly as
//	                                           it was emitted live
//	depmine diff -store DIR -from T1 -to T2    print the edge delta between
//	                                           two instants
//	depmine trajectory -store DIR -key KEY     print one dependency key's
//	                                           presence/score history
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"logscape/internal/baseline"
	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/depgraph"
	"logscape/internal/directory"
	"logscape/internal/follow"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/sessions"
)

// options carries every parsed flag plus the run's metrics registry (nil
// when observability is off). The mining flags (-method, -dir, -timeout,
// -minlogs, -nostops, -workers, -bucket, -window, -drift) bind straight into
// the follow.Spec follow mode runs; batch mode reads the same fields.
type options struct {
	spec           follow.Spec
	truthPath      string
	dotPath        string
	jsonPath       string
	impact         string
	direction      bool
	stats          bool
	listen         string
	resumePath     string
	quarantinePath string
	storePath      string
	files          []string
	metrics        *obs.Registry
}

func main() {
	if len(os.Args) > 1 && storeCommands[os.Args[1]] {
		if err := runStoreCommand(os.Args[1], os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "depmine:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.spec.Method, "method", "l3", "mining technique: l1, l2, l3 or baseline")
	flag.StringVar(&o.spec.Directory, "dir", "", "service-directory XML (required for l3)")
	flag.StringVar(&o.truthPath, "truth", "", "reference model file to score against")
	flag.StringVar(&o.dotPath, "dot", "", "write the mined model as a Graphviz dot file")
	flag.StringVar(&o.jsonPath, "json", "", "write the mined model as a JSON model document")
	flag.StringVar(&o.impact, "impact", "", "print impact and root-cause analysis for a component")
	flag.Float64Var(&o.spec.TimeoutSec, "timeout", 1, "L2 bigram timeout in seconds (0 = infinity)")
	flag.IntVar(&o.spec.MinLogs, "minlogs", 10, "L1 per-slot minimum log count")
	flag.BoolVar(&o.spec.NoStops, "nostops", false, "L3: disable the canonical stop patterns")
	flag.BoolVar(&o.direction, "direction", false, "L2: print direction hints for mined pairs")
	flag.IntVar(&o.spec.Workers, "workers", 0, "mining parallelism: 0 = all cores, 1 = sequential (results are identical for any value; with -follow each bucket's commit overlaps the next bucket's mining at any value)")
	flag.BoolVar(&o.stats, "stats", false, "print the run's metrics document (JSON) to stderr")
	flag.StringVar(&o.listen, "listen", "", "follow mode: serve /metrics and /debug/pprof/ on this address")
	followMode := flag.Bool("follow", false, "streaming mode: tail one log stream and emit the sliding-window model per bucket")
	flag.Float64Var(&o.spec.BucketSec, "bucket", 3600, "follow mode: bucket width in seconds")
	flag.IntVar(&o.spec.WindowBuckets, "window", 24, "follow mode: window size in buckets")
	flag.StringVar(&o.resumePath, "resume", "", "follow mode: checkpoint file — written per closed bucket, loaded on start to resume after a kill (requires -store)")
	flag.BoolVar(&o.spec.Drift, "drift", false, "follow mode: detect model drift (births, deaths, score and delay shifts) and print DRIFT lines to stderr")
	flag.StringVar(&o.quarantinePath, "quarantine", "", "follow mode: append rejected lines (malformed/oversized/late/corrupt) to this file")
	flag.StringVar(&o.storePath, "store", "", "follow mode: persist per-bucket models and evidence to this segment-store directory")
	flag.Parse()
	o.files = flag.Args()
	if len(o.files) == 0 {
		fmt.Fprintln(os.Stderr, "depmine: at least one log file is required")
		flag.Usage()
		os.Exit(2)
	}
	if o.stats || o.listen != "" {
		// The one place the wall clock enters the metrics layer: the CLI
		// edge injects obs.SystemClock; mining code only sees the registry.
		o.metrics = obs.NewWithClock(obs.SystemClock)
	}
	var err error
	if *followMode {
		err = followStream(o, os.Stdout, os.Stderr)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "depmine:", err)
		os.Exit(1)
	}
}

// printStats writes the metrics document to stderr when -stats is set.
func printStats(o options) {
	if !o.stats || o.metrics == nil {
		return
	}
	if err := o.metrics.WriteJSON(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "depmine: writing stats:", err)
	}
}

func run(o options) error {
	stop := o.metrics.Timer("depmine.load_ns")
	store, err := logmodel.ReadFiles(o.files) // plain or .gz, merged into one sorted store
	stop()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %d log entries from %d file(s), %d sources\n",
		store.Len(), len(o.files), len(store.Sources()))
	span := store.Span()

	var pairs core.PairSet
	var deps core.AppServiceSet
	switch o.spec.Method {
	case "l1":
		res := l1.Mine(store, span, nil, l1.Config{MinLogs: o.spec.MinLogs, Workers: o.spec.Workers, Metrics: o.metrics})
		pairs = res.DependentPairs()
	case "l2":
		ss, stats := sessions.Build(store, sessions.Config{Metrics: o.metrics})
		fmt.Fprintf(os.Stderr, "built %d sessions (%.1f%% of logs assigned)\n",
			stats.Sessions, 100*stats.AssignedShare())
		to := logmodel.SecondsToMillis(o.spec.TimeoutSec)
		if o.spec.TimeoutSec == 0 {
			to = l2.NoTimeout
		}
		res := l2.Mine(ss, l2.Config{Timeout: to, Workers: o.spec.Workers, Metrics: o.metrics})
		pairs = res.DependentPairs()
		if o.direction {
			hints := l2.DirectionHints(ss, pairs, to)
			for _, p := range pairs.SortedPairs() {
				h, ok := hints[p]
				if !ok {
					continue
				}
				caller := h.Caller()
				if caller == "" {
					caller = "?"
				}
				fmt.Printf("# direction %s: caller likely %s (%d vs %d runs)\n",
					p, caller, h.AFirst, h.BFirst)
			}
		}
	case "l3":
		if o.spec.Directory == "" {
			return fmt.Errorf("l3 requires -dir")
		}
		dir, err := directory.ReadFile(o.spec.Directory)
		if err != nil {
			return err
		}
		cfg := l3.DefaultConfig()
		cfg.Workers = o.spec.Workers
		cfg.Metrics = o.metrics
		if !o.spec.NoStops {
			cfg.Stops = directory.CanonicalStopPatterns()
		}
		deps = l3.NewMiner(dir, cfg).Mine(store, logmodel.TimeRange{}).Dependencies()
	case "baseline":
		bcfg := baseline.DefaultConfig()
		bcfg.Workers = o.spec.Workers
		bcfg.Metrics = o.metrics
		res := baseline.Mine(store, span, nil, bcfg)
		pairs = res.DependentPairs()
	default:
		return fmt.Errorf("unknown method %q", o.spec.Method)
	}

	stop = o.metrics.Timer("depmine.emit_ns")
	// Print the model.
	if deps != nil {
		for _, d := range deps.SortedPairs() {
			fmt.Printf("%s\t%s\n", d.App, d.Group)
		}
	} else {
		for _, p := range pairs.SortedPairs() {
			fmt.Printf("%s\t%s\n", p.A, p.B)
		}
	}

	if o.dotPath != "" {
		if err := writeDot(o.dotPath, pairs, deps); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return err
		}
		var doc core.ModelDocument
		params := map[string]string{"files": strings.Join(o.files, ",")}
		if deps != nil {
			doc = core.NewDepDocument(o.spec.Method, deps, params)
		} else {
			doc = core.NewPairDocument(o.spec.Method, pairs, params)
		}
		if err := core.WriteModel(f, doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.impact != "" {
		printImpact(o.impact, pairs, deps)
	}
	stop()
	printStats(o)
	if o.truthPath != "" {
		return score(o.truthPath, pairs, deps, store)
	}
	return nil
}

// printImpact builds the dependency graph of the mined model and prints the
// impact and root-cause sets of the given component (§1.1's motivating
// applications). For an app→service model the graph mixes application and
// service-group nodes (edges app → group), which keeps the analysis useful
// without knowing group ownership.
func printImpact(node string, pairs core.PairSet, deps core.AppServiceSet) {
	var g *depgraph.Graph
	if deps != nil {
		g = depgraph.New()
		for d := range deps {
			g.AddEdge(d.App, d.Group)
		}
	} else {
		g = depgraph.FromPairs(pairs)
	}
	fmt.Fprintf(os.Stderr, "impact of %s failing (transitively affected): %v\n",
		node, g.Impact(node))
	fmt.Fprintf(os.Stderr, "root-cause candidates when %s misbehaves: %v\n",
		node, g.RootCauses(node))
	rank := g.CriticalityRanking()
	top := rank
	if len(top) > 5 {
		top = top[:5]
	}
	fmt.Fprintf(os.Stderr, "most critical components: ")
	for i, c := range top {
		if i > 0 {
			fmt.Fprint(os.Stderr, ", ")
		}
		fmt.Fprintf(os.Stderr, "%s(%d)", c.Node, c.ImpactSize)
	}
	fmt.Fprintln(os.Stderr)
}

// score reads a tab-separated reference model and prints the confusion.
func score(path string, pairs core.PairSet, deps core.AppServiceSet, store *logmodel.Store) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var conf core.Confusion
	if deps != nil {
		truth := make(core.AppServiceSet)
		groups := make(map[string]bool)
		for _, line := range lines {
			parts := strings.Split(line, "\t")
			if len(parts) != 2 {
				continue
			}
			truth[core.AppServicePair{App: parts[0], Group: parts[1]}] = true
			groups[parts[1]] = true
		}
		universe := len(store.Sources()) * len(groups)
		conf = core.CompareAppService(deps, truth, universe)
	} else {
		truth := make(core.PairSet)
		for _, line := range lines {
			parts := strings.Split(line, "\t")
			if len(parts) != 2 {
				continue
			}
			truth[core.MakePair(parts[0], parts[1])] = true
		}
		n := len(store.Sources())
		conf = core.ComparePairs(pairs, truth, n*(n-1)/2)
	}
	fmt.Fprintf(os.Stderr, "score: TP=%d FP=%d FN=%d precision=%.2f recall=%.2f\n",
		conf.TP, conf.FP, conf.FN, conf.Precision(), conf.Recall())
	return nil
}

// writeDot exports the mined model as a Graphviz digraph (deps) or graph
// (pairs).
func writeDot(path string, pairs core.PairSet, deps core.AppServiceSet) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if deps != nil {
		fmt.Fprintln(f, "digraph dependencies {")
		fmt.Fprintln(f, "  rankdir=LR;")
		for _, d := range deps.SortedPairs() {
			fmt.Fprintf(f, "  %q -> %q;\n", d.App, d.Group)
		}
	} else {
		fmt.Fprintln(f, "graph dependencies {")
		for _, p := range pairs.SortedPairs() {
			fmt.Fprintf(f, "  %q -- %q;\n", p.A, p.B)
		}
	}
	fmt.Fprintln(f, "}")
	return nil
}
