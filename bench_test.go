package logscape_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index), plus throughput
// benchmarks for each subsystem and the ablation benchmarks of DESIGN.md §5.
//
// The per-experiment benchmarks report the reproduced headline numbers as
// custom metrics (tp/op, fp/op, ...) so `go test -bench=.` doubles as the
// EXPERIMENTS.md data source.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"logscape/internal/baseline"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/eval"
	"logscape/internal/follow"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

var (
	benchOnce   sync.Once
	benchRunner *eval.Runner
)

// benchSetup simulates the full test week once for all benchmarks (seed
// 2005, full 1/100 scale — the configuration of cmd/evalrun).
func benchSetup(b *testing.B) *eval.Runner {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = eval.NewRunner(eval.DefaultOptions(2005))
	})
	return benchRunner
}

// --- Experiment benchmarks (one per table and figure) ----------------------

func BenchmarkTable1LogVolume(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = r.Table1().Total
	}
	b.ReportMetric(float64(total), "logs/week")
}

func BenchmarkFigure1ActivitySeries(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var corr float64
	for i := 0; i < b.N; i++ {
		corr = r.Figure1(0, logmodel.TimeRange{}).Correlation
	}
	b.ReportMetric(corr, "corr")
}

func BenchmarkFigure2Boxplots(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	pos := 0
	for i := 0; i < b.N; i++ {
		f := r.Figure2(0)
		pos = 0
		for _, d := range f.Directions {
			if d.Positive {
				pos++
			}
		}
	}
	b.ReportMetric(float64(pos), "positive-directions")
}

func BenchmarkFigure3SessionExcerpt(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(r.Figure3(0, 0, 0).Events)
	}
	b.ReportMetric(float64(n), "events")
}

func BenchmarkFigure4ContingencyTable(b *testing.B) {
	var g2 float64
	for i := 0; i < b.N; i++ {
		g2 = eval.Figure4().Test.G2
	}
	b.ReportMetric(g2, "G2")
}

func BenchmarkFigure5L1Days(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var tp, fp int
	for i := 0; i < b.N; i++ {
		f := r.Figure5()
		tp, fp = 0, 0
		for _, d := range f.Days {
			tp += d.TP
			fp += d.FP
		}
	}
	b.ReportMetric(float64(tp)/7, "tp/day")
	b.ReportMetric(float64(fp)/7, "fp/day")
}

func BenchmarkFigure6L2Days(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var tp, fp int
	for i := 0; i < b.N; i++ {
		f := r.Figure6()
		tp, fp = 0, 0
		for _, d := range f.Days {
			tp += d.TP
			fp += d.FP
		}
	}
	b.ReportMetric(float64(tp)/7, "tp/day")
	b.ReportMetric(float64(fp)/7, "fp/day")
}

func BenchmarkFigure7TimeoutSweep(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var bestRatio float64
	for i := 0; i < b.N; i++ {
		f := r.Figure7(6, nil)
		bestRatio = 0
		for _, p := range f.Points {
			if ratio := p.Ratio(); ratio > bestRatio {
				bestRatio = ratio
			}
		}
	}
	b.ReportMetric(bestRatio, "best-ratio")
}

func BenchmarkTable2TimeoutTest(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var medianRatioDiff float64
	for i := 0; i < b.N; i++ {
		t2 := r.Table2(nil)
		medianRatioDiff = t2.Rows[len(t2.Rows)-1].RatioDiffMedian
	}
	b.ReportMetric(medianRatioDiff, "tpr-gain-pp")
}

func BenchmarkFigure8L3Days(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var unionTP, unionFP int
	for i := 0; i < b.N; i++ {
		f := r.Figure8()
		unionTP, unionFP = f.UnionTP, f.UnionFP
	}
	b.ReportMetric(float64(unionTP), "union-tp")
	b.ReportMetric(float64(unionFP), "union-fp")
}

func BenchmarkFigure9LoadStudy(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	var slope float64
	for i := 0; i < b.N; i++ {
		slope = r.Figure9(0).P1Regression.Slope
	}
	b.ReportMetric(slope, "p1-slope")
}

// --- Subsystem throughput benchmarks ---------------------------------------

func BenchmarkSimulateDay(b *testing.B) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 2005)
	sim := hospital.NewSimulator(hospital.DefaultConfig(2005), topo)
	b.ResetTimer()
	var logs int
	for i := 0; i < b.N; i++ {
		store, _ := sim.GenerateDay(i % 7)
		logs = store.Len()
	}
	b.ReportMetric(float64(logs), "logs")
}

func BenchmarkSessionBuild(b *testing.B) {
	r := benchSetup(b)
	store := r.Stores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sessions.Build(store, sessions.Config{})
	}
}

func BenchmarkL1MineDay(b *testing.B) {
	r := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Mine(r.Stores[0], r.Sim.DayRange(0), r.AppNames(), r.Opts.L1)
	}
}

func BenchmarkL2MineDay(b *testing.B) {
	r := benchSetup(b)
	ss, _ := r.SessionsOfDay(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2.Mine(ss, r.Opts.L2)
	}
}

func BenchmarkL3MineDay(b *testing.B) {
	r := benchSetup(b)
	m := l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops})
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(m.Mine(r.Stores[0], logmodel.TimeRange{}).Dependencies())
	}
	b.ReportMetric(float64(n), "deps")
}

func BenchmarkL3Throughput(b *testing.B) {
	// Per-entry scanning cost of the citation automaton.
	r := benchSetup(b)
	m := l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops})
	store := r.Stores[0]
	b.SetBytes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mine(store, logmodel.TimeRange{})
	}
	b.ReportMetric(float64(store.Len()*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkBaselineMineHour(b *testing.B) {
	r := benchSetup(b)
	hr := logmodel.TimeRange{
		Start: r.Sim.DayRange(0).Start + 10*logmodel.MillisPerHour,
		End:   r.Sim.DayRange(0).Start + 11*logmodel.MillisPerHour,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Mine(r.Stores[0], hr, nil, baseline.Config{})
	}
}

// --- Parallel mining engine benchmarks (internal/parallel) ------------------
//
// Sequential/Parallel pairs A/B the Workers knob of each miner: Workers: 1
// is the exact sequential path, Workers: 0 fans out over GOMAXPROCS via
// internal/parallel. On a 4+ core machine the parallel variants should show
// a ≥2× speedup; results are bit-identical either way (determinism_test.go).

func benchmarkL1Workers(b *testing.B, workers int) {
	r := benchSetup(b)
	cfg := r.Opts.L1
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.Mine(r.Stores[0], r.Sim.DayRange(0), r.AppNames(), cfg)
	}
}

func BenchmarkL1Sequential(b *testing.B) { benchmarkL1Workers(b, 1) }
func BenchmarkL1Parallel(b *testing.B)   { benchmarkL1Workers(b, 0) }

func benchmarkL2Workers(b *testing.B, workers int) {
	r := benchSetup(b)
	ss, _ := r.SessionsOfDay(0)
	cfg := r.Opts.L2
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2.Mine(ss, cfg)
	}
}

func BenchmarkL2Sequential(b *testing.B) { benchmarkL2Workers(b, 1) }
func BenchmarkL2Parallel(b *testing.B)   { benchmarkL2Workers(b, 0) }

func benchmarkL3Workers(b *testing.B, workers int) {
	r := benchSetup(b)
	m := l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops, Workers: workers})
	store := r.Stores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mine(store, logmodel.TimeRange{})
	}
	b.ReportMetric(float64(store.Len()*b.N)/b.Elapsed().Seconds(), "entries/s")
}

func BenchmarkL3Sequential(b *testing.B) { benchmarkL3Workers(b, 1) }
func BenchmarkL3Parallel(b *testing.B)   { benchmarkL3Workers(b, 0) }

func benchmarkBaselineWorkers(b *testing.B, workers int) {
	r := benchSetup(b)
	hr := logmodel.TimeRange{
		Start: r.Sim.DayRange(0).Start + 10*logmodel.MillisPerHour,
		End:   r.Sim.DayRange(0).Start + 11*logmodel.MillisPerHour,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Mine(r.Stores[0], hr, nil, baseline.Config{Workers: workers}) //lint:allow cfgzero benchmark measures the worker sweep over package defaults
	}
}

func BenchmarkBaselineSequential(b *testing.B) { benchmarkBaselineWorkers(b, 1) }
func BenchmarkBaselineParallel(b *testing.B)   { benchmarkBaselineWorkers(b, 0) }

// --- Ablation benchmarks (DESIGN.md §5) -------------------------------------

// ablationL1 runs L1 on day 0 with the given config and reports TP/FP.
func ablationL1(b *testing.B, cfg l1.Config) {
	r := benchSetup(b)
	if cfg.MinLogs == 0 {
		cfg.MinLogs = r.Opts.L1.MinLogs
	}
	cfg.Seed = r.Opts.Seed
	b.ResetTimer()
	var conf = r.ScorePairs(nil)
	for i := 0; i < b.N; i++ {
		res := l1.Mine(r.Stores[0], r.Sim.DayRange(0), r.AppNames(), cfg)
		conf = r.ScorePairs(res.DependentPairs())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

func BenchmarkAblationL1DistanceNearest(b *testing.B) {
	ablationL1(b, l1.Config{Distance: l1.DistNearest})
}

func BenchmarkAblationL1DistanceNext(b *testing.B) {
	ablationL1(b, l1.Config{Distance: l1.DistNext})
}

func BenchmarkAblationL1TwoSided(b *testing.B) {
	ablationL1(b, l1.Config{TwoSided: true})
}

func BenchmarkAblationL1MeanStatistic(b *testing.B) {
	ablationL1(b, l1.Config{Statistic: l1.StatMean})
}

func BenchmarkAblationL1TotalActivityRef(b *testing.B) {
	ablationL1(b, l1.Config{Reference: l1.RefTotalActivity})
}

func BenchmarkAblationL1EqualCountSlots(b *testing.B) {
	r := benchSetup(b)
	cfg := l1.Config{MinLogs: r.Opts.L1.MinLogs, Seed: r.Opts.Seed}
	slots := l1.EqualCountSlots(r.Stores[0], r.Sim.DayRange(0), 24)
	b.ResetTimer()
	var conf = r.ScorePairs(nil)
	for i := 0; i < b.N; i++ {
		res := l1.MineSlots(r.Stores[0], slots, r.AppNames(), cfg)
		conf = r.ScorePairs(res.DependentPairs())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

func BenchmarkAblationL1GlobalSlot(b *testing.B) {
	// Slotting ablation: one 24-hour slot instead of hourly slots — the
	// §3.1 time-of-day confounder makes everything correlate.
	ablationL1(b, l1.Config{SlotWidth: 24 * logmodel.MillisPerHour, ThS: 0.04})
}

func BenchmarkAblationL2MeasureG2(b *testing.B) {
	r := benchSetup(b)
	ss, _ := r.SessionsOfDay(0)
	b.ResetTimer()
	var conf = r.ScorePairs(nil)
	for i := 0; i < b.N; i++ {
		conf = r.ScorePairs(l2.Mine(ss, l2.Config{Measure: l2.MeasureG2}).DependentPairs())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

func BenchmarkAblationL2MeasurePearson(b *testing.B) {
	r := benchSetup(b)
	ss, _ := r.SessionsOfDay(0)
	b.ResetTimer()
	var conf = r.ScorePairs(nil)
	for i := 0; i < b.N; i++ {
		conf = r.ScorePairs(l2.Mine(ss, l2.Config{Measure: l2.MeasurePearson}).DependentPairs())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

func BenchmarkAblationL3WithStops(b *testing.B) {
	r := benchSetup(b)
	m := l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops})
	b.ResetTimer()
	var conf = r.ScoreDeps(nil)
	for i := 0; i < b.N; i++ {
		conf = r.ScoreDeps(m.Mine(r.Stores[0], logmodel.TimeRange{}).Dependencies())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

func BenchmarkAblationL3NoStops(b *testing.B) {
	r := benchSetup(b)
	m := l3.NewMiner(r.Dir, l3.Config{})
	b.ResetTimer()
	var conf = r.ScoreDeps(nil)
	for i := 0; i < b.N; i++ {
		conf = r.ScoreDeps(m.Mine(r.Stores[0], logmodel.TimeRange{}).Dependencies())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

// BenchmarkAblationBaselineVsL1 compares the related-work baseline to L1
// on the same day and universe.
func BenchmarkAblationBaselineVsL1(b *testing.B) {
	r := benchSetup(b)
	hr := r.Sim.DayRange(0)
	b.ResetTimer()
	var conf = r.ScorePairs(nil)
	for i := 0; i < b.N; i++ {
		res := baseline.Mine(r.Stores[0], hr, r.AppNames(), baseline.Config{})
		conf = r.ScorePairs(res.DependentPairs())
	}
	b.ReportMetric(float64(conf.TP), "tp")
	b.ReportMetric(float64(conf.FP), "fp")
}

// BenchmarkDirectionHints measures the §5 direction heuristic over the
// day's dependent pairs.
func BenchmarkDirectionHints(b *testing.B) {
	r := benchSetup(b)
	ss, _ := r.SessionsOfDay(0)
	pairs := l2.Mine(ss, r.Opts.L2).DependentPairs()
	b.ResetTimer()
	var decided int
	for i := 0; i < b.N; i++ {
		hints := l2.DirectionHints(ss, pairs, logmodel.MillisPerSecond)
		decided = 0
		for _, h := range hints {
			if h.Caller() != "" {
				decided++
			}
		}
	}
	b.ReportMetric(float64(decided), "decided")
}

// --- Streaming benchmarks (internal/stream) ---------------------------------
//
// Stream/Batch pairs A/B the incremental window maintenance against
// re-mining every window from scratch, on the same day and window
// sequence; both report ns/advance (one advance = one bucket entering the
// window plus a full model snapshot). The incremental Advance cost scales
// with the bucket, not the window, so the stream variants stay flat as the
// WindowScaling sub-benchmarks widen the window while the batch references
// grow linearly with it.

func streamWcfg(w int) stream.Config {
	return stream.Config{
		BucketWidth:   logmodel.MillisPerHour,
		WindowBuckets: w,
		Workers:       0,
	}
}

func mkStreamL1(r *eval.Runner, wcfg stream.Config) stream.Miner {
	cfg := r.Opts.L1
	cfg.Workers = wcfg.Workers
	return stream.NewL1(wcfg, cfg)
}

func mkStreamL2(r *eval.Runner, wcfg stream.Config) stream.Miner {
	cfg := r.Opts.L2
	cfg.Workers = wcfg.Workers
	return stream.NewL2(wcfg, sessions.Config{}, cfg)
}

func mkStreamL3(r *eval.Runner, wcfg stream.Config) stream.Miner {
	return stream.NewL3(wcfg, l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops, Workers: wcfg.Workers}))
}

// benchmarkStreaming replays day 0 through a fresh stream miner per
// iteration, snapshotting on every bucket advance.
func benchmarkStreaming(b *testing.B, mk func(*eval.Runner, stream.Config) stream.Miner, w int) {
	r := benchSetup(b)
	entries := r.Stores[0].Entries()
	wcfg := streamWcfg(w)
	b.ResetTimer()
	advances := 0
	for i := 0; i < b.N; i++ {
		m := mk(r, wcfg)
		in := stream.NewIngester(wcfg, m)
		advances = 0
		in.OnAdvance = func(stream.Bucket) { m.Snapshot(); advances++ }
		in.AddBatch(entries)
		in.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*advances), "ns/advance")
}

// benchmarkBatchWindows is the non-incremental reference: the same window
// sequence, each window batch-mined from scratch.
func benchmarkBatchWindows(b *testing.B, mk func(*eval.Runner, stream.Config) stream.Miner, w int) {
	r := benchSetup(b)
	entries := r.Stores[0].Entries()
	wcfg := streamWcfg(w)
	m := mk(r, wcfg)
	type windowCase struct {
		store *logmodel.Store
		r     logmodel.TimeRange
	}
	var wins []windowCase
	in := stream.NewIngester(wcfg)
	in.OnAdvance = func(stream.Bucket) {
		wins = append(wins, windowCase{store: in.WindowStore(), r: in.WindowRange()})
	}
	in.AddBatch(entries)
	in.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wc := range wins {
			m.Batch(wc.store, wc.r)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(wins)), "ns/advance")
}

func BenchmarkStreamL1Advance(b *testing.B)        { benchmarkStreaming(b, mkStreamL1, 6) }
func BenchmarkStreamL1BatchReference(b *testing.B) { benchmarkBatchWindows(b, mkStreamL1, 6) }
func BenchmarkStreamL2Advance(b *testing.B)        { benchmarkStreaming(b, mkStreamL2, 6) }
func BenchmarkStreamL2BatchReference(b *testing.B) { benchmarkBatchWindows(b, mkStreamL2, 6) }
func BenchmarkStreamL3Advance(b *testing.B)        { benchmarkStreaming(b, mkStreamL3, 6) }
func BenchmarkStreamL3BatchReference(b *testing.B) { benchmarkBatchWindows(b, mkStreamL3, 6) }

// BenchmarkStreamWindowScaling widens the window with the workload fixed:
// ns/advance must stay flat for the incremental miner and grow ~linearly
// for the batch reference. w24 is the follow engine's default window.
func BenchmarkStreamWindowScaling(b *testing.B) {
	for _, w := range []int{4, 8, 16, 24} {
		b.Run(fmt.Sprintf("stream-w%d", w), func(b *testing.B) { benchmarkStreaming(b, mkStreamL1, w) })
		b.Run(fmt.Sprintf("batch-w%d", w), func(b *testing.B) { benchmarkBatchWindows(b, mkStreamL1, w) })
	}
}

// --- Ingestion hot-path benchmarks ------------------------------------------
//
// BenchmarkIngestE2E is the headline entries/sec/core number: the synthetic
// week rendered to wire format once, then each iteration drives the full
// parse → bucket path (Feeder line assembly, wire parsing, Ingester
// bucketing and bucket-close sorts) over the rendered bytes on one
// goroutine, so entries/s is entries/sec/core. No miners are attached: this
// isolates the ingestion ceiling everything above it rides on.
func BenchmarkIngestE2E(b *testing.B) {
	r := benchSetup(b)
	var buf bytes.Buffer
	entries := 0
	for d := 0; d < 7; d++ {
		if err := logmodel.WriteAll(&buf, r.Stores[d]); err != nil {
			b.Fatal(err)
		}
		entries += r.Stores[d].Len()
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var stats stream.IngestStats
	for i := 0; i < b.N; i++ {
		in := stream.NewIngester(stream.Config{
			BucketWidth:    logmodel.MillisPerHour,
			WindowBuckets:  24,
			Workers:        1,
			RecycleBuckets: true,
		})
		f := stream.NewFeeder(in, stream.FeederConfig{})
		if err := f.Run(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
		in.Flush()
		stats = in.Stats()
	}
	if stats.Accepted != entries {
		b.Fatalf("ingested %d entries, want %d", stats.Accepted, entries)
	}
	b.ReportMetric(float64(entries*b.N)/b.Elapsed().Seconds(), "entries/s")
}

// BenchmarkFollowDurable is the production engine with durability on: an L2
// follow run with store, resume checkpoint and drift detection over one
// simulated day at 1/10 volume, from a log file on disk to the last
// checkpoint. Per bucket it pays for the evidence arena, the segment image,
// the detector's state image and the checkpoint file, so B/op is where a
// byte paid for twice on the advance path shows up.
func BenchmarkFollowDurable(b *testing.B) {
	cfg := hospital.DefaultConfig(2005)
	cfg.Scale, cfg.Days = 0.1, 1
	day, _ := hospital.NewSimulator(cfg, hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 2005)).GenerateDay(0)
	var buf bytes.Buffer
	if err := logmodel.WriteAll(&buf, day); err != nil {
		b.Fatal(err)
	}
	src := filepath.Join(b.TempDir(), "day.log")
	if err := os.WriteFile(src, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := b.TempDir()
		cfg := follow.Config{
			Spec:       follow.Spec{Method: "l2", Source: src, TimeoutSec: 1, Workers: 1, BucketSec: 3600, WindowBuckets: 24, Drift: true},
			ResumePath: filepath.Join(state, "follow.ckpt"),
		}
		var err error
		if cfg.Store, err = cfg.OpenStore(filepath.Join(state, "store"), nil); err != nil {
			b.Fatal(err)
		}
		res, err := follow.Run(cfg, io.Discard, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if res.Entries != day.Len() {
			b.Fatalf("followed %d entries, want %d", res.Entries, day.Len())
		}
	}
	b.ReportMetric(float64(day.Len()*b.N)/b.Elapsed().Seconds(), "entries/s")
}
