package follow

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/drift"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

// Config parameterizes one follow engine run. The zero value is not
// runnable: Method, Source, BucketSec and WindowBuckets are required.
type Config struct {
	// Method selects the streaming miner: "l1", "l2" or "l3".
	Method string
	// Source names the log stream: a file path, "-" for stdin, or a .gz
	// file (decompressed transparently, torn tails tolerated).
	Source string
	// DirPath is the service-directory XML, required for l3.
	DirPath string
	// MinLogs is the L1 per-slot minimum log count.
	MinLogs int
	// TimeoutSec is the L2 bigram timeout in seconds (0 = infinity).
	TimeoutSec float64
	// NoStops disables the canonical L3 stop patterns.
	NoStops bool
	// Workers bounds per-bucket mining parallelism; output is identical
	// for any value (0 = all cores via the shared pool, 1 = sequential).
	Workers int
	// BucketSec is the bucket width in seconds; WindowBuckets the window
	// size in buckets.
	BucketSec     float64
	WindowBuckets int
	// ResumePath, when set, checkpoints the window per closed bucket and
	// resumes from an existing checkpoint on start.
	ResumePath string
	// QuarantinePath, when set, appends every rejected line prefixed with
	// its fault class.
	QuarantinePath string
	// StorePath, when set, persists per-bucket models and evidence to a
	// segment-store directory and switches checkpoints to the light
	// (window-in-store) form.
	StorePath string
	// Drift runs the drift detector over delivered buckets and prints one
	// DRIFT line per confirmed change point to stderr.
	Drift bool
	// Metrics, when non-nil, collects the run's counters, gauges and
	// traces. Collection never perturbs emitted models.
	Metrics *obs.Registry
	// Wait is the tailer's quiescent-EOF hook for plain-file sources:
	// return true to keep tailing (live mode), false to end the stream.
	// nil ends at first quiescent EOF — the one-shot replay the CLI uses.
	Wait func() bool
	// Stop, when non-nil, is polled before every transport read; once it
	// returns true the engine returns without flushing the open bucket —
	// the SIGKILL-equivalent a daemon needs for exact resume (a flush
	// would emit a partial-bucket document an uninterrupted run never
	// emits). Stop does not interrupt a read blocked inside Wait; a live
	// stream's Wait hook must consult the same signal.
	Stop func() bool
	// AdvanceLock, when non-nil, is held around every bucket emission
	// (document write, store append, delta line, drift alerts, checkpoint,
	// Progress). A daemon points it at the tenant's mutex so queries never
	// observe a half-written advance.
	AdvanceLock sync.Locker
	// Progress, when non-nil, is called after every delivered bucket
	// (inside AdvanceLock) with the run's cumulative position.
	Progress func(Progress)
}

// Progress is the per-bucket position report delivered to Config.Progress.
type Progress struct {
	// Buckets is the number of closed buckets delivered so far.
	Buckets int
	// Consumed is the logical stream offset past the last processed line.
	Consumed int64
	// LastIndex is the index of the just-delivered bucket; WindowEnd the
	// end of its time range.
	LastIndex int64
	WindowEnd logmodel.Millis
}

// Result summarizes a finished engine run — the numbers the CLI's
// "follow done" line and the daemon's status document render.
type Result struct {
	// Stopped reports the run ended via Config.Stop (no flush, no final
	// partial-bucket document) rather than at end of stream.
	Stopped bool
	// Ingest and Feed are the ingester's and feeder's accounting.
	Ingest stream.IngestStats
	Feed   stream.FeedStats
	// Rotations counts transport rotations; TornGzip reports a .gz stream
	// that ended in a torn tail.
	Rotations int64
	TornGzip  bool
}

// buildMiner constructs the streaming miner for the configured method.
func buildMiner(cfg Config, wcfg stream.Config) (stream.Miner, error) {
	switch cfg.Method {
	case "l1":
		c := l1.DefaultConfig()
		c.MinLogs = cfg.MinLogs
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		return stream.NewL1(wcfg, c), nil
	case "l2":
		c := l2.DefaultConfig()
		c.Timeout = logmodel.SecondsToMillis(cfg.TimeoutSec)
		if cfg.TimeoutSec == 0 {
			c.Timeout = l2.NoTimeout
		}
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		return stream.NewL2(wcfg, sessions.Config{Metrics: cfg.Metrics}, c), nil
	case "l3":
		if cfg.DirPath == "" {
			return nil, fmt.Errorf("l3 requires a service directory")
		}
		df, err := os.Open(cfg.DirPath)
		if err != nil {
			return nil, err
		}
		dir, err := directory.Read(df)
		df.Close()
		if err != nil {
			return nil, err
		}
		c := l3.DefaultConfig()
		c.Workers = cfg.Workers
		c.Metrics = cfg.Metrics
		if !cfg.NoStops {
			c.Stops = hospital.CanonicalStopPatterns()
		}
		return stream.NewL3(wcfg, l3.NewMiner(dir, c)), nil
	default:
		return nil, fmt.Errorf("follow mode supports l1, l2 and l3, not %q", cfg.Method)
	}
}

// deltaPrinter renders the per-bucket stderr delta line: the window
// extent, the model size, and the pairs (or app→service deps) that
// appeared and disappeared since the previous window.
type deltaPrinter struct {
	w         io.Writer
	deps      bool
	prevPairs core.PairSet
	prevDeps  core.AppServiceSet
}

func (d *deltaPrinter) print(r logmodel.TimeRange, snap core.ModelDocument) {
	stamp := func(m logmodel.Millis) string {
		return m.Time().Format("2006-01-02T15:04:05")
	}
	if d.deps {
		cur := snap.DepSet()
		gone, born := core.DiffDeps(d.prevDeps, cur)
		fmt.Fprintf(d.w, "window [%s .. %s): %d deps", stamp(r.Start), stamp(r.End), len(cur))
		for _, dep := range born {
			fmt.Fprintf(d.w, " +%s->%s", dep.App, dep.Group)
		}
		for _, dep := range gone {
			fmt.Fprintf(d.w, " -%s->%s", dep.App, dep.Group)
		}
		fmt.Fprintln(d.w)
		d.prevDeps = cur
		return
	}
	cur := snap.PairSet()
	gone, born := core.DiffModels(d.prevPairs, cur)
	fmt.Fprintf(d.w, "window [%s .. %s): %d pairs", stamp(r.Start), stamp(r.End), len(cur))
	for _, p := range born {
		fmt.Fprintf(d.w, " +%s--%s", p.A, p.B)
	}
	for _, p := range gone {
		fmt.Fprintf(d.w, " -%s--%s", p.A, p.B)
	}
	fmt.Fprintln(d.w)
	d.prevPairs = cur
}

// source is the composed hardened input stack.
type source struct {
	r      io.Reader              // retry (+ gzip) composition; read this
	tailer *stream.Tailer         // non-nil for a plain file: rotation-aware
	gz     *stream.TornGzipReader // non-nil for .gz input
	close  func()
}

// rotations reports transport rotations seen so far (0 for stdin/.gz).
func (s *source) rotations() int64 {
	if s.tailer == nil {
		return 0
	}
	return s.tailer.Rotations()
}

// openSource builds the hardened read stack for the configured input:
// retries below the decompressor (gzip errors are sticky), torn-tail
// tolerance for .gz, rotation-aware tailing for plain files.
func openSource(cfg Config) (*source, error) {
	policy := stream.RetryPolicy{MaxRetries: 8}
	name := cfg.Source
	if name == "-" {
		return &source{
			r:     stream.NewRetryReader(os.Stdin, policy, cfg.Metrics),
			close: func() {},
		}, nil
	}
	if strings.HasSuffix(name, ".gz") {
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		gz := stream.NewTornGzipReader(stream.NewRetryReader(f, policy, cfg.Metrics), cfg.Metrics)
		return &source{r: gz, gz: gz, close: func() { f.Close() }}, nil
	}
	tl, err := stream.NewTailer(name, stream.TailerConfig{Wait: cfg.Wait, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	return &source{
		r:      stream.NewRetryReader(tl, policy, cfg.Metrics),
		tailer: tl,
		close:  func() { tl.Close() },
	}, nil
}

// stopReader polls stop before every read, turning a raised stop signal
// into a clean end of stream at the next read boundary. The engine then
// distinguishes a stop-EOF from a real one via the same signal and skips
// the end-of-stream flush.
type stopReader struct {
	r    io.Reader
	stop func() bool
}

func (s *stopReader) Read(p []byte) (int, error) {
	if s.stop() {
		return 0, io.EOF
	}
	return s.r.Read(p)
}

// lockAdvance acquires the advance lock, if one is configured.
func lockAdvance(cfg Config) func() {
	if cfg.AdvanceLock == nil {
		return func() {}
	}
	cfg.AdvanceLock.Lock()
	return cfg.AdvanceLock.Unlock
}

// Run executes one follow engine to completion: model documents go to
// stdout, delta lines and DRIFT alerts to stderr. It returns when the
// stream ends (one-shot EOF, or a live stream's Wait hook returning
// false), when Config.Stop is raised, or on the first error.
func Run(cfg Config, stdout, stderr io.Writer) (Result, error) {
	var res Result
	if cfg.Source == "" {
		return res, fmt.Errorf("follow mode tails exactly one log stream (a file or - for stdin)")
	}
	if cfg.BucketSec <= 0 || cfg.WindowBuckets <= 0 {
		return res, fmt.Errorf("follow mode requires -bucket > 0 and -window > 0")
	}
	wcfg := stream.Config{
		BucketWidth:   logmodel.SecondsToMillis(cfg.BucketSec),
		WindowBuckets: cfg.WindowBuckets,
		Workers:       cfg.Workers,
		Metrics:       cfg.Metrics,
		// The built-in follow miners copy what they retain and the
		// checkpoint serializes window buckets before they retire, so the
		// ingester may reuse retired bucket slices.
		RecycleBuckets: true,
	}
	miner, err := buildMiner(cfg, wcfg)
	if err != nil {
		return res, err
	}
	// Feature tracking feeds two consumers: the drift detector (Drift) and
	// the store's per-key score column (StorePath). Either one turns it on.
	var fsrc stream.FeatureSource
	if fs, ok := miner.(stream.FeatureSource); ok && (cfg.Drift || cfg.StorePath != "") {
		fs.TrackDrift(true)
		fsrc = fs
	}
	if cfg.Drift && fsrc == nil {
		return res, fmt.Errorf("drift detection is not supported for method %q", cfg.Method)
	}

	// Open the model store before the checkpoint is restored: a light
	// (window-in-store) checkpoint needs the store to hydrate its window.
	var store *modelstore.Store
	if cfg.StorePath != "" {
		store, err = modelstore.Open(cfg.StorePath, modelstore.Config{
			BucketWidth:   wcfg.BucketWidth,
			WindowBuckets: wcfg.WindowBuckets,
			Metrics:       cfg.Metrics,
		})
		if err != nil {
			return res, err
		}
	}

	// Load the resume checkpoint, if any. A missing file is a fresh start.
	var cp *stream.Checkpoint
	if cfg.ResumePath != "" {
		if cfg.Source == "-" {
			return res, fmt.Errorf("resume requires a file input: stdin cannot be repositioned across restarts")
		}
		cp, err = stream.ReadCheckpointFile(cfg.ResumePath)
		if err != nil {
			return res, err
		}
		if cp != nil && cp.Rotations > 0 {
			return res, fmt.Errorf("checkpoint %s predates %d rotation(s); its offset no longer maps to one file — remove it to start fresh",
				cfg.ResumePath, cp.Rotations)
		}
	}
	if cp != nil && cp.WindowInStore {
		// The window's entries live in the store's raw segments: read them
		// back locally instead of re-tailing the source stream.
		if store == nil {
			return res, fmt.Errorf("checkpoint %s stores its window in a model store; rerun with the original -store DIR", cfg.ResumePath)
		}
		if err := store.Hydrate(cp); err != nil {
			return res, fmt.Errorf("resume: %w", err)
		}
	}
	if cp == nil && store != nil && !store.Empty() {
		// Bucket indexes in the store are anchored to the original run's
		// origin; appending from a fresh origin would corrupt the history.
		return res, fmt.Errorf("store %s already holds segments but no checkpoint was found; resume with a checkpoint, or point the store at a fresh directory", cfg.StorePath)
	}

	var in *stream.Ingester
	if cp != nil {
		in, err = cp.Restore(wcfg, miner)
		if err != nil {
			return res, fmt.Errorf("resume: %w", err)
		}
	} else {
		in = stream.NewIngester(wcfg, miner)
	}

	// The drift detector resumes from the checkpoint's state blob: the
	// restored window buckets are replayed into the miner only, never
	// re-observed, so a kill+resume neither repeats nor drops an alert.
	var det *drift.Detector
	if cfg.Drift {
		dcfg := drift.Config{Metrics: cfg.Metrics}
		if cp != nil && len(cp.Drift) > 0 {
			det, err = drift.Restore(dcfg, cp.Drift)
			if err != nil {
				return res, fmt.Errorf("resume: %w", err)
			}
		} else {
			det = drift.NewDetector(dcfg)
		}
	}

	var quarantine io.Writer
	if cfg.QuarantinePath != "" {
		qf, err := os.OpenFile(cfg.QuarantinePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return res, err
		}
		defer qf.Close()
		quarantine = qf
	}
	feeder := stream.NewFeeder(in, stream.FeederConfig{Quarantine: quarantine, Metrics: cfg.Metrics})

	src, err := openSource(cfg)
	if err != nil {
		return res, err
	}
	defer src.close()

	// Reposition the transport at the checkpoint offset: a seek for a plain
	// file, a decompressed-byte skip for .gz (the stream is re-read from the
	// start, but nothing is re-ingested).
	var base int64
	if cp != nil {
		base = cp.Offset
		if src.tailer != nil {
			if err := src.tailer.SeekTo(cp.Offset); err != nil {
				return res, fmt.Errorf("resume: %w", err)
			}
		} else if _, err := io.CopyN(io.Discard, src.r, cp.Offset); err != nil {
			return res, fmt.Errorf("resume: skipping %d bytes: %w", cp.Offset, err)
		}
	}

	delta := &deltaPrinter{w: stderr, deps: cfg.Method == "l3"}
	if cp != nil {
		// Seed the delta baseline from the restored window: the previous
		// run's last delta was printed against exactly this model, so the
		// resumed run's first delta line shows only what actually changed —
		// the concatenated delta stream is byte-identical to an
		// uninterrupted run's.
		snap := miner.Snapshot()
		if delta.deps {
			delta.prevDeps = snap.DepSet()
		} else {
			delta.prevPairs = snap.PairSet()
		}
	}
	var emitErr error
	in.OnAdvance = func(b stream.Bucket) {
		if emitErr != nil {
			return
		}
		defer lockAdvance(cfg)()
		// One trace tree per delivered bucket; the latest completed one is
		// what /trace serves.
		trace := cfg.Metrics.StartTrace(fmt.Sprintf("bucket %d", b.Index))
		span := trace.Child("snapshot")
		snap := miner.Snapshot()
		span.End()
		// The document is rendered once: the same bytes go to stdout and —
		// verbatim — into the store, which is what makes the store's
		// round-trip byte-identical to the live stream by construction.
		span = trace.Child("emit")
		var doc bytes.Buffer
		err := core.WriteModel(&doc, snap)
		if err == nil {
			_, err = stdout.Write(doc.Bytes())
		}
		span.End()
		trace.End()
		if err != nil {
			emitErr = err
			return
		}
		var feats stream.DriftFeatures
		if fsrc != nil {
			feats = fsrc.DriftFeatures()
		}
		if store != nil {
			// Evidence is serialized here, while the bucket's entries are
			// still live: with RecycleBuckets the slices may be reused once
			// OnAdvance returns, and AppendEntry copies every byte out.
			rec := modelstore.Record{Bucket: b.Index, Range: b.Range, Model: doc.Bytes()}
			for _, e := range b.Entries {
				rec.Evidence = append(rec.Evidence, logmodel.AppendEntry(nil, e))
			}
			if len(feats.Scores) > 0 {
				keys := make([]string, 0, len(feats.Scores))
				for k := range feats.Scores {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					rec.Scores = append(rec.Scores, modelstore.Score{Key: k, Value: feats.Scores[k]})
				}
			}
			if err := store.Append(rec); err != nil {
				emitErr = err
				return
			}
		}
		delta.print(in.WindowRange(), snap)
		if det != nil {
			for _, c := range det.Observe(drift.Observation{
				Bucket: b.Index, At: b.Range.Start,
				Active: feats.Active, Scores: feats.Scores, Delays: feats.Delays,
			}) {
				if store != nil {
					// The confirming bucket's record was just appended, so the
					// locator names the store's live raw segment.
					ref, ok, err := store.Locate(c.At)
					if err != nil {
						emitErr = err
						return
					}
					if ok {
						c.Segment = ref.String()
					}
				}
				fmt.Fprintln(stderr, c)
			}
		}
		if cfg.ResumePath != "" {
			// Consumed() already covers the line that closed this bucket (it
			// sits in the checkpoint's pending set), so base+Consumed is an
			// exact resume point: no replay, no gap. With a store, the window
			// is not serialized into the checkpoint — the store's raw
			// segments already hold it (CheckpointLight).
			var next *stream.Checkpoint
			if store != nil {
				next = in.CheckpointLight(base+feeder.Consumed(), src.rotations())
			} else {
				next = in.Checkpoint(base+feeder.Consumed(), src.rotations())
			}
			if det != nil {
				blob, err := det.State()
				if err != nil {
					emitErr = fmt.Errorf("serializing drift state: %w", err)
					return
				}
				next.Drift = blob
			}
			if err := stream.WriteCheckpointFile(cfg.ResumePath, next); err != nil {
				emitErr = fmt.Errorf("writing checkpoint: %w", err)
			}
		}
		if cfg.Progress != nil {
			s := in.Stats()
			cfg.Progress(Progress{
				Buckets:   s.Buckets,
				Consumed:  base + feeder.Consumed(),
				LastIndex: b.Index,
				WindowEnd: b.Range.End,
			})
		}
	}

	r := src.r
	if cfg.Stop != nil {
		r = &stopReader{r: src.r, stop: cfg.Stop}
	}
	if err := feeder.Run(r); err != nil {
		return res, err
	}
	fill := func() {
		res.Ingest = in.Stats()
		res.Feed = feeder.Stats()
		res.Rotations = src.rotations()
		res.TornGzip = src.gz != nil && src.gz.Torn()
	}
	if cfg.Stop != nil && cfg.Stop() {
		// A raised stop is the SIGKILL-equivalent: no flush, so no
		// partial-bucket document an uninterrupted run would not emit —
		// the next run resumes from the last checkpoint and re-reads the
		// open bucket's lines instead.
		res.Stopped = true
		fill()
		return res, emitErr
	}
	in.Flush()
	fill()
	return res, emitErr
}
