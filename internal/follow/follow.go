package follow

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/drift"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
	"logscape/internal/parallel"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

// Config parameterizes one follow engine run: what to mine (Spec) and what
// the host wires around it. The zero value is not runnable — the Spec must
// pass Validate.
type Config struct {
	Spec
	// ResumePath, when set, checkpoints the run per closed bucket and
	// resumes from an existing checkpoint on start. It requires Store.
	ResumePath string
	// QuarantinePath, when set, appends every rejected line prefixed with
	// its fault class.
	QuarantinePath string
	// Store, when non-nil, receives every closed bucket's model and evidence,
	// from which a resumed run reads back its window and delta baseline. The
	// host opens it (Spec.OpenStore) and keeps the handle: a daemon answers
	// its queries from it under AdvanceLock.
	Store *modelstore.Store
	// Metrics, when non-nil, collects the run's counters, gauges and histograms
	// (one follow.<stage>_ns per advance stage) without perturbing the models.
	Metrics *obs.Registry
	// Wait is the tailer's quiescent-EOF hook for plain-file sources:
	// return true to keep tailing (live mode), false to end the stream.
	// nil ends at first quiescent EOF — the one-shot replay the CLI uses.
	Wait func() bool
	// Stop, when non-nil, is polled before every transport read, every
	// Wait, and before each bucket's commit is handed over; once it returns
	// true the engine returns without flushing the open bucket — the
	// SIGKILL-equivalent a daemon needs for exact resume (a flush would
	// emit a partial-bucket document an uninterrupted run never emits).
	Stop func() bool
	// AdvanceLock, when non-nil, is held around every bucket's commit: the
	// document write, store append, delta line, drift alerts, checkpoint
	// and Progress. Mining and the snapshot run outside it. A daemon
	// points it at the tenant's mutex so queries never observe a
	// half-written commit.
	AdvanceLock sync.Locker
	// Progress, when non-nil, is called after every delivered bucket
	// (inside AdvanceLock, on the commit goroutine, so not on the
	// goroutine that polls Stop) with the run's cumulative position.
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

// Result is a finished run's accounting: the numbers depmine's "follow done"
// line prints and, by these tags, the "totals" of a daemon status document.
type Result struct {
	// Stopped reports the run ended via Config.Stop (no flush, no final
	// partial-bucket document) rather than at end of stream.
	Stopped bool `json:"-"`
	// Entries were accepted into Buckets closed buckets; the rest are the
	// ingester's and the feeder's rejections by fault class.
	Entries     int `json:"entries"`
	Buckets     int `json:"buckets"`
	Late        int `json:"late"`
	Corrupt     int `json:"corrupt"`
	Malformed   int `json:"malformed"`
	Oversized   int `json:"oversized"`
	Quarantined int `json:"quarantined"`
	// Rotations counts transport rotations; TornGzip reports a .gz stream
	// that ended in a torn tail.
	Rotations int64 `json:"rotations"`
	TornGzip  bool  `json:"torn_gzip,omitempty"`
}

// buildMiner constructs the streaming miner for the validated method.
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
	}
	dir, err := directory.ReadFile(cfg.Directory) // l3: Validate admits nothing else
	if err != nil {
		return nil, err
	}
	c := l3.DefaultConfig()
	c.Workers = cfg.Workers
	c.Metrics = cfg.Metrics
	if !cfg.NoStops {
		c.Stops = directory.CanonicalStopPatterns()
	}
	return stream.NewL3(wcfg, l3.NewMiner(dir, c)), nil
}

// engine is one opened run: what Config names, built and restored, and the
// two sides every closed bucket passes through. The front — the goroutine
// that reads the source — mines the bucket, snapshots the model and
// captures what the commit needs, hands the commit to a lane and reads on;
// it joins that commit before it hands over the next one, so commits run
// one at a time and in bucket order.
type engine struct {
	cfg            Config
	stdout, stderr io.Writer

	miner  stream.Miner
	fsrc   stream.FeatureSource // non-nil when the store or the detector reads features
	det    *drift.Detector      // nil without Drift; the commit's
	in     *stream.Ingester
	feeder *stream.Feeder

	// The composed hardened input stack.
	r       io.Reader              // the source, or its gzip reader; read this
	tailer  *stream.Tailer         // nil unless a plain file: rotation-aware
	gz      *stream.TornGzipReader // non-nil for .gz input
	closers []io.Closer            // the source and quarantine files
	base    int64                  // stream offset the transport was repositioned to

	// The front's: read and written on the reading goroutine only.
	kept   [2][]logmodel.Entry // the entry copies of the last two buckets, alternately reused
	flip   int                 // which of kept the next bucket's copy goes into
	halted bool                // latched by halt: no further bucket is delivered
	held   func()              // the commit holdCommits keeps back until the join

	// The commit's: touched by the one commit on the lane.
	lane      parallel.Lane
	wire      []byte       // store's scratch: the bucket's evidence lines, end to end
	ends      []int        // store's scratch: where each line ends in wire
	line      []byte       // delta's and drift's scratch: the stderr bytes of one write
	prevPairs core.PairSet // the model the last delta line was printed against
	prevDeps  core.AppServiceSet

	// err is the first stage error, set by the commit, and failed mirrors
	// it for halt, which reads it while a commit runs; the front reads err
	// only after joining.
	err    error
	failed atomic.Bool
}

// commit is one bucket on its way from the front to the lane: what the
// front captured while the ingester still held the bucket — it recycles the
// bucket's entry slice and moves its window, pending set and counts on
// once advance returns — and what the commit stages hand on.
type commit struct {
	bucket   stream.Bucket // with a store, its entries copied out of the ingester's slice
	snap     core.ModelDocument
	feats    stream.DriftFeatures
	window   logmodel.TimeRange
	ckpt     *stream.Checkpoint // nil without ResumePath; the checkpoint stage adds the drift state
	progress Progress
	doc      []byte // render → store
}

// openSource builds the hardened read stack for the configured input:
// torn-tail tolerance for .gz, rotation-aware tailing for plain files.
func (e *engine) openSource() (err error) {
	switch name := e.cfg.Source; {
	case name == "-":
		e.r = os.Stdin
	case strings.HasSuffix(name, ".gz"):
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		e.closers = append(e.closers, f)
		e.gz = stream.NewTornGzipReader(f, e.cfg.Metrics)
		e.r = e.gz
	default:
		e.tailer, err = stream.NewTailer(name, stream.TailerConfig{Wait: e.cfg.Wait, Metrics: e.cfg.Metrics})
		if err != nil {
			return err
		}
		e.closers = append(e.closers, e.tailer)
		e.r = e.tailer
	}
	return nil
}

// open builds the engine. The engine comes back on error too, so that Run
// closes whatever was opened on every path.
func open(cfg Config, stdout, stderr io.Writer) (e *engine, err error) {
	e = &engine{stdout: stdout, stderr: stderr}
	if err := cfg.Validate(); err != nil {
		return e, err
	}
	if cfg.ResumePath != "" && cfg.Store == nil {
		return e, fmt.Errorf("resume needs a model store: the window is read back from it on restart; rerun with -store DIR")
	}
	if wait := cfg.Wait; wait != nil {
		// An idle run has committed everything it read, and a halted one
		// must not sit in the tailer's poll loop.
		cfg.Wait = func() bool { e.join(); return !e.halt() && wait() }
	}
	e.cfg = cfg
	wcfg := stream.Config{
		BucketWidth:   logmodel.SecondsToMillis(cfg.BucketSec),
		WindowBuckets: cfg.WindowBuckets,
		Workers:       cfg.Workers,
		Metrics:       cfg.Metrics,
		// The built-in follow miners copy what they retain and the store
		// stage copies a bucket's entries out as evidence before advance
		// returns, so the ingester may reuse retired bucket slices.
		RecycleBuckets: true,
	}
	if e.miner, err = buildMiner(cfg, wcfg); err != nil {
		return e, err
	}
	// Feature tracking feeds two consumers: the drift detector (Drift) and
	// the store's per-key score column (Store). Either one turns it on.
	if cfg.Drift || cfg.Store != nil {
		e.fsrc = e.miner.(stream.FeatureSource) // every follow miner is one
		e.fsrc.TrackDrift(true)
	}
	cp, err := loadCheckpoint(cfg)
	if err != nil {
		return e, err
	}
	// The ingester carries no miner — mining is the first stage of advance —
	// so a restored window is replayed into the miner here.
	if cp != nil {
		if e.in, err = cp.Restore(wcfg); err != nil {
			return e, fmt.Errorf("resume: %w", err)
		}
		e.in.Replay(e.miner)
		if err = e.storedBaseline(cp); err != nil {
			return e, fmt.Errorf("resume: %w", err)
		}
	} else {
		e.in = stream.NewIngester(wcfg)
	}
	e.in.OnAdvance = e.advance
	// The drift detector resumes from the checkpoint's state blob: the
	// restored window buckets are replayed into the miner only, never
	// re-observed, so a kill+resume neither repeats nor drops an alert.
	if cfg.Drift {
		dcfg := drift.Config{Metrics: cfg.Metrics}
		if cp != nil && len(cp.Drift) > 0 {
			if e.det, err = drift.Restore(dcfg, cp.Drift); err != nil {
				return e, fmt.Errorf("resume: %w", err)
			}
		} else {
			e.det = drift.NewDetector(dcfg)
		}
	}
	var quarantine io.Writer
	if cfg.QuarantinePath != "" {
		qf, err := os.OpenFile(cfg.QuarantinePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return e, err
		}
		e.closers = append(e.closers, qf)
		quarantine = qf
	}
	e.feeder = stream.NewFeeder(e.in, stream.FeederConfig{Quarantine: quarantine, Metrics: cfg.Metrics})
	if err = e.openSource(); err != nil {
		return e, err
	}
	if cp == nil {
		// A fresh resumable run checkpoints its empty start before the
		// first read: a failure at bucket 1 after the store append then
		// leaves a checkpoint the restart resumes from — re-appending bucket
		// 1 — instead of a populated store no restart would accept.
		return e, e.checkpoint(&commit{ckpt: e.resumePoint()})
	}
	// Reposition the transport at the checkpoint offset: a seek for a plain
	// file, a decompressed-byte skip for .gz (the stream is re-read from the
	// start, but nothing is re-ingested).
	e.base = cp.Offset
	if e.tailer != nil {
		if err := e.tailer.SeekTo(cp.Offset); err != nil {
			return e, fmt.Errorf("resume: %w", err)
		}
	} else if _, err := io.CopyN(io.Discard, e.r, cp.Offset); err != nil {
		return e, fmt.Errorf("resume: skipping %d bytes: %w", cp.Offset, err)
	}
	return e, nil
}

// loadCheckpoint reads the resume checkpoint, if any — a missing file is a
// fresh start — and hydrates its window from the store.
func loadCheckpoint(cfg Config) (cp *stream.Checkpoint, err error) {
	if cfg.ResumePath != "" {
		if cfg.Source == "-" {
			return nil, fmt.Errorf("resume requires a file input: stdin cannot be repositioned across restarts")
		}
		if cp, err = stream.ReadCheckpointFile(cfg.ResumePath); err != nil {
			return nil, err
		}
	}
	switch {
	case cp == nil:
		if cfg.Store != nil && !cfg.Store.Empty() {
			// Bucket indexes in the store are anchored to the original run's
			// origin; appending from a fresh origin would corrupt the history.
			return nil, fmt.Errorf("store %s already holds segments but no checkpoint was found; resume with a checkpoint, or point the store at a fresh directory", cfg.Store.Dir())
		}
		return nil, nil
	case cp.Rotations > 0:
		return nil, fmt.Errorf("checkpoint %s predates %d rotation(s); its offset no longer maps to one file — remove it and point -store at a fresh directory to start fresh",
			cfg.ResumePath, cp.Rotations)
	case !cp.WindowInStore: // restored against a fresh store, the window would come up short after the next kill
		return nil, fmt.Errorf("checkpoint %s keeps its window inline, as runs without -store wrote it; remove it and point -store at a fresh directory to start fresh", cfg.ResumePath)
	}
	// The window's entries live in the store's raw segments: read them back
	// locally instead of re-tailing the source stream.
	if err := cfg.Store.Hydrate(cp); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	return cp, nil
}

// storedBaseline seeds the delta baseline with the document the previous
// run printed its last delta line against: the store's record of the last
// bucket delivered before the checkpoint. A snapshot of the replayed window
// is not always that document — the window Hydrate returns lacks whatever
// the append of a rolled-back bucket compacted away — and only the stored
// one keeps the concatenated delta stream an uninterrupted run's.
func (e *engine) storedBaseline(cp *stream.Checkpoint) error {
	hi := cp.Cur // the last index that can have been delivered, as in Hydrate
	if cp.Open {
		hi--
	}
	rec, ok, err := e.cfg.Store.ModelAt(cp.Origin + logmodel.Millis(hi+1)*cp.BucketWidth)
	if n := len(cp.Buckets); err == nil && n > 0 && (!ok || rec.Bucket != cp.Buckets[n-1].Index) {
		err = fmt.Errorf("store %s holds no model for bucket %d, the restored window's last; point -store at the directory the checkpoint was written with",
			e.cfg.Store.Dir(), cp.Buckets[n-1].Index)
	}
	if err != nil || !ok {
		return err // !ok: nothing was delivered, so no delta line was printed
	}
	doc, err := core.ReadModel(bytes.NewReader(rec.Model))
	e.prevPairs, e.prevDeps = doc.PairSet(), doc.DepSet()
	return err
}

// close releases the run's files. A commit never outlives the run: Run
// joins the last one on every return, and this join covers a panic that
// unwound the reader while a commit ran.
func (e *engine) close() {
	e.lane.Wait()
	for _, c := range e.closers {
		c.Close()
	}
}

// halt reports whether the run is over: a stage failed, or Stop was raised.
// Once it has said so it keeps saying so. The front alone calls it.
func (e *engine) halt() bool {
	if !e.halted {
		e.halted = e.failed.Load() || (e.cfg.Stop != nil && e.cfg.Stop())
	}
	return e.halted
}

// Read is the transport read the feeder sees: a halted engine reports end
// of stream at the next read boundary, and Run — asking halt again — skips
// the end-of-stream flush.
func (e *engine) Read(p []byte) (int, error) {
	if e.halt() {
		return 0, io.EOF
	}
	return e.r.Read(p)
}

// front is what a closed bucket goes through on the reading goroutine,
// while the ingester holds it: the histogram a stage's time goes to and the
// method that does its work. Neither stage can fail.
var front = [...]struct {
	timer string
	run   func(*engine, stream.Bucket, *commit)
}{
	{"follow.mine_ns", (*engine).mine},
	{"follow.snapshot_ns", (*engine).snapshot},
}

// commitStages write the bucket out, in order, on the lane. A stage whose
// feature is not configured returns nil at once.
var commitStages = [...]struct {
	timer string
	run   func(*engine, *commit) error
}{
	{"follow.render_ns", (*engine).render},
	{"follow.store_ns", (*engine).appendStore},
	{"follow.delta_ns", (*engine).printDelta},
	{"follow.drift_ns", (*engine).observeDrift},
	{"follow.checkpoint_ns", (*engine).checkpoint},
	{"follow.progress_ns", (*engine).progress},
}

// advance runs one closed bucket through the front, joins the previous
// bucket's commit and, unless that ended the run, hands this bucket's
// commit over. Every side effect therefore happens in the order a serial
// loop gives it, and a failure or a Stop raised by commit k leaves bucket
// k+1 without a document. The loop, not the stages, times a stage and
// latches a commit stage's error; from then on advance does nothing and
// halt ends the run — what a kill at that stage leaves.
func (e *engine) advance(b stream.Bucket) {
	if e.halted {
		return
	}
	c := &commit{bucket: stream.Bucket{Index: b.Index, Range: b.Range}}
	for _, st := range front {
		stop := e.cfg.Metrics.Timer(st.timer)
		st.run(e, b, c)
		stop()
	}
	e.join()
	if e.halt() {
		return
	}
	run := func() { e.commit(c) }
	if holdCommits {
		e.held = run
		return
	}
	e.lane.Go(run)
}

// holdCommits, set by tests only, keeps each commit back until the front
// joins it: the next bucket's front, or the end of the stream, always comes
// first — the furthest ahead the pipeline can run.
var holdCommits bool

// join waits for the commit in flight, timing the wait into
// follow.commit_wait_ns (one observation per commit).
func (e *engine) join() {
	if e.held != nil {
		e.lane.Go(e.held)
		e.held = nil
	}
	if !e.lane.Busy() {
		return
	}
	defer e.cfg.Metrics.Timer("follow.commit_wait_ns")()
	e.lane.Wait()
}

// commit runs one bucket through the commit stages under the advance lock.
func (e *engine) commit(c *commit) {
	if l := e.cfg.AdvanceLock; l != nil {
		l.Lock()
		defer l.Unlock()
	}
	for _, st := range commitStages {
		stop := e.cfg.Metrics.Timer(st.timer)
		err := st.run(e, c)
		stop()
		if err != nil {
			e.err = err
			e.failed.Store(true)
			return
		}
	}
}

func (e *engine) mine(b stream.Bucket, _ *commit) {
	e.miner.Advance(b)
}

// snapshot takes the window's model and the bucket's drift features from
// the miner, and from the ingester what the commit needs of it as of this
// bucket: the entries (which the store stage serializes), the window, the
// resume point and the position.
func (e *engine) snapshot(b stream.Bucket, c *commit) {
	c.snap = e.miner.Snapshot()
	if e.fsrc != nil {
		c.feats = e.fsrc.DriftFeatures()
	}
	if e.cfg.Store != nil {
		c.bucket.Entries = e.keep(b.Entries)
	}
	c.window = e.in.WindowRange()
	c.ckpt = e.resumePoint()
	c.progress = Progress{
		Buckets:   e.in.Stats().Buckets,
		Consumed:  e.base + e.feeder.Consumed(),
		LastIndex: b.Index,
		WindowEnd: b.Range.End,
	}
}

// keep copies a bucket's entries out of the ingester's slice, which it
// recycles once they leave the window. The copy goes into one of two
// buffers in turn: the commit that read the other one was joined before
// this bucket's front began, so copying costs no allocation once the
// buffers have grown.
func (e *engine) keep(entries []logmodel.Entry) []logmodel.Entry {
	e.flip ^= 1
	e.kept[e.flip] = append(e.kept[e.flip][:0], entries...)
	return e.kept[e.flip]
}

// resumePoint captures the checkpoint but the drift state, which the
// checkpoint stage adds; nil without ResumePath. Consumed() already covers
// the line that closed the bucket (it sits in the checkpoint's pending
// set), so base+Consumed is exact: no replay.
func (e *engine) resumePoint() *stream.Checkpoint {
	if e.cfg.ResumePath == "" {
		return nil
	}
	return e.in.CheckpointLight(e.base+e.feeder.Consumed(), e.tailer.Rotations())
}

// render writes the document. It is rendered once: the same bytes go to
// stdout and — verbatim — into the store, which is what makes the store's
// round-trip byte-identical to the live stream by construction.
func (e *engine) render(c *commit) error {
	var doc bytes.Buffer
	if err := core.WriteModel(&doc, c.snap); err != nil {
		return err
	}
	c.doc = doc.Bytes()
	_, err := e.stdout.Write(c.doc)
	return err
}

// appendStore appends the bucket's record: its document, evidence and
// drift scores.
func (e *engine) appendStore(c *commit) error {
	if e.cfg.Store == nil {
		return nil
	}
	rec := modelstore.Record{Bucket: c.bucket.Index, Range: c.bucket.Range, Model: c.doc, Evidence: e.evidence(c.bucket.Entries)}
	keys := make([]string, 0, len(c.feats.Scores))
	for k := range c.feats.Scores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec.Scores = append(rec.Scores, modelstore.Score{Key: k, Value: c.feats.Scores[k]})
	}
	return e.cfg.Store.Append(rec)
}

// evidence serializes a bucket's entries into its evidence lines. They are
// rendered into the engine's scratch and copied, at their final size, into
// one arena the lines are cut from: two allocations per bucket however many
// entries it holds. The arena is fresh every time because the store keeps
// the active granule's records.
func (e *engine) evidence(entries []logmodel.Entry) [][]byte {
	e.wire, e.ends = e.wire[:0], e.ends[:0]
	for _, en := range entries {
		e.wire = logmodel.AppendEntry(e.wire, en)
		e.ends = append(e.ends, len(e.wire))
	}
	arena := append([]byte(nil), e.wire...)
	lines := make([][]byte, len(e.ends))
	start := 0
	for i, end := range e.ends {
		lines[i] = arena[start:end:end]
		start = end
	}
	return lines
}

// printDelta writes the stderr delta line: the window extent, the model
// size, and the pairs (or app→service deps — a document holds one kind, the
// other set is empty) that appeared and disappeared since the last window.
// The line is built whole and written once: a failed write is the stage's
// error, so the checkpoint never moves past a line that was not written.
func (e *engine) printDelta(c *commit) error {
	r, unit := c.window, "pairs"
	if e.cfg.Method == "l3" {
		unit = "deps"
	}
	pairs, deps := c.snap.PairSet(), c.snap.DepSet()
	gonePairs, bornPairs := core.DiffModels(e.prevPairs, pairs)
	goneDeps, bornDeps := core.DiffDeps(e.prevDeps, deps)
	e.line = fmt.Appendf(e.line[:0], "window [%s .. %s): %d %s",
		modelstore.Stamp(r.Start), modelstore.Stamp(r.End), len(pairs)+len(deps), unit)
	list := func(sign string, pairs []core.Pair, deps []core.AppServicePair) {
		for _, p := range pairs {
			e.line = fmt.Appendf(e.line, " %s%s--%s", sign, p.A, p.B)
		}
		for _, d := range deps {
			e.line = fmt.Appendf(e.line, " %s%s->%s", sign, d.App, d.Group)
		}
	}
	list("+", bornPairs, bornDeps)
	list("-", gonePairs, goneDeps)
	e.prevPairs, e.prevDeps = pairs, deps
	_, err := e.stderr.Write(append(e.line, '\n'))
	return err
}

// observeDrift prints a DRIFT line per change point the bucket confirms, all
// of them in one write whose error is the stage's (see printDelta). The
// bucket's record was just appended, so the locator names the live raw
// segment — one lookup per bucket: every change point of one Observe is At
// the bucket's start.
func (e *engine) observeDrift(c *commit) error {
	if e.det == nil {
		return nil
	}
	b := c.bucket
	cps := e.det.Observe(drift.Observation{
		Bucket: b.Index, At: b.Range.Start,
		Active: c.feats.Active, Scores: c.feats.Scores, Delays: c.feats.Delays,
	})
	if len(cps) == 0 {
		return nil
	}
	segment := ""
	if e.cfg.Store != nil {
		ref, ok, err := e.cfg.Store.Locate(b.Range.Start)
		if err != nil {
			return err
		}
		if ok {
			segment = ref.String()
		}
	}
	e.line = e.line[:0]
	for _, c := range cps {
		c.Segment = segment
		e.line = fmt.Appendln(e.line, c)
	}
	_, err := e.stderr.Write(e.line)
	return err
}

// checkpoint persists the resume point render captured, with the drift
// state as of this bucket; the window is the store's.
func (e *engine) checkpoint(c *commit) error {
	next := c.ckpt
	if next == nil {
		return nil
	}
	if e.det != nil {
		blob, err := e.det.State()
		if err != nil {
			return fmt.Errorf("serializing drift state: %w", err)
		}
		next.Drift = blob
	}
	if err := stream.WriteCheckpointFile(e.cfg.ResumePath, next); err != nil {
		return fmt.Errorf("writing checkpoint: %w", err)
	}
	return nil
}

func (e *engine) progress(c *commit) error {
	if e.cfg.Progress != nil {
		e.cfg.Progress(c.progress)
	}
	return nil
}

// Run executes one follow engine to completion: model documents go to
// stdout, delta lines and DRIFT alerts to stderr. It returns when the
// stream ends (one-shot EOF, or a live stream's Wait hook returning
// false), when Config.Stop is raised, or on the first error. A failed
// stage ends the run as a kill at that point would: nothing further is
// emitted and the last good checkpoint stands. Once the engine is open
// the Result is filled on every path.
func Run(cfg Config, stdout, stderr io.Writer) (Result, error) {
	defer cfg.Metrics.Timer("follow.run_ns")()
	e, err := open(cfg, stdout, stderr)
	defer e.close()
	if err != nil {
		return Result{}, err
	}
	err = e.feeder.Run(e)
	// The commit in flight may still fail or raise Stop: whether the run
	// halted is known once it is in. A halt is the SIGKILL-equivalent: no
	// flush, so no partial-bucket document an uninterrupted run would not
	// emit — the next run resumes from the last checkpoint and re-reads the
	// open bucket's lines instead.
	e.join()
	halted := err != nil || e.halt()
	if !halted {
		e.in.Flush()
		e.join()
	}
	if err == nil {
		err = e.err
	}
	in, fed := e.in.Stats(), e.feeder.Stats()
	return Result{
		Stopped: halted && err == nil,
		Entries: in.Accepted, Buckets: in.Buckets, Late: in.Late, Corrupt: in.Corrupt,
		Malformed: fed.Malformed, Oversized: fed.Oversized, Quarantined: fed.Quarantined,
		Rotations: e.tailer.Rotations(),
		TornGzip:  e.gz != nil && e.gz.Torn(),
	}, err
}
