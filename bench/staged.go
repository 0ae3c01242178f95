package main

// The traced pass: depmine's follow loop (internal/follow.Run) re-composed
// from the layers' public functions, with a span around every call into a
// layer. It runs in the harness process, after the timed passes, and must
// produce the same documents and the same store directory as the child —
// that equality is what licenses reading its spans as the child's budget.
// Every internal symbol used here is listed in README.md as the
// benchmark's pinned surface.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"

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

// readBatch is the number of entries one ReadBatch → AddBatch step moves.
const readBatch = 4096

// tracedMiner records a span around every Advance of the miner it wraps.
type tracedMiner struct {
	stream.Miner
	rec  *recorder
	name string
}

func (m *tracedMiner) Advance(b stream.Bucket) {
	id := m.rec.begin(m.name, b.Index)
	m.Miner.Advance(b)
	m.rec.end(id)
}

// streamConfig is the window geometry follow.Run derives from the CLI knobs.
func streamConfig() stream.Config {
	return stream.Config{
		BucketWidth:    logmodel.SecondsToMillis(replayBucketSec),
		WindowBuckets:  replayWindow,
		Workers:        1,
		RecycleBuckets: true,
	}
}

// buildMiner constructs the spec's streaming miner exactly as
// follow.buildMiner does for the child's flags.
func buildMiner(s replaySpec, c *corpus, wcfg stream.Config) (stream.Miner, error) {
	switch s.method {
	case "l1":
		cfg := l1.DefaultConfig()
		cfg.MinLogs = replayMinLogs
		cfg.Workers = 1
		return stream.NewL1(wcfg, cfg), nil
	case "l2":
		cfg := l2.DefaultConfig()
		cfg.Timeout = logmodel.SecondsToMillis(replayTimeout)
		cfg.Workers = 1
		return stream.NewL2(wcfg, sessions.Config{}, cfg), nil
	case "l3":
		f, err := os.Open(c.directory)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		dir, err := directory.Read(f)
		if err != nil {
			return nil, err
		}
		cfg := l3.DefaultConfig()
		cfg.Workers = 1
		cfg.Stops = hospital.CanonicalStopPatterns()
		return stream.NewL3(wcfg, l3.NewMiner(dir, cfg)), nil
	}
	return nil, fmt.Errorf("no streaming miner for method %q", s.method)
}

// staged is what one traced follow loop produced and cost.
type staged struct {
	wallNs      int64
	entries     int
	buckets     int
	docSHA      string
	renderBytes []float64 // per bucket
	ckptBytes   int64     // the last checkpoint file
	store       map[string]int64
	allocBytes  uint64
	allocs      uint64
	gcShare     float64
	lastKey     string // a dependency key of the final document, for Trajectory
}

// stagedFollow runs the traced follow loop over the corpus, keeping durable
// state under stateDir when the spec is durable.
func stagedFollow(rec *recorder, s replaySpec, c *corpus, stateDir string) (*staged, error) {
	if err := freshDir(stateDir); err != nil {
		return nil, err
	}
	out := &staged{}
	var ms0, ms1 runtime.MemStats
	gc0 := gcCPU()
	runtime.ReadMemStats(&ms0)
	startWall := rec.clock()

	// Construction, in follow.Run's order: miner, feature tracking, store,
	// ingester, detector, source.
	setup := rec.begin("follow.setup", -1)
	wcfg := streamConfig()
	inner, err := buildMiner(s, c, wcfg)
	if err != nil {
		return nil, err
	}
	var fsrc stream.FeatureSource
	if s.durable {
		fsrc = inner.(stream.FeatureSource)
		fsrc.TrackDrift(true)
	}
	reg := obs.NewWithClock(obs.SystemClock) // store.* counters only; the miners stay unmetered like the child's
	var store *modelstore.Store
	storeDir := filepath.Join(stateDir, storeDirName)
	ckptPath := filepath.Join(stateDir, ckptFileName)
	if s.durable {
		store, err = modelstore.Open(storeDir, modelstore.Config{
			BucketWidth:   wcfg.BucketWidth,
			WindowBuckets: wcfg.WindowBuckets,
			Metrics:       reg,
		})
		if err != nil {
			return nil, err
		}
	}
	in := stream.NewIngester(wcfg, &tracedMiner{Miner: inner, rec: rec, name: "core." + s.method + ".advance"})
	var det *drift.Detector
	if s.durable {
		det = drift.NewDetector(drift.Config{})
	}
	f, err := os.Open(c.log)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reader := logmodel.NewReader(f)
	rec.end(setup)

	docs := sha256.New()
	var emitErr error
	trace := int64(0) // the open bucket's index: the id batch-level spans carry
	in.OnAdvance = func(b stream.Bucket) {
		if emitErr != nil {
			return
		}
		emit := rec.begin("follow.emit", b.Index)
		defer rec.end(emit)
		trace = b.Index + 1
		out.buckets++

		id := rec.begin("core.snapshot", b.Index)
		snap := inner.Snapshot()
		rec.end(id)

		id = rec.begin("core.render", b.Index)
		var doc bytes.Buffer
		err := core.WriteModel(&doc, snap)
		rec.end(id)
		if err != nil {
			emitErr = err
			return
		}
		out.renderBytes = append(out.renderBytes, float64(doc.Len()))
		docs.Write(doc.Bytes())

		if !s.durable {
			return
		}

		id = rec.begin("stream.features", b.Index)
		feats := fsrc.DriftFeatures()
		rec.end(id)

		id = rec.begin("follow.evidence", b.Index)
		r := modelstore.Record{Bucket: b.Index, Range: b.Range, Model: doc.Bytes()}
		for _, e := range b.Entries {
			r.Evidence = append(r.Evidence, logmodel.AppendEntry(nil, e))
		}
		keys := make([]string, 0, len(feats.Scores))
		for k := range feats.Scores {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r.Scores = append(r.Scores, modelstore.Score{Key: k, Value: feats.Scores[k]})
		}
		rec.end(id)

		id = rec.begin("modelstore.append", b.Index)
		err = store.Append(r)
		rec.end(id)
		if err != nil {
			emitErr = err
			return
		}

		id = rec.begin("drift.observe", b.Index)
		for _, cp := range det.Observe(drift.Observation{
			Bucket: b.Index, At: b.Range.Start,
			Active: feats.Active, Scores: feats.Scores, Delays: feats.Delays,
		}) {
			ref, ok, err := store.Locate(cp.At)
			if err != nil {
				emitErr = err
				break
			}
			if ok {
				cp.Segment = ref.String()
			}
			fmt.Fprintln(io.Discard, cp)
		}
		rec.end(id)
		if emitErr != nil {
			return
		}

		// The file position stands in for Feeder.Consumed: it runs ahead of
		// the last processed line by the reader's buffering, so the traced
		// checkpoint has the child's shape and size but not its exact
		// offset, and is not compared with it.
		id = rec.begin("stream.checkpoint", b.Index)
		pos, err := f.Seek(0, io.SeekCurrent)
		if err == nil {
			next := in.CheckpointLight(pos, 0)
			if next.Drift, err = det.State(); err == nil {
				err = stream.WriteCheckpointFile(ckptPath, next)
			}
		}
		rec.end(id)
		if err != nil {
			emitErr = fmt.Errorf("writing checkpoint: %w", err)
		}
	}

	batch := make([]logmodel.Entry, readBatch)
	for {
		id := rec.begin("logmodel.parse", trace)
		n, rerr := reader.ReadBatch(batch)
		rec.end(id)
		if n > 0 {
			id = rec.begin("stream.bucket", trace)
			in.AddBatch(batch[:n])
			rec.end(id)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	id := rec.begin("stream.flush", trace)
	in.Flush()
	rec.end(id)
	if emitErr != nil {
		return nil, emitErr
	}

	out.wallNs = rec.clock() - startWall
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.allocs = ms1.Mallocs - ms0.Mallocs
	if gc1 := gcCPU(); gc1.busy > gc0.busy {
		out.gcShare = (gc1.gc - gc0.gc) / (gc1.busy - gc0.busy)
	}
	st := in.Stats()
	out.entries = st.Accepted
	if st.Late != 0 || st.Corrupt != 0 {
		return nil, fmt.Errorf("traced pass dropped %d late and %d corrupt entries", st.Late, st.Corrupt)
	}
	out.docSHA = hex.EncodeToString(docs.Sum(nil))
	out.store = make(map[string]int64)
	for _, name := range []string{"records", "segments_written", "compactions", "bytes_written"} {
		out.store[name] = reg.Counter("store." + name).Value()
	}
	if s.durable {
		fi, err := os.Stat(ckptPath)
		if err != nil {
			return nil, err
		}
		out.ckptBytes = fi.Size()
	}
	out.lastKey = firstKey(inner.Snapshot())
	return out, nil
}

// firstKey returns the drift key of a document's first edge — a key the
// store is sure to have seen — or "" for an empty model.
func firstKey(doc core.ModelDocument) string {
	switch {
	case len(doc.Pairs) > 0:
		return drift.PairKey(doc.Pairs[0].A, doc.Pairs[0].B)
	case len(doc.Deps) > 0:
		return drift.DepKey(doc.Deps[0].App, doc.Deps[0].Group)
	}
	return ""
}

// cpuSeconds is a reading of the runtime's CPU accounting.
type cpuSeconds struct{ gc, busy float64 }

// gcCPU reads the runtime's estimate of the CPU seconds spent in the
// collector, and spent at all (total less idle), since process start.
func gcCPU() cpuSeconds {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var v [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			v[i] = s[i].Value.Float64()
		}
	}
	return cpuSeconds{gc: v[0], busy: v[1] - v[2]}
}

// stagedRestart times what a restart of the durable follower pays on the
// state the traced loop left: read the checkpoint, hydrate its window from
// the store's raw segments, and replay it into a fresh miner.
func stagedRestart(rec *recorder, s replaySpec, c *corpus, stateDir string) error {
	wcfg := streamConfig()
	id := rec.begin("stream.read_checkpoint", -1)
	cp, err := stream.ReadCheckpointFile(filepath.Join(stateDir, ckptFileName))
	rec.end(id)
	if err != nil {
		return err
	}
	if cp == nil {
		return fmt.Errorf("traced pass left no checkpoint")
	}
	id = rec.begin("modelstore.hydrate", -1)
	store, err := modelstore.Open(filepath.Join(stateDir, storeDirName), modelstore.Config{
		BucketWidth:   wcfg.BucketWidth,
		WindowBuckets: wcfg.WindowBuckets,
	})
	if err == nil {
		err = store.Hydrate(cp)
	}
	rec.end(id)
	if err != nil {
		return fmt.Errorf("hydrate: %w", err)
	}
	miner, err := buildMiner(s, c, wcfg)
	if err != nil {
		return err
	}
	id = rec.begin("stream.restore", -1)
	_, err = cp.Restore(wcfg, miner)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

// queryReps is how many times stagedQueries asks each history question.
const queryReps = 15

// stagedQueries times the three history queries the daemon serves, the way
// its handlers run them — a fresh OpenRead per query — at instants spread
// evenly over the records the store still retains.
func stagedQueries(rec *recorder, storeDir, key string) error {
	st, err := modelstore.OpenRead(storeDir)
	if err != nil {
		return err
	}
	recs, err := st.Records()
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("store %s retains no records to query", storeDir)
	}
	last := recs[len(recs)-1].Range.End
	for i := 0; i < queryReps; i++ {
		at := recs[i*len(recs)/queryReps].Range.End
		id := rec.begin("modelstore.query_model", -1)
		st, err := modelstore.OpenRead(storeDir)
		if err == nil {
			_, _, err = st.ModelAt(at)
		}
		rec.end(id)
		if err != nil {
			return fmt.Errorf("model query: %w", err)
		}
		id = rec.begin("modelstore.query_diff", -1)
		if st, err = modelstore.OpenRead(storeDir); err == nil {
			_, err = st.DiffAt(at, last)
		}
		rec.end(id)
		if err != nil {
			return fmt.Errorf("diff query: %w", err)
		}
		id = rec.begin("modelstore.query_traj", -1)
		if st, err = modelstore.OpenRead(storeDir); err == nil {
			_, err = st.Trajectory(key)
		}
		rec.end(id)
		if err != nil {
			return fmt.Errorf("trajectory query: %w", err)
		}
	}
	return nil
}

// tracedReplay runs the traced pass of a replay workload, checks it against
// the untraced reference pass, and fills in the per-layer metrics.
func tracedReplay(h *harness, s replaySpec, c *corpus, stateDir string, ref *pass, untracedWallS float64, res *result) error {
	rec := newRecorder(obs.SystemClock)
	out, err := stagedFollow(rec, s, c, stateDir)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	// Taken before the restart and query spans join the list: the budget
	// is the follow loop's alone.
	loopSpans, self := rec.topLevel(), rec.selfTimes()
	res.check(out.entries == c.entries && out.buckets == c.buckets,
		"traced pass accepted %d entries in %d buckets, expected %d in %d", out.entries, out.buckets, c.entries, c.buckets)
	res.check(out.docSHA == ref.DocSHA, "traced pass rendered different documents than the child")
	if s.durable {
		sha, _, err := dirDigest(filepath.Join(stateDir, storeDirName))
		if err != nil {
			return err
		}
		res.check(sha == ref.StoreSHA, "traced pass left a different store directory than the child")
		if err := stagedRestart(rec, s, c, stateDir); err != nil {
			return err
		}
		if err := stagedQueries(rec, filepath.Join(stateDir, storeDirName), out.lastKey); err != nil {
			return err
		}
	}

	n := float64(out.entries)
	p := func(name string, q float64) float64 { return percentile(rec.durations(name), q) / 1e6 }
	sum := func(name string) float64 {
		var t float64
		for _, d := range rec.durations(name) {
			t += d
		}
		return t
	}
	res.layer("logmodel.parse_ns_per_entry", float64(self["logmodel.parse"])/n)
	res.layer("stream.bucket_ns_per_entry", float64(self["stream.bucket"]+self["stream.flush"])/n)
	adv := "core." + s.method + ".advance"
	res.layer(adv+"_ms_p50", p(adv, 50))
	if s.method == "l1" {
		res.layer(adv+"_ms_p90", p(adv, 90))
	}
	res.layer("core.snapshot_ms_p50", p("core.snapshot", 50))
	res.layer("core.render_ms_p50", p("core.render", 50))
	res.layer("core.render_bytes_per_bucket", median(out.renderBytes))
	res.layer("follow.evidence_ms_p50", p("follow.evidence", 50))
	res.layer("modelstore.append_ms_p50", p("modelstore.append", 50))
	res.layer("modelstore.append_ms_p90", p("modelstore.append", 90))
	res.layer("modelstore.bytes_written_per_entry", float64(out.store["bytes_written"])/n)
	res.layer("modelstore.segments_written", float64(out.store["segments_written"]))
	res.layer("modelstore.compactions", float64(out.store["compactions"]))
	res.layer("modelstore.records", float64(out.store["records"]))
	res.layer("drift.observe_ms_p50", p("drift.observe", 50))
	res.layer("stream.checkpoint_ms_p50", p("stream.checkpoint", 50))
	res.layer("stream.checkpoint_bytes", float64(out.ckptBytes))
	res.layer("modelstore.hydrate_ms", sum("modelstore.hydrate")/1e6)
	res.layer("stream.restore_ms", sum("stream.restore")/1e6)
	res.layer("modelstore.query_model_ms_p50", p("modelstore.query_model", 50))
	res.layer("modelstore.query_diff_ms_p50", p("modelstore.query_diff", 50))
	res.layer("modelstore.query_traj_ms_p50", p("modelstore.query_traj", 50))
	res.layer("follow.alloc_bytes_per_entry", float64(out.allocBytes)/n)
	res.layer("follow.allocs_per_entry", float64(out.allocs)/n)
	res.layer("follow.gc_cpu_share", out.gcShare)
	unattributed := float64(out.wallNs-loopSpans) / float64(out.wallNs)
	res.layer("follow.unattributed_share", unattributed)
	res.layer("follow.trace_overhead_share", sec(out.wallNs)/untracedWallS-1)
	res.check(unattributed <= 0.05, "traced pass left %.1f%% of its wall time outside every span", 100*unattributed)

	// The budget: each span's share of the traced wall by self time.
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	res.notef("traced pass: %.3f s wall, %d spans; self-time budget:", sec(out.wallNs), len(rec.spans))
	for _, name := range names {
		res.notef("  %-26s %9.3f ms  %5.1f%%", name, ms(self[name]), 100*float64(self[name])/float64(out.wallNs))
	}
	dump := filepath.Join(h.out, fmt.Sprintf("trace-%s-seed%d.jsonl", s.name, h.seed))
	if err := rec.dump(dump); err != nil {
		return err
	}
	res.notef("spans written to %s", dump)
	return nil
}
