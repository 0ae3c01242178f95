package chaos

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

// corpusLines renders n clean wire-format lines: overlapping sessions across
// three sources and users, with periodic registry citations so every miner
// layer has something to find before the injector mangles the stream.
func corpusLines(n int) []string {
	srcs := []string{"DPIFormidoc", "AppB", "AppC"}
	users := []string{"u1", "u2", "u3"}
	var lines []string
	for i := 0; i < n; i++ {
		e := logmodel.Entry{
			Time:     logmodel.Millis(1000 + i*137),
			Source:   srcs[i%3],
			Host:     "host1",
			User:     users[(i/2)%3],
			Severity: logmodel.SevInfo,
			Message:  "step work",
		}
		if i%7 == 0 {
			e.Message = "GET http://reg.hug/reg/list"
		}
		lines = append(lines, logmodel.FormatEntry(e))
	}
	return lines
}

var chaosDir = &directory.Directory{Version: 1, Groups: []directory.Group{
	{ID: "DPIREG", RootURL: "http://reg.hug/reg"},
}}

func chaosMiners(wcfg stream.Config) []stream.Miner {
	l1cfg := l1.DefaultConfig()
	l1cfg.MinLogs = 2
	l1cfg.SampleSize = 8
	return []stream.Miner{
		stream.NewL1(wcfg, l1cfg),
		stream.NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2},
			l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2}),
		stream.NewL3(wcfg, l3.NewMiner(chaosDir, l3.DefaultConfig())),
	}
}

// chaosRun is the outcome of one hardened-pipeline run over a script.
type chaosRun struct {
	snaps [][]byte // per-miner streaming snapshot, serialized
	batch [][]byte // per-miner batch reference over the window, serialized
	stats stream.IngestStats
	feed  stream.FeedStats
}

// hardenedSource composes the hardened read stack over a raw transport:
// the torn-gzip reader for gzip scripts, the transport itself otherwise.
func hardenedSource(raw io.Reader, sc *Script) io.Reader {
	if sc.Gzip {
		return stream.NewTornGzipReader(raw, nil)
	}
	return raw
}

// runScript drives one full pipeline over the script's in-memory transport.
func runScript(t *testing.T, sc *Script, workers int) chaosRun {
	t.Helper()
	return runSource(t, hardenedSource(NewReader(sc), sc), workers)
}

// runSource drives one full pipeline over an already-composed source.
func runSource(t *testing.T, src io.Reader, workers int) chaosRun {
	t.Helper()
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4, Workers: workers}
	miners := chaosMiners(wcfg)
	in := stream.NewIngester(wcfg, miners...)
	f := stream.NewFeeder(in, stream.FeederConfig{})
	if err := f.Run(src); err != nil {
		t.Fatalf("feeder run: %v", err)
	}
	in.Flush()

	r := chaosRun{stats: in.Stats(), feed: f.Stats()}
	win, tr := in.WindowStore(), in.WindowRange()
	for _, m := range miners {
		var sb, bb bytes.Buffer
		if err := core.WriteModel(&sb, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if err := core.WriteModel(&bb, m.Batch(win, tr)); err != nil {
			t.Fatal(err)
		}
		r.snaps = append(r.snaps, sb.Bytes())
		r.batch = append(r.batch, bb.Bytes())
	}
	return r
}

// checkRun asserts the headline contract on one run: every miner's
// streaming snapshot is byte-identical to its batch reference over exactly
// the accepted (windowed) entries.
func checkRun(t *testing.T, tag string, r chaosRun) {
	t.Helper()
	for i := range r.snaps {
		if !bytes.Equal(r.snaps[i], r.batch[i]) {
			t.Errorf("%s: miner %d snapshot diverges from batch\nstream: %s\nbatch:  %s",
				tag, i, r.snaps[i], r.batch[i])
		}
	}
}

func TestInjectIsDeterministic(t *testing.T) {
	lines := corpusLines(60)
	s := Schedule{Seed: 7, TruncatePerMille: 200, CorruptPerMille: 200,
		DuplicatePerMille: 150, ReorderWindow: 3, SkewMaxMillis: 700,
		RotateEveryLines: 10, StallPerMille: 100}
	a, b := Inject(lines, s), Inject(lines, s)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and schedule produced different scripts")
	}
	s2 := s
	s2.Seed = 8
	if bytes.Equal(Inject(lines, s2).Lines(), a.Lines()) {
		t.Fatal("different seeds produced identical fault streams")
	}
	if rot, st := countKinds(a); rot == 0 || st == 0 {
		t.Fatalf("schedule armed rotations and stalls but script has rot=%d stall=%d", rot, st)
	}
}

func countKinds(sc *Script) (rotates, stallOps int) {
	for _, op := range sc.Ops {
		switch op.Kind {
		case OpRotate:
			rotates++
		case OpStall:
			stallOps++
		}
	}
	return
}

func TestCleanScriptRoundTrips(t *testing.T) {
	// Zero schedule: the transport must deliver the input byte-for-byte and
	// the pipeline must accept every line.
	lines := corpusLines(30)
	sc := Inject(lines, Schedule{})
	got, err := io.ReadAll(NewReader(sc))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, l := range lines {
		want.WriteString(l)
		want.WriteByte('\n')
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("zero schedule mangled the stream")
	}
	r := runScript(t, sc, 1)
	if r.stats.Accepted != 30 || r.feed.Malformed != 0 {
		t.Errorf("clean run stats = %+v / %+v, want 30 accepted, none malformed", r.stats, r.feed)
	}
	checkRun(t, "clean", r)
}

// TestChaosEquivalenceMem is the property suite: across seeds and fault
// mixes, at Workers 1 and 8, the streaming snapshot equals the batch
// reference and is byte-identical across worker counts.
func TestChaosEquivalenceMem(t *testing.T) {
	lines := corpusLines(120)
	schedules := []Schedule{
		{Seed: 1, TruncatePerMille: 250},
		{Seed: 2, CorruptPerMille: 250},
		{Seed: 3, DuplicatePerMille: 300},
		{Seed: 4, ReorderWindow: 5, SkewMaxMillis: 1500},
		{Seed: 5, StallPerMille: 200, RotateEveryLines: 9},
		{Seed: 6, Gzip: true, StallPerMille: 150},
		{Seed: 7, Gzip: true, TornTail: true},
		{Seed: 8, TruncatePerMille: 120, CorruptPerMille: 120, DuplicatePerMille: 120,
			ReorderWindow: 4, SkewMaxMillis: 900, RotateEveryLines: 11, StallPerMille: 120},
		{Seed: 9, TruncatePerMille: 120, CorruptPerMille: 120, DuplicatePerMille: 120,
			ReorderWindow: 4, SkewMaxMillis: 900, StallPerMille: 120, Gzip: true, TornTail: true},
	}
	for _, s := range schedules {
		t.Run(fmt.Sprintf("seed%d", s.Seed), func(t *testing.T) {
			sc := Inject(lines, s)
			r1 := runScript(t, sc, 1)
			r8 := runScript(t, sc, 8)
			checkRun(t, "workers=1", r1)
			checkRun(t, "workers=8", r8)
			if !reflect.DeepEqual(r1.snaps, r8.snaps) {
				t.Error("snapshots differ between Workers 1 and 8")
			}
			if r1.stats != r8.stats || r1.feed != r8.feed {
				t.Errorf("accounting differs across worker counts: %+v/%+v vs %+v/%+v",
					r1.stats, r1.feed, r8.stats, r8.feed)
			}
			if s.Seed >= 8 && r1.stats.Accepted == 0 {
				t.Error("combined schedule rejected everything; property is vacuous")
			}
		})
	}
}

// TestChaosBatchedIngestEquivalence plays a fault schedule through the bulk
// ReadBatch → AddBatch path that batch loaders use and pins it against the
// per-line Feeder reference: identical miner snapshots, identical ingest
// accounting, at Workers 1 and 8. The schedule uses every line-preserving
// fault (duplication, reordering, skew, rotation, stalls) — line-tearing
// faults are the Feeder's domain, since logmodel.Reader treats a malformed
// line as a stream error rather than a quarantinable reject. The batched
// ingester also runs with RecycleBuckets on, so bucket-slice recycling is
// pinned to have no observable effect on the mined model.
func TestChaosBatchedIngestEquivalence(t *testing.T) {
	lines := corpusLines(120)
	sc := Inject(lines, Schedule{Seed: 41, DuplicatePerMille: 200, ReorderWindow: 4,
		SkewMaxMillis: 1200, RotateEveryLines: 9, StallPerMille: 150})
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ref := runScript(t, sc, workers)
			if ref.stats.Late == 0 {
				t.Error("skew produced no late entries; verdict equivalence is vacuous")
			}

			wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4, Workers: workers,
				RecycleBuckets: true}
			miners := chaosMiners(wcfg)
			in := stream.NewIngester(wcfg, miners...)
			lr := logmodel.NewReader(hardenedSource(NewReader(sc), sc))
			var batch [32]logmodel.Entry
			for {
				n, err := lr.ReadBatch(batch[:])
				in.AddBatch(batch[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("batched read: %v", err)
				}
			}
			in.Flush()

			if s := in.Stats(); s != ref.stats {
				t.Errorf("batched ingest stats = %+v, feeder reference %+v", s, ref.stats)
			}
			got := chaosRun{stats: in.Stats()}
			win, tr := in.WindowStore(), in.WindowRange()
			for _, m := range miners {
				var sb, bb bytes.Buffer
				if err := core.WriteModel(&sb, m.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if err := core.WriteModel(&bb, m.Batch(win, tr)); err != nil {
					t.Fatal(err)
				}
				got.snaps = append(got.snaps, sb.Bytes())
				got.batch = append(got.batch, bb.Bytes())
			}
			checkRun(t, "batched", got)
			if !reflect.DeepEqual(got.snaps, ref.snaps) {
				t.Errorf("batched snapshots diverge from feeder reference\nbatched: %s\nfeeder:  %s",
					bytes.Join(got.snaps, []byte("|")), bytes.Join(ref.snaps, []byte("|")))
			}
		})
	}
}

// TestChaosEquivalenceTailerFS plays a rotating fault script through a real
// file followed by a Tailer and pins two things: the tailer survives the
// rotations, and the result is byte-identical to the in-memory transport of
// the same script. The wake arm idles the way a live daemon tenant does —
// each step is followed by a stream.Wake's Wait — and pins that every write
// and every rotation woke it before the backstop.
func TestChaosEquivalenceTailerFS(t *testing.T) {
	lines := corpusLines(90)
	for _, s := range []Schedule{
		{Seed: 21, RotateEveryLines: 7},
		{Seed: 22, RotateEveryLines: 5, TruncatePerMille: 200, CorruptPerMille: 150, StallPerMille: 150},
	} {
		t.Run(fmt.Sprintf("seed%d", s.Seed), func(t *testing.T) {
			for _, arm := range []string{"step", "wake"} {
				t.Run(arm, func(t *testing.T) {
					sc := Inject(lines, s)
					path := filepath.Join(t.TempDir(), "chaos.log")
					runner, err := NewFSRunner(path, sc)
					if err != nil {
						t.Fatal(err)
					}
					wait, missed := runner.Step, 0
					if arm == "wake" {
						wake := stream.NewWake(path, nil)
						defer wake.Close()
						played := 0
						wait = func() bool {
							if !runner.Step() {
								return false
							}
							op := sc.Ops[played]
							played++
							if op.Kind == OpStall {
								wake.Wait(time.Millisecond) // a stall changes nothing to wake on
							} else if !wake.Wait(10 * time.Second) {
								missed++
							}
							return true
						}
					}
					tl, err := stream.NewTailer(path, stream.TailerConfig{Wait: wait})
					if err != nil {
						t.Fatal(err)
					}
					defer tl.Close()

					fsRun := runSource(t, tl, 1)
					if runner.Err() != nil {
						t.Fatalf("fs runner: %v", runner.Err())
					}
					if missed > 0 {
						t.Errorf("%d write or rotate steps did not wake the waiter", missed)
					}
					if int(tl.Rotations()) != runner.Rotations() || runner.Rotations() == 0 {
						t.Errorf("tailer saw %d rotations, runner played %d (want equal, nonzero)",
							tl.Rotations(), runner.Rotations())
					}
					memRun := runScript(t, sc, 1)
					checkRun(t, "fs", fsRun)
					if !reflect.DeepEqual(fsRun, memRun) {
						t.Errorf("file transport diverges from memory transport\nfs:  %+v\nmem: %+v", fsRun, memRun)
					}
				})
			}
		})
	}
}

// killResume runs the script's pipeline, appending every closed bucket to
// a model store and checkpointing at the killAt-th, and drops everything
// after that checkpoint, as a kill there would. It then resumes the way a
// restarted follower does: the checkpoint file read back, its window
// hydrated from the reopened store, the transport re-read from the recorded
// offset. It returns the resumed run's snapshots and stats; ok is false when
// the stream starts before the epoch, which no store holds.
func killResume(t *testing.T, sc *Script, workers, killAt int) (r chaosRun, ok bool) {
	t.Helper()
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4, Workers: workers}
	scfg := modelstore.Config{BucketWidth: wcfg.BucketWidth, WindowBuckets: wcfg.WindowBuckets}
	dir := t.TempDir()
	s, err := modelstore.Open(dir, scfg)
	if err != nil {
		t.Fatal(err)
	}
	pre := stream.NewIngester(wcfg, chaosMiners(wcfg)...)
	f := stream.NewFeeder(pre, stream.FeederConfig{})
	var cp *stream.Checkpoint
	closed, preEpoch := 0, false
	pre.OnAdvance = func(b stream.Bucket) {
		if preEpoch = preEpoch || b.Range.Start < 0; cp != nil || preEpoch {
			return
		}
		rec := modelstore.Record{Bucket: b.Index, Range: b.Range, Model: []byte("{}\n")}
		for _, e := range b.Entries {
			rec.Evidence = append(rec.Evidence, logmodel.AppendEntry(nil, e))
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
		if closed++; closed == killAt {
			cp = pre.CheckpointLight(f.Consumed(), 0)
		}
	}
	if err := f.Run(hardenedSource(NewReader(sc), sc)); err != nil {
		t.Fatalf("pre-kill run: %v", err)
	}
	if preEpoch {
		return r, false
	}
	if cp == nil {
		t.Fatalf("stream closed fewer than %d buckets; no checkpoint taken", killAt)
	}

	path := filepath.Join(t.TempDir(), "follow.ckpt")
	if err := stream.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := stream.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = modelstore.Open(dir, scfg); err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate(loaded); err != nil {
		t.Fatal(err)
	}
	miners := chaosMiners(wcfg)
	resumed, err := loaded.Restore(wcfg, miners...)
	if err != nil {
		t.Fatal(err)
	}
	f2 := stream.NewFeeder(resumed, stream.FeederConfig{})
	if err := f2.Run(hardenedSource(NewReaderAt(sc, loaded.Offset), sc)); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	resumed.Flush()
	for _, m := range miners {
		var buf bytes.Buffer
		if err := core.WriteModel(&buf, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		r.snaps = append(r.snaps, buf.Bytes())
	}
	r.stats = resumed.Stats()
	return r, true
}

// TestChaosKillResume simulates a kill after a checkpoint and a -resume
// restart: the resumed pipeline, reading the same fault stream from the
// checkpoint offset, must land on snapshots byte-identical to an
// uninterrupted run.
func TestChaosKillResume(t *testing.T) {
	lines := corpusLines(120)
	sc := Inject(lines, Schedule{Seed: 31, TruncatePerMille: 150, CorruptPerMille: 100,
		DuplicatePerMille: 100, ReorderWindow: 3, SkewMaxMillis: 600, StallPerMille: 120})
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ref := runScript(t, sc, workers)
			got, ok := killResume(t, sc, workers, 2)
			if !ok {
				t.Fatal("the corpus starts before the epoch; no store holds it")
			}
			if !reflect.DeepEqual(got.snaps, ref.snaps) {
				t.Errorf("resumed snapshots diverge from uninterrupted run\nresumed: %s\nref:     %s",
					bytes.Join(got.snaps, []byte("|")), bytes.Join(ref.snaps, []byte("|")))
			}
			if got.stats != ref.stats {
				t.Errorf("resumed stats = %+v, want %+v", got.stats, ref.stats)
			}
		})
	}
}

func TestReaderAtMidLineOffset(t *testing.T) {
	// A resume offset always sits on a line boundary in practice, but the
	// transport itself must honor any byte offset exactly.
	sc := Inject([]string{"alpha", "beta"}, Schedule{})
	got, err := io.ReadAll(NewReader(sc))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off <= len(got); off++ {
		rest, err := io.ReadAll(NewReaderAt(sc, int64(off)))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if !bytes.Equal(rest, got[off:]) {
			t.Fatalf("offset %d read %q, want %q", off, rest, got[off:])
		}
	}
}
