package follow

// The engine's own suite covers what the suites above it (cmd/depmine,
// internal/daemon, the root equivalence tests) never execute: the .gz
// branch of the source stack and the decompressed-byte skip a resume over a
// .gz source repositions with, a stage that fails mid-run, the stage
// histograms, and a run whose commits are held back behind the reader (the
// suite is in-package for that seam, holdCommits). Everything is pinned at
// the byte level against the plain-file run of the same corpus.

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
	"logscape/internal/stream"
)

// topology is the simulated hospital every test here mines.
func topology() *hospital.Topology {
	return hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 1)
}

// corpus is one simulated hospital day at 1/10 of the default volume
// (about 9k entries, 24 hourly buckets), in wire format.
func corpus(t *testing.T) []byte {
	t.Helper()
	cfg := hospital.DefaultConfig(1)
	cfg.Scale = 0.1
	cfg.Days = 1
	sim := hospital.NewSimulator(cfg, topology())
	day, _ := sim.GenerateDay(0)
	var buf bytes.Buffer
	if err := logmodel.WriteAll(&buf, day); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gzipped(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// config is the L2 geometry every test here runs: hourly buckets, a
// six-hour window, the CLI's one-second bigram timeout.
func config(source string) Config {
	return Config{Spec: Spec{
		Method: "l2", Source: source, TimeoutSec: 1, Workers: 1,
		BucketSec: 3600, WindowBuckets: 6,
	}}
}

// subHour is config at 900 s buckets, four to the store's hour granule: a
// bucket that does not open a granule is appended to its file as one frame,
// and a failure mid-granule re-appends inside it.
func subHour(source string) Config {
	cfg := config(source)
	cfg.BucketSec = 900
	return cfg
}

// durable is the host's part of a durable run: cfg checkpointing into state
// and appending to the store there, opened — as depmine and the daemon open
// it, once per run — with cfg's geometry and registry.
func durable(t *testing.T, cfg Config, state string) Config {
	t.Helper()
	store, err := cfg.OpenStore(filepath.Join(state, "store"), cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ResumePath, cfg.Store = filepath.Join(state, "follow.ckpt"), store
	return cfg
}

// run executes one engine and returns its result, documents and delta lines.
func run(t *testing.T, cfg Config) (Result, []byte, []byte) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	res, err := Run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Source, err)
	}
	return res, stdout.Bytes(), stderr.Bytes()
}

// writes is a writer that keeps each write apart: a run's documents, one per
// stdout write, and (without drift) its delta lines, one per stderr write.
type writes [][]byte

func (w *writes) Write(p []byte) (int, error) {
	*w = append(*w, bytes.Clone(p))
	return len(p), nil
}

// first is what the first k writes wrote.
func (w writes) first(k int) []byte { return bytes.Join(w[:k], nil) }

// reference is an uninterrupted run's output, bucket by bucket.
type reference struct{ docs, lines writes }

// runReference runs cfg, which must not drift, uninterrupted.
func runReference(t *testing.T, cfg Config) reference {
	t.Helper()
	var ref reference
	res, err := Run(cfg, &ref.docs, &ref.lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.docs) != res.Buckets || len(ref.lines) != res.Buckets {
		t.Fatalf("%d buckets wrote %d documents and %d delta lines; want one of each per bucket", res.Buckets, len(ref.docs), len(ref.lines))
	}
	return ref
}

// buckets is the number of buckets the reference delivered.
func (r reference) buckets() int { return len(r.docs) }

// checkpointAt reports the bucket count of a state directory's checkpoint.
func checkpointAt(t *testing.T, cfg Config) int {
	t.Helper()
	cp, err := stream.ReadCheckpointFile(cfg.ResumePath)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint %s: %+v, %v", cfg.ResumePath, cp, err)
	}
	return cp.Stats.Buckets
}

// TestGzipSourceMatchesPlain: the decompressing source stack is invisible
// in the output.
func TestGzipSourceMatchesPlain(t *testing.T) {
	data := corpus(t)
	plainRes, plainOut, plainErr := run(t, config(writeFile(t, "day.log", data)))
	gzRes, gzOut, gzErr := run(t, config(writeFile(t, "day.log.gz", gzipped(t, data))))

	if plainRes.Buckets < 20 {
		t.Fatalf("corpus closed %d buckets; the test wants a day's worth", plainRes.Buckets)
	}
	if !bytes.Equal(gzOut, plainOut) {
		t.Errorf(".gz documents differ from the plain file's (%d vs %d bytes)", len(gzOut), len(plainOut))
	}
	if !bytes.Equal(gzErr, plainErr) {
		t.Errorf(".gz delta lines differ from the plain file's:\n%s\nvs\n%s", gzErr, plainErr)
	}
	if gzRes != plainRes {
		t.Errorf(".gz accounting %+v differs from plain %+v", gzRes, plainRes)
	}
}

// failAt is a stdout or stderr whose k-th Write fails, and every one after it
// (k = 0: none does).
type failAt struct {
	bytes.Buffer
	k, writes int
}

var errDiskFull = errors.New("disk full")

func (w *failAt) Write(p []byte) (int, error) {
	if w.writes++; w.k > 0 && w.writes >= w.k {
		return 0, errDiskFull
	}
	return w.Buffer.Write(p)
}

// failAtBucket is the fail-at-k arm of the stop/resume suites, run durable
// over base's source and geometry under a Wait hook that would keep tailing:
// stdout fails on document k, then stderr on delta line k. The run must end
// there like a kill — the error returned without tailing on, no later stage
// run for bucket k or any bucket after it, so the documents and delta lines
// written are exactly the reference's up to bucket k−1 (and document k after
// a failed delta line) — and a rerun from the checkpoint it left, with
// healthy writers, must continue with bucket k exactly as an uninterrupted
// run prints it: the stream that failed is then whole, byte for byte.
// (After a failed delta line document k — written a stage earlier — is on
// stdout twice, as after a kill between the two.)
//
// A failed delta line leaves bucket k's record in the store beside bucket
// k−1's checkpoint (at k = 1, the fresh run's empty one): the rerun
// re-appends it, and takes its first delta against the stored document of
// bucket k−1 — exact even where appending record k compacted the oldest
// bucket of window k−1 out of the store. failAtBucket reports whether that
// re-append fell inside a granule: record k behind record k−1 in one file.
func failAtBucket(t *testing.T, base Config, k int, ref reference) (midGranule bool) {
	t.Helper()
	wantOut, wantErr := ref.docs.first(ref.buckets()), ref.lines.first(ref.buckets())
	for _, failStderr := range []bool{false, true} {
		state, out1, err1 := t.TempDir(), &failAt{k: k}, &failAt{}
		if failStderr {
			out1, err1 = err1, out1
		}
		first := durable(t, base, state)
		polls, fired, last := 0, 0, int64(-1)
		first.Wait = func() bool { polls++; return polls < 50 }
		first.Progress = func(p Progress) { fired, last = fired+1, p.LastIndex }
		res, err := Run(first, out1, err1)
		if !errors.Is(err, errDiskFull) || res.Stopped {
			t.Fatalf("k=%d, stderr %v: Run = %+v, %v; want the writer's error and no clean stop", k, failStderr, res, err)
		}
		if polls > 1 || fired != k-1 {
			t.Errorf("k=%d, stderr %v: %d Wait polls and %d Progress calls after the failure; want at most 1 and exactly %d", k, failStderr, polls, fired, k-1)
		}
		if res.Entries == 0 || res.Buckets < k {
			t.Errorf("k=%d, stderr %v: failed run reports %+v; want its accounting up to the failure", k, failStderr, res)
		}
		docs := k - 1
		if failStderr {
			docs = k
		}
		if !bytes.Equal(out1.Bytes(), ref.docs.first(docs)) || !bytes.Equal(err1.Bytes(), ref.lines.first(k-1)) {
			t.Errorf("k=%d, stderr %v: the failed run wrote %d document and %d delta bytes; want the reference's first %d documents and %d delta lines",
				k, failStderr, out1.Len(), err1.Len(), docs, k-1)
		}
		cfg := durable(t, base, state) // a restarted host: it opens the store again
		if n := checkpointAt(t, cfg); n != k-1 {
			t.Errorf("k=%d, stderr %v: checkpoint is bucket %d's, not bucket %d's", k, failStderr, n, k-1)
		}
		// The store stage runs before the delta line, after the document:
		// the stored records end with bucket k−1's (last; −1 at k = 1), and
		// after a failed delta line with bucket k's behind it.
		recs, err := cfg.Store.Records()
		if err != nil {
			t.Fatal(err)
		}
		newest := func(recs []modelstore.Record) int64 {
			if len(recs) == 0 {
				return -1
			}
			return recs[len(recs)-1].Bucket
		}
		kept := recs
		if failStderr && len(recs) > 0 {
			kept = recs[:len(recs)-1]
		}
		if newest(kept) != last || failStderr && newest(recs) <= last {
			t.Errorf("k=%d, stderr %v: the store's %d records end at bucket %d; want bucket %d's record, then bucket k's after a failed delta line",
				k, failStderr, len(recs), newest(recs), last)
		}
		// At hourly buckets every granule holds one record, so compaction
		// thins none away and the store holds every record appended.
		want := k - 1
		if failStderr {
			want = k
		}
		if base.BucketSec >= 3600 && len(recs) != want {
			t.Errorf("k=%d, stderr %v: store holds %d records; want %d", k, failStderr, len(recs), want)
		}
		if n := len(recs); failStderr && n >= 2 {
			granule := func(r modelstore.Record) logmodel.Millis { return r.Range.Start / logmodel.MillisPerHour }
			midGranule = granule(recs[n-1]) == granule(recs[n-2])
		}

		_, out2, err2 := run(t, cfg)
		if got := rejoin(out1.Bytes(), out2, wantOut, failStderr); !bytes.Equal(got, wantOut) {
			t.Errorf("k=%d, stderr %v: failed+rerun documents differ from the uninterrupted run's (%d vs %d bytes)", k, failStderr, len(got), len(wantOut))
		}
		if got := append(err1.Bytes(), err2...); !bytes.Equal(got, wantErr) {
			t.Errorf("k=%d, stderr %v: failed+rerun delta lines differ:\n%s\nvs\n%s", k, failStderr, got, wantErr)
		}
	}
	return midGranule
}

// rejoin concatenates a failed run's documents with its rerun's. When the
// delta line failed (twice), the document before it is on stdout twice, as
// after a kill between the two: the copy the rerun printed again is dropped.
func rejoin(out1, out2, want []byte, twice bool) []byte {
	got := append(append([]byte(nil), out1...), out2...)
	if n := len(got) - len(want); twice && n > 0 && n <= len(out2) && bytes.HasSuffix(out1, out2[:n]) {
		got = append(append([]byte(nil), out1[:len(out1)-n]...), out2...)
	}
	return got
}

// stopResume is the stop arm of the stop/resume suites: a durable run of
// base over src hard-stopped once k buckets are out ends on a whole bucket
// — its documents and delta lines are the reference's first m, its
// checkpoint bucket m's, for some m ≥ k — and, resumed from that
// checkpoint, prints exactly what the uninterrupted run prints. It returns
// m, the bucket the stop landed on.
func stopResume(t *testing.T, base Config, k int, ref reference) int {
	t.Helper()
	state := t.TempDir()
	// Stop is polled at read boundaries, so the run ends at the first
	// one after bucket k: with k or a few more buckets delivered. Progress
	// runs on the commit goroutine, Stop on the reading one.
	var stopped atomic.Bool
	first := durable(t, base, state)
	first.Progress = func(p Progress) {
		if p.Buckets >= k {
			stopped.Store(true)
		}
	}
	first.Stop = stopped.Load
	res1, out1, err1 := run(t, first)
	if !res1.Stopped || res1.Buckets < k {
		t.Fatalf("k=%d: stopped=%v after %d buckets", k, res1.Stopped, res1.Buckets)
	}
	m := k
	for m < ref.buckets() && len(ref.docs.first(m)) < len(out1) {
		m++
	}
	if !bytes.Equal(out1, ref.docs.first(m)) || !bytes.Equal(err1, ref.lines.first(m)) {
		t.Errorf("k=%d: the stopped run wrote %d document and %d delta bytes, not a whole bucket's worth", k, len(out1), len(err1))
	}
	cfg := durable(t, base, state)
	if n := checkpointAt(t, cfg); n != m {
		t.Errorf("k=%d: the stopped run delivered %d buckets and checkpointed bucket %d's", k, m, n)
	}
	_, out2, err2 := run(t, cfg)
	if got, want := append(out1, out2...), ref.docs.first(ref.buckets()); !bytes.Equal(got, want) {
		t.Errorf("k=%d: stopped+resumed documents differ from the uninterrupted run's (%d vs %d bytes)",
			k, len(got), len(want))
	}
	if got, want := append(err1, err2...), ref.lines.first(ref.buckets()); !bytes.Equal(got, want) {
		t.Errorf("k=%d: stopped+resumed delta lines differ:\n%s\nvs\n%s", k, got, want)
	}
	return m
}

// TestGzipStopResumeEveryBucket: a durable .gz run hard-stopped once k
// buckets are out, then resumed from its checkpoint (which skips the
// consumed prefix of the decompressed stream), prints exactly what the
// uninterrupted run prints — for every k, not a sample of stop points. So
// does a run ended at bucket k by a failing stage (failAtBucket).
func TestGzipStopResumeEveryBucket(t *testing.T) {
	data := corpus(t)
	src, plain := writeFile(t, "day.log.gz", gzipped(t, data)), writeFile(t, "day.log", data)
	ref := runReference(t, durable(t, config(src), t.TempDir()))

	stops := make(map[int]bool) // distinct buckets the stops landed on
	for k := 1; k < ref.buckets(); k++ {
		stops[stopResume(t, config(src), k, ref)] = true
		failAtBucket(t, config(plain), k, ref)
	}
	// Several k share a read boundary in the quiet night hours; the busy
	// hours must still spread the stops out, or the loop tested one point.
	if len(stops) < ref.buckets()/2 {
		t.Errorf("stops landed on only %d distinct bucket counts of %d", len(stops), ref.buckets())
	}
}

// TestStopAndFailWithCommitsHeldBack: with every commit held back until the
// front joins it — the front of bucket k+1, or the end of the stream,
// always runs before bucket k's commit — a run still ends on the bucket
// whose commit ended it. A Stop raised by Progress(k) delivers exactly k
// buckets, at the end of the stream too, where Run's flush would deliver
// one more; a stage failing at bucket k leaves no document or delta line
// for bucket k+1 and bucket k−1's checkpoint. Resumed, both print what an
// uninterrupted run prints.
func TestStopAndFailWithCommitsHeldBack(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	ref := runReference(t, durable(t, config(src), t.TempDir()))
	holdCommits = true
	t.Cleanup(func() { holdCommits = false })
	for k := 1; k < ref.buckets(); k++ {
		if m := stopResume(t, config(src), k, ref); m != k {
			t.Errorf("a Stop raised by Progress(%d) delivered %d buckets", k, m)
		}
		failAtBucket(t, config(src), k, ref)
	}
}

// TestStopResumeInsideAGranule is the stop/resume suite's sub-hour arm: at
// 900 s buckets most records join a granule as an appended frame, and a
// failed delta line leaves a record the rerun re-appends inside its granule.
// Every k over two busy granules is stopped and failed, so each position in
// a granule is, and the re-append lands mid-granule at three of four.
func TestStopResumeInsideAGranule(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	ref := runReference(t, durable(t, subHour(src), t.TempDir()))
	if ref.buckets() < 60 {
		t.Fatalf("corpus closed %d 900 s buckets; the test wants a day's worth", ref.buckets())
	}
	mid := 0
	for k := 41; k <= 48; k++ {
		stopResume(t, subHour(src), k, ref)
		if failAtBucket(t, subHour(src), k, ref) {
			mid++
		}
	}
	if mid != 6 {
		t.Errorf("%d of 8 failed delta lines left a record inside a granule; want 6", mid)
	}
}

// TestRollbackAcrossASilence: a delta line that fails on the first bucket
// after a silence longer than the window leaves the store one record ahead
// of the checkpoint, and appending that record compacted the checkpoint's
// whole window out of the store. The rerun restores an empty window and
// still prints the failed line as the uninterrupted run does: against the
// stored document of the last bucket before the silence.
func TestRollbackAcrossASilence(t *testing.T) {
	var kept bytes.Buffer
	var origin logmodel.Millis
	before := 0 // hours delivered before the silence
	for i, l := range bytes.SplitAfter(corpus(t), []byte("\n")) {
		e, err := logmodel.ParseEntry(strings.TrimSuffix(string(l), "\n"))
		if err != nil {
			continue // the trailing empty split
		}
		if i == 0 {
			origin = e.Time - e.Time%logmodel.MillisPerHour
		}
		switch hour := int((e.Time - origin) / logmodel.MillisPerHour); {
		case hour >= 14 && hour < 22: // eight silent hours; the window is six
			continue
		case hour < 14:
			before = hour + 1
		}
		kept.Write(l)
	}
	src := writeFile(t, "silent.log", kept.Bytes())
	_, _, wantErr := run(t, durable(t, config(src), t.TempDir()))

	state, err1 := t.TempDir(), &failAt{k: before + 1}
	if _, err := Run(durable(t, config(src), state), io.Discard, err1); !errors.Is(err, errDiskFull) {
		t.Fatalf("Run = %v; want the writer's error", err)
	}
	cfg := durable(t, config(src), state)
	cp, err := stream.ReadCheckpointFile(cfg.ResumePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Store.Hydrate(cp); err != nil || cp.Stats.Buckets != before || len(cp.Buckets) != 0 {
		t.Fatalf("checkpoint after %d of %d buckets hydrates %d window buckets (%v); the test wants bucket %d's with its window compacted away",
			cp.Stats.Buckets, before, len(cp.Buckets), err, before-1)
	}
	_, _, err2 := run(t, durable(t, config(src), state))
	if got := append(err1.Bytes(), err2...); !bytes.Equal(got, wantErr) {
		t.Errorf("failed+rerun delta lines differ:\n%s\nvs\n%s", got, wantErr)
	}
}

// TestFailedAlertWriteIsReprinted: whichever stderr write of a durable drift
// run fails — a delta line or a bucket's DRIFT lines — the run ends with the
// writer's error before the checkpoint stage, so the detector state on disk
// never moves past an alert that was not written: the rerun prints every
// DRIFT line the failed run did not, none twice. (A delta line written just
// before its bucket's alerts failed is printed again, as after a kill there.)
// The reference runs durable too: DRIFT lines then carry segment= locators.
func TestFailedAlertWriteIsReprinted(t *testing.T) {
	cfg := config(writeFile(t, "day.log", corpus(t)))
	cfg.Drift = true
	alerts := func(stderr []byte) (lines []string) {
		for _, l := range bytes.Split(stderr, []byte("\n")) {
			if bytes.HasPrefix(l, []byte("DRIFT ")) {
				lines = append(lines, string(l))
			}
		}
		return lines
	}
	ref := &failAt{}
	if _, err := Run(durable(t, cfg, t.TempDir()), io.Discard, ref); err != nil {
		t.Fatal(err)
	}
	want := alerts(ref.Bytes())
	if len(want) < 5 {
		t.Fatalf("the corpus raised %d alerts; the test wants several", len(want))
	}
	for w := 1; w <= ref.writes; w++ {
		state, err1 := t.TempDir(), &failAt{k: w}
		if _, err := Run(durable(t, cfg, state), io.Discard, err1); !errors.Is(err, errDiskFull) {
			t.Fatalf("write %d: Run = %v; want the writer's error", w, err)
		}
		_, _, err2 := run(t, durable(t, cfg, state))
		if !bytes.HasPrefix(ref.Bytes(), err1.Bytes()) || !bytes.HasSuffix(ref.Bytes(), err2) {
			t.Fatalf("write %d: failed and rerun stderr are not a prefix and a suffix of the uninterrupted run's", w)
		}
		if got := append(alerts(err1.Bytes()), alerts(err2)...); !slices.Equal(got, want) {
			t.Errorf("write %d: failed+rerun alerts:\n%s\nwant each once:\n%s", w, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestTornGzipTail: a .gz cut mid-stream is a clean end of input — the run
// reports the tear and delivers exactly what a plain file holding the
// decompressible prefix delivers.
func TestTornGzipTail(t *testing.T) {
	data := corpus(t)
	gz := gzipped(t, data)
	torn := gz[:len(gz)*2/3]

	prefix, err := io.ReadAll(stream.NewTornGzipReader(bytes.NewReader(torn), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) == 0 || len(prefix) >= len(data) || !bytes.HasPrefix(data, prefix) {
		t.Fatalf("torn stream decompresses to %d bytes of %d; want a proper prefix", len(prefix), len(data))
	}

	tornRes, tornOut, tornErr := run(t, config(writeFile(t, "day.log.gz", torn)))
	plainRes, plainOut, plainErr := run(t, config(writeFile(t, "prefix.log", prefix)))

	if !tornRes.TornGzip {
		t.Error("Result.TornGzip not set for a truncated .gz")
	}
	if plainRes.TornGzip {
		t.Error("Result.TornGzip set for a plain file")
	}
	if tornRes.Buckets < 2 {
		t.Errorf("torn run delivered %d buckets; the prefix holds several", tornRes.Buckets)
	}
	if plainRes.TornGzip = true; tornRes != plainRes {
		t.Errorf("torn accounting %+v differs from the prefix's %+v but for the tear", tornRes, plainRes)
	}
	if !bytes.Equal(tornOut, plainOut) || !bytes.Equal(tornErr, plainErr) {
		t.Errorf("torn .gz output differs from the decompressed prefix's (%d/%d vs %d/%d bytes)",
			len(tornOut), len(tornErr), len(plainOut), len(plainErr))
	}
}

// TestCorruptGzipKeepsAccounting: a deflate body corrupted mid-stream is not
// a tear, so the read error surfaces — with the run's accounting up to it,
// not a zero Result.
func TestCorruptGzipKeepsAccounting(t *testing.T) {
	// A run of one-bits in the middle of the body decodes to a code deflate
	// does not define.
	bad := gzipped(t, corpus(t))
	for i := len(bad) / 2; i < len(bad)/2+8; i++ {
		bad[i] = 0xff
	}
	var corrupt flate.CorruptInputError
	zr, err := gzip.NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, zr); !errors.As(err, &corrupt) {
		t.Fatalf("the damaged stream decompresses with %v; the test wants a flate.CorruptInputError", err)
	}

	var stdout, stderr bytes.Buffer
	res, err := Run(config(writeFile(t, "day.log.gz", bad)), &stdout, &stderr)
	if !errors.As(err, &corrupt) {
		t.Fatalf("Run = %v; want the flate.CorruptInputError", err)
	}
	if res.Entries == 0 || res.Buckets == 0 || res.TornGzip || res.Stopped {
		t.Errorf("failed run reports %+v; want the entries and buckets ingested before the corruption", res)
	}
	if stdout.Len() == 0 {
		t.Error("no document was written before the corruption")
	}
}

// storeFiles reads every file of a store directory.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestInstrumentsNeverPerturb: a durable run of every method leaves the same
// documents, delta and DRIFT lines, checkpoint and store directory whether
// it collects no metrics, clockless metrics or wall-clock timings; and the
// loop times every stage of every bucket — stage counts, and the count of
// the front's waits for a commit, equal the buckets delivered — and neither
// the front's stages and waits nor the commit's stages sum past the one
// follow.run_ns observation.
// Drift and the store add no mining work either: every miner counter of the
// durable drift run equals that of a plain run with neither.
func TestInstrumentsNeverPerturb(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	var dirXML bytes.Buffer
	if err := topology().Directory().Write(&dirXML); err != nil {
		t.Fatal(err)
	}
	dir := writeFile(t, "directory.xml", dirXML.Bytes())
	frontTimers := []string{"mine", "snapshot", "commit_wait"}
	commitTimers := []string{"render", "store", "delta", "drift", "checkpoint", "progress"}
	minerCounter := func(name string) bool {
		return strings.HasPrefix(name, "l1.") || strings.HasPrefix(name, "l2.") || strings.HasPrefix(name, "l3.")
	}

	type artifacts struct {
		out, err, ckpt string
		store          map[string]string
	}
	for _, method := range []string{"l1", "l2", "l3"} {
		methodConfig := func(reg *obs.Registry) Config {
			cfg := config(src)
			cfg.Method, cfg.MinLogs, cfg.Metrics = method, 4, reg
			if method == "l3" {
				cfg.Directory = dir
			}
			return cfg
		}
		plain := obs.New()
		run(t, methodConfig(plain))
		minerCounters := plain.Snapshot().Counters
		for name := range minerCounters {
			if !minerCounter(name) {
				delete(minerCounters, name)
			}
		}
		if len(minerCounters) == 0 {
			t.Fatalf("%s: the plain run counted no mining work", method)
		}

		var want artifacts
		for i, reg := range []*obs.Registry{nil, obs.New(), obs.NewWithClock(obs.SystemClock)} {
			cfg := methodConfig(reg)
			cfg.Drift = true
			cfg = durable(t, cfg, t.TempDir())
			res, out, errb := run(t, cfg)
			ckpt, err := os.ReadFile(cfg.ResumePath)
			if err != nil {
				t.Fatal(err)
			}
			got := artifacts{string(out), string(errb), string(ckpt), storeFiles(t, cfg.Store.Dir())}
			if i == 0 {
				want = got
				if len(out) == 0 || len(errb) == 0 || len(got.store) < 2 {
					t.Fatalf("%s: the reference run left %d/%d bytes and %d store files", method, len(out), len(errb), len(got.store))
				}
				continue
			}
			if got.out != want.out || got.err != want.err || got.ckpt != want.ckpt {
				t.Errorf("%s, registry %d: stdout, stderr or checkpoint differ from the unmetered run's", method, i)
			}
			if len(got.store) != len(want.store) {
				t.Errorf("%s, registry %d: %d store files, want %d", method, i, len(got.store), len(want.store))
			}
			for name, b := range want.store {
				if got.store[name] != b {
					t.Errorf("%s, registry %d: store file %s differs from the unmetered run's", method, i, name)
				}
			}

			snap := reg.Snapshot()
			for name, v := range snap.Counters {
				if minerCounter(name) && v != minerCounters[name] {
					t.Errorf("%s, registry %d: %s = %d with drift and the store, %d without", method, i, name, v, minerCounters[name])
				}
			}
			for name := range minerCounters {
				if _, ok := snap.Counters[name]; !ok {
					t.Errorf("%s, registry %d: the durable drift run lacks %s", method, i, name)
				}
			}
			hists := snap.Histograms
			sum := func(stages []string) (n int64) {
				for _, st := range stages {
					h := hists["follow."+st+"_ns"]
					if h.Count != int64(res.Buckets) {
						t.Errorf("%s, registry %d: follow.%s_ns counts %d of %d buckets", method, i, st, h.Count, res.Buckets)
					}
					n += h.Sum
				}
				return n
			}
			// The front and its waits for the commit run on one goroutine,
			// the commit stages on another beside it: each side fits inside
			// the one follow.run_ns observation.
			frontSum, commitSum := sum(frontTimers), sum(commitTimers)
			whole := hists["follow.run_ns"]
			if whole.Count != 1 || frontSum > whole.Sum || commitSum > whole.Sum || (i == 1) != (whole.Sum == 0) {
				t.Errorf("%s, registry %d: the front and its waits sum to %d ns and the commit stages to %d ns inside follow.run_ns %+v",
					method, i, frontSum, commitSum, whole)
			}
		}
	}
}

// TestAdvanceReadsBackOnlyWhatCompactionNeeds: a fresh durable run with
// drift on reads no segment back. Raw→hour promotion writes the sealed
// granule's last record, which the store kept in memory when the granule
// sealed, and the locator on every DRIFT line comes from the granule in
// memory, so the advance path never re-reads what it just wrote. What a
// fresh run may read back is the hour→day and day→week merges, and one day
// holds none.
func TestAdvanceReadsBackOnlyWhatCompactionNeeds(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	for _, tc := range []struct {
		window  int
		compact bool
	}{{6, true}, {48, false}} {
		reg := obs.New()
		cfg := config(src)
		cfg.WindowBuckets, cfg.Drift, cfg.Metrics = tc.window, true, reg
		cfg = durable(t, cfg, t.TempDir())
		res, _, errb := run(t, cfg)
		if !bytes.Contains(errb, []byte(" segment=raw-")) {
			t.Fatalf("window %d: no located DRIFT line over %d buckets; the test wants change points", tc.window, res.Buckets)
		}
		read := reg.Counter("store.segments_read").Value()
		compactions := reg.Counter("store.compactions").Value()
		if (compactions > 0) != tc.compact {
			t.Fatalf("window %d: %d compactions over %d buckets", tc.window, compactions, res.Buckets)
		}
		for name := range storeFiles(t, cfg.Store.Dir()) {
			if strings.HasPrefix(name, "day-") || strings.HasPrefix(name, "week-") {
				t.Fatalf("window %d: %s merged hours within one day", tc.window, name)
			}
		}
		if read != 0 {
			t.Errorf("window %d: %d segments read back for %d compactions and no merge; want none", tc.window, read, compactions)
		}
	}
}

// newestGranule reads the newest raw granule of a store directory and
// returns its path, its bytes and where each complete frame starts.
func newestGranule(t *testing.T, dir string) (path string, data []byte, frames []int) {
	t.Helper()
	var newest string
	for name := range storeFiles(t, dir) {
		if strings.HasPrefix(name, "raw-") && name > newest {
			newest = name
		}
	}
	path = filepath.Join(dir, newest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 6; off+8 <= len(data); { // past the "LSEG" | version | level header
		next := off + 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if next > len(data) {
			break
		}
		frames, off = append(frames, off), next
	}
	return path, data, frames
}

// TestTornFrameResumes: a follower killed inside the store append of a
// bucket that joins its granule leaves the granule ending in an incomplete
// frame, beside the previous bucket's checkpoint. Cut at every byte offset
// inside that frame, the store a restarted host opens holds the granule cut
// back to the frame boundary. The run resumed from it — at a spread of those
// offsets, since what follows the open is a function of the repaired
// directory — leaves stdout, stderr, store and checkpoint equal to an
// uninterrupted run's.
func TestTornFrameResumes(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	ref := t.TempDir()
	_, wantOut, wantErr := run(t, durable(t, subHour(src), ref))
	wantCkpt, err := os.ReadFile(filepath.Join(ref, "follow.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	wantStore := storeFiles(t, filepath.Join(ref, "store"))

	// Bucket k's delta line fails after its record was appended: the state
	// a kill inside that append leaves, but for the tear cut in below.
	const k = 10
	torn, err1 := t.TempDir(), &failAt{k: k}
	var out1 bytes.Buffer
	if _, err := Run(durable(t, subHour(src), torn), &out1, err1); !errors.Is(err, errDiskFull) {
		t.Fatalf("Run = %v; want the writer's error", err)
	}
	ckpt, err := os.ReadFile(filepath.Join(torn, "follow.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	store := storeFiles(t, filepath.Join(torn, "store"))
	granule, data, frames := newestGranule(t, filepath.Join(torn, "store"))
	if len(frames) < 2 {
		t.Fatalf("bucket %d's record opened its granule; the test wants one appended as a frame", k)
	}
	last := frames[len(frames)-1]
	resumed := 0
	for cut := last + 1; cut < len(data); cut++ {
		if err := os.WriteFile(granule, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		durable(t, subHour(src), torn) // a restarted host opens the store
		if got, err := os.ReadFile(granule); err != nil || !bytes.Equal(got, data[:last]) {
			t.Fatalf("cut at %d: the reopened granule holds %d bytes, want the %d before the torn frame (%v)", cut, len(got), last, err)
		}
		if off := cut - last; off > 9 && off%((len(data)-last)/8) != 0 && cut != len(data)-1 {
			continue
		}
		resumed++
		state := t.TempDir()
		if err := os.Mkdir(filepath.Join(state, "store"), 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{"follow.ckpt": ckpt, filepath.Join("store", filepath.Base(granule)): data[:cut]}
		for name, b := range store {
			if name != filepath.Base(granule) {
				files[filepath.Join("store", name)] = []byte(b)
			}
		}
		for name, b := range files {
			if err := os.WriteFile(filepath.Join(state, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cfg := durable(t, subHour(src), state)
		_, out2, err2 := run(t, cfg)
		if got := rejoin(out1.Bytes(), out2, wantOut, true); !bytes.Equal(got, wantOut) {
			t.Errorf("cut at %d: killed+resumed documents differ from the uninterrupted run's (%d vs %d bytes)", cut, len(got), len(wantOut))
		}
		if got := append(err1.Bytes(), err2...); !bytes.Equal(got, wantErr) {
			t.Errorf("cut at %d: killed+resumed delta lines differ:\n%s\nvs\n%s", cut, got, wantErr)
		}
		if got, err := os.ReadFile(cfg.ResumePath); err != nil || !bytes.Equal(got, wantCkpt) {
			t.Errorf("cut at %d: the checkpoint differs from the uninterrupted run's (%v)", cut, err)
		}
		if got := storeFiles(t, cfg.Store.Dir()); !maps.Equal(got, wantStore) {
			t.Errorf("cut at %d: the store directory differs from the uninterrupted run's", cut)
		}
	}
	if resumed < 10 {
		t.Errorf("resumed at %d cuts inside a %d-byte frame; the test wants a spread", resumed, len(data)-last)
	}
}
