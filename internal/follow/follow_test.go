package follow_test

// The engine's own suite covers what the suites above it (cmd/depmine,
// internal/daemon, the root equivalence tests) never execute: the .gz
// branch of the source stack and the decompressed-byte skip a resume over a
// .gz source repositions with, a stage that fails mid-run, and the stage
// histograms. Everything is pinned at the byte level against the plain-file
// run of the same corpus.

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"logscape/internal/follow"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
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
func config(source string) follow.Config {
	return follow.Config{Spec: follow.Spec{
		Method: "l2", Source: source, TimeoutSec: 1, Workers: 1,
		BucketSec: 3600, WindowBuckets: 6,
	}}
}

// durable is the host's part of a durable run: cfg checkpointing into state
// and appending to the store there, opened — as depmine and the daemon open
// it, once per run — with cfg's geometry and registry.
func durable(t *testing.T, cfg follow.Config, state string) follow.Config {
	t.Helper()
	store, err := cfg.OpenStore(filepath.Join(state, "store"), cfg.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ResumePath, cfg.Store = filepath.Join(state, "follow.ckpt"), store
	return cfg
}

// run executes one engine and returns its result, documents and delta lines.
func run(t *testing.T, cfg follow.Config) (follow.Result, []byte, []byte) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	res, err := follow.Run(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("follow.Run(%s): %v", cfg.Source, err)
	}
	return res, stdout.Bytes(), stderr.Bytes()
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

// failAtBucket is the fail-at-k arm of TestGzipStopResumeEveryBucket, run
// durable under a Wait hook that would keep tailing: stdout fails on
// document k, then stderr on delta line k. The run must end there like a
// kill — the error returned without tailing on, no later stage run for
// bucket k or any bucket after it — and a rerun from the checkpoint it left,
// with healthy writers, must continue with bucket k exactly as an
// uninterrupted run prints it: the stream that failed is then whole, byte
// for byte. (After a failed delta line document k — rendered a stage earlier
// — is on stdout twice, as after a kill between the two.)
//
// A failed delta line leaves bucket k's record in the store beside bucket
// k−1's checkpoint (at k = 1, the fresh run's empty one): the rerun
// re-appends it, and takes its first delta against the stored document of
// bucket k−1 — exact even where appending record k compacted the oldest
// bucket of window k−1 out of the store.
func failAtBucket(t *testing.T, plain string, k int, wantOut, wantErr []byte) {
	t.Helper()
	for _, failStderr := range []bool{false, true} {
		state, out1, err1 := t.TempDir(), &failAt{k: k}, &failAt{}
		if failStderr {
			out1, err1 = err1, out1
		}
		first := durable(t, config(plain), state)
		polls, fired := 0, 0
		first.Wait = func() bool { polls++; return polls < 50 }
		first.Progress = func(follow.Progress) { fired++ }
		res, err := follow.Run(first, out1, err1)
		if !errors.Is(err, errDiskFull) || res.Stopped {
			t.Fatalf("k=%d, stderr %v: Run = %+v, %v; want the writer's error and no clean stop", k, failStderr, res, err)
		}
		if polls > 1 || fired != k-1 {
			t.Errorf("k=%d, stderr %v: %d Wait polls and %d Progress calls after the failure; want at most 1 and exactly %d", k, failStderr, polls, fired, k-1)
		}
		if res.Entries == 0 || res.Buckets < k {
			t.Errorf("k=%d, stderr %v: failed run reports %+v; want its accounting up to the failure", k, failStderr, res)
		}
		cfg := durable(t, config(plain), state) // a restarted host: it opens the store again
		cp, err := stream.ReadCheckpointFile(cfg.ResumePath)
		if err != nil {
			t.Fatal(err)
		}
		if cp == nil || cp.Stats.Buckets != k-1 {
			t.Errorf("k=%d, stderr %v: checkpoint %+v is not bucket %d's", k, failStderr, cp, k-1)
		}
		// The store stage runs before the delta line, after the document.
		want := k - 1
		if failStderr {
			want = k
		}
		if recs, err := cfg.Store.Records(); err != nil || len(recs) != want {
			t.Errorf("k=%d, stderr %v: store holds %d records (%v); want %d", k, failStderr, len(recs), err, want)
		}

		_, out2, err2 := run(t, cfg)
		gotOut := append(out1.Bytes(), out2...)
		if twice := len(gotOut) - len(wantOut); failStderr && twice > 0 && twice <= len(out2) && bytes.HasSuffix(out1.Bytes(), out2[:twice]) {
			gotOut = append(out1.Bytes()[:out1.Len()-twice], out2...)
		}
		if !bytes.Equal(gotOut, wantOut) {
			t.Errorf("k=%d, stderr %v: failed+rerun documents differ from the uninterrupted run's (%d vs %d bytes)", k, failStderr, len(gotOut), len(wantOut))
		}
		if got := append(err1.Bytes(), err2...); !bytes.Equal(got, wantErr) {
			t.Errorf("k=%d, stderr %v: failed+rerun delta lines differ:\n%s\nvs\n%s", k, failStderr, got, wantErr)
		}
	}
}

// TestGzipStopResumeEveryBucket: a durable .gz run hard-stopped once k
// buckets are out, then resumed from its checkpoint (which skips the
// consumed prefix of the decompressed stream), prints exactly what the
// uninterrupted run prints — for every k, not a sample of stop points. So
// does a run ended at bucket k by a failing stage (failAtBucket).
func TestGzipStopResumeEveryBucket(t *testing.T) {
	data := corpus(t)
	src, plain := writeFile(t, "day.log.gz", gzipped(t, data)), writeFile(t, "day.log", data)
	ref, wantOut, wantErr := run(t, durable(t, config(src), t.TempDir()))

	stops := make(map[int]bool) // distinct bucket counts the stops landed on
	for k := 1; k < ref.Buckets; k++ {
		state := t.TempDir()

		// Stop is polled at read boundaries, so the run ends at the first
		// one after bucket k: with k or a few more buckets delivered.
		stopped := false
		first := durable(t, config(src), state)
		first.Progress = func(p follow.Progress) { stopped = stopped || p.Buckets >= k }
		first.Stop = func() bool { return stopped }
		res1, out1, err1 := run(t, first)
		if !res1.Stopped || res1.Buckets < k {
			t.Fatalf("k=%d: stopped=%v after %d buckets", k, res1.Stopped, res1.Buckets)
		}
		stops[res1.Buckets] = true

		_, out2, err2 := run(t, durable(t, config(src), state))
		if got := append(out1, out2...); !bytes.Equal(got, wantOut) {
			t.Errorf("k=%d: stopped+resumed documents differ from the uninterrupted run's (%d vs %d bytes)",
				k, len(got), len(wantOut))
		}
		if got := append(err1, err2...); !bytes.Equal(got, wantErr) {
			t.Errorf("k=%d: stopped+resumed delta lines differ:\n%s\nvs\n%s", k, got, wantErr)
		}
		failAtBucket(t, plain, k, wantOut, wantErr)
	}
	// Several k share a read boundary in the quiet night hours; the busy
	// hours must still spread the stops out, or the loop tested one point.
	if len(stops) < ref.Buckets/2 {
		t.Errorf("stops landed on only %d distinct bucket counts of %d", len(stops), ref.Buckets)
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
	if _, err := follow.Run(durable(t, config(src), state), io.Discard, err1); !errors.Is(err, errDiskFull) {
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
	if _, err := follow.Run(durable(t, cfg, t.TempDir()), io.Discard, ref); err != nil {
		t.Fatal(err)
	}
	want := alerts(ref.Bytes())
	if len(want) < 5 {
		t.Fatalf("the corpus raised %d alerts; the test wants several", len(want))
	}
	for w := 1; w <= ref.writes; w++ {
		state, err1 := t.TempDir(), &failAt{k: w}
		if _, err := follow.Run(durable(t, cfg, state), io.Discard, err1); !errors.Is(err, errDiskFull) {
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
	res, err := follow.Run(config(writeFile(t, "day.log.gz", bad)), &stdout, &stderr)
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
// loop times every stage of every bucket — stage counts equal the buckets
// delivered, and the stage sums fit inside the one follow.run_ns observation.
// Drift and the store add no mining work either: every miner counter of the
// durable drift run equals that of a plain run with neither.
func TestInstrumentsNeverPerturb(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	var dirXML bytes.Buffer
	if err := topology().Directory().Write(&dirXML); err != nil {
		t.Fatal(err)
	}
	dir := writeFile(t, "directory.xml", dirXML.Bytes())
	stages := []string{"mine", "snapshot", "render", "store", "delta", "drift", "checkpoint", "progress"}
	minerCounter := func(name string) bool {
		return strings.HasPrefix(name, "l1.") || strings.HasPrefix(name, "l2.") || strings.HasPrefix(name, "l3.")
	}

	type artifacts struct {
		out, err, ckpt string
		store          map[string]string
	}
	for _, method := range []string{"l1", "l2", "l3"} {
		methodConfig := func(reg *obs.Registry) follow.Config {
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
			var stageSum int64
			for _, st := range stages {
				h := hists["follow."+st+"_ns"]
				if h.Count != int64(res.Buckets) {
					t.Errorf("%s, registry %d: follow.%s_ns counts %d advances of %d buckets", method, i, st, h.Count, res.Buckets)
				}
				stageSum += h.Sum
			}
			whole := hists["follow.run_ns"]
			if whole.Count != 1 || stageSum > whole.Sum || (i == 1) != (whole.Sum == 0) {
				t.Errorf("%s, registry %d: stages sum to %d ns inside follow.run_ns %+v", method, i, stageSum, whole)
			}
		}
	}
}

// TestAdvanceReadsBackOnlyWhatCompactionNeeds: a durable run with drift on
// reads a segment back exactly once per compaction — the sealed granule a
// promotion folds — and not at all while no granule has left the window.
// The locator on every DRIFT line comes from the granule in memory, so the
// advance path never re-reads what it just wrote.
func TestAdvanceReadsBackOnlyWhatCompactionNeeds(t *testing.T) {
	src := writeFile(t, "day.log", corpus(t))
	for _, tc := range []struct {
		window  int
		compact bool
	}{{6, true}, {48, false}} {
		reg := obs.New()
		cfg := config(src)
		cfg.WindowBuckets, cfg.Drift, cfg.Metrics = tc.window, true, reg
		res, _, errb := run(t, durable(t, cfg, t.TempDir()))
		if !bytes.Contains(errb, []byte(" segment=raw-")) {
			t.Fatalf("window %d: no located DRIFT line over %d buckets; the test wants change points", tc.window, res.Buckets)
		}
		read := reg.Counter("store.segments_read").Value()
		compactions := reg.Counter("store.compactions").Value()
		if (compactions > 0) != tc.compact {
			t.Fatalf("window %d: %d compactions over %d buckets", tc.window, compactions, res.Buckets)
		}
		if read != compactions {
			t.Errorf("window %d: %d segments read back for %d compactions", tc.window, read, compactions)
		}
	}
}
