package follow_test

// The engine's own suite covers what the suites above it (cmd/depmine,
// internal/daemon, the root equivalence tests) never execute: the .gz
// branch of the source stack and the decompressed-byte skip a resume over a
// .gz source repositions with. Everything is pinned at the byte level
// against the plain-file run of the same corpus.

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"logscape/internal/follow"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/stream"
)

// corpus is one simulated hospital day at 1/10 of the default volume
// (about 9k entries, 24 hourly buckets), in wire format.
func corpus(t *testing.T) []byte {
	t.Helper()
	cfg := hospital.DefaultConfig(1)
	cfg.Scale = 0.1
	cfg.Days = 1
	sim := hospital.NewSimulator(cfg, hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 1))
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
	return follow.Config{
		Method: "l2", Source: source, TimeoutSec: 1, Workers: 1,
		BucketSec: 3600, WindowBuckets: 6,
	}
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

	if plainRes.Ingest.Buckets < 20 {
		t.Fatalf("corpus closed %d buckets; the test wants a day's worth", plainRes.Ingest.Buckets)
	}
	if !bytes.Equal(gzOut, plainOut) {
		t.Errorf(".gz documents differ from the plain file's (%d vs %d bytes)", len(gzOut), len(plainOut))
	}
	if !bytes.Equal(gzErr, plainErr) {
		t.Errorf(".gz delta lines differ from the plain file's:\n%s\nvs\n%s", gzErr, plainErr)
	}
	if gzRes.TornGzip || gzRes.Ingest != plainRes.Ingest || gzRes.Feed != plainRes.Feed {
		t.Errorf(".gz accounting %+v differs from plain %+v", gzRes, plainRes)
	}
}

// TestGzipStopResumeEveryBucket: a .gz run hard-stopped once k buckets are
// out, then resumed from its checkpoint (which skips the consumed prefix of
// the decompressed stream), prints exactly what the uninterrupted run
// prints — for every k, not a sample of stop points.
func TestGzipStopResumeEveryBucket(t *testing.T) {
	src := writeFile(t, "day.log.gz", gzipped(t, corpus(t)))
	ref, wantOut, wantErr := run(t, config(src))

	stops := make(map[int]bool) // distinct bucket counts the stops landed on
	for k := 1; k < ref.Ingest.Buckets; k++ {
		cfg := config(src)
		cfg.ResumePath = filepath.Join(t.TempDir(), "follow.ckpt")

		// Stop is polled at read boundaries, so the run ends at the first
		// one after bucket k: with k or a few more buckets delivered.
		stopped := false
		first := cfg
		first.Progress = func(p follow.Progress) { stopped = stopped || p.Buckets >= k }
		first.Stop = func() bool { return stopped }
		res1, out1, err1 := run(t, first)
		if !res1.Stopped || res1.Ingest.Buckets < k {
			t.Fatalf("k=%d: stopped=%v after %d buckets", k, res1.Stopped, res1.Ingest.Buckets)
		}
		stops[res1.Ingest.Buckets] = true

		_, out2, err2 := run(t, cfg)
		if got := append(out1, out2...); !bytes.Equal(got, wantOut) {
			t.Errorf("k=%d: stopped+resumed documents differ from the uninterrupted run's (%d vs %d bytes)",
				k, len(got), len(wantOut))
		}
		if got := append(err1, err2...); !bytes.Equal(got, wantErr) {
			t.Errorf("k=%d: stopped+resumed delta lines differ:\n%s\nvs\n%s", k, got, wantErr)
		}
	}
	// Several k share a read boundary in the quiet night hours; the busy
	// hours must still spread the stops out, or the loop tested one point.
	if len(stops) < ref.Ingest.Buckets/2 {
		t.Errorf("stops landed on only %d distinct bucket counts of %d", len(stops), ref.Ingest.Buckets)
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
	if tornRes.Ingest.Buckets < 2 {
		t.Errorf("torn run delivered %d buckets; the prefix holds several", tornRes.Ingest.Buckets)
	}
	if tornRes.Ingest != plainRes.Ingest || tornRes.Feed != plainRes.Feed {
		t.Errorf("torn accounting %+v differs from the prefix's %+v", tornRes, plainRes)
	}
	if !bytes.Equal(tornOut, plainOut) || !bytes.Equal(tornErr, plainErr) {
		t.Errorf("torn .gz output differs from the decompressed prefix's (%d/%d vs %d/%d bytes)",
			len(tornOut), len(tornErr), len(plainOut), len(plainErr))
	}
}
