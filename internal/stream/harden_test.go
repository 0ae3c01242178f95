package stream

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// flakyReader yields scripted results: each step is either data or an error.
type flakyStep struct {
	data []byte
	err  error
}

type flakyReader struct {
	steps []flakyStep
	i     int
}

func (r *flakyReader) Read(p []byte) (int, error) {
	if r.i >= len(r.steps) {
		return 0, io.EOF
	}
	s := r.steps[r.i]
	r.i++
	if s.err != nil {
		return 0, s.err
	}
	return copy(p, s.data), nil
}

// gzBytes compresses s.
func gzBytes(t *testing.T, s string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTornGzipReader(t *testing.T) {
	payload := "hello\nworld\n"
	full := gzBytes(t, payload)

	t.Run("clean", func(t *testing.T) {
		g := NewTornGzipReader(bytes.NewReader(full), nil)
		got, err := io.ReadAll(g)
		if err != nil || string(got) != payload {
			t.Fatalf("got %q, %v; want full payload, nil", got, err)
		}
		if g.Torn() {
			t.Error("clean stream reported torn")
		}
	})
	t.Run("torn trailer", func(t *testing.T) {
		m := obs.New()
		g := NewTornGzipReader(bytes.NewReader(full[:len(full)-5]), m)
		got, err := io.ReadAll(g)
		if err != nil {
			t.Fatalf("torn stream surfaced %v, want clean EOF", err)
		}
		if !strings.HasPrefix(payload, string(got)) {
			t.Errorf("torn read %q is not a prefix of the payload", got)
		}
		if !g.Torn() || m.Counter("ingest.gz_torn").Value() != 1 {
			t.Error("tear not reported/counted")
		}
	})
	t.Run("torn inside header", func(t *testing.T) {
		g := NewTornGzipReader(bytes.NewReader(full[:3]), nil)
		got, err := io.ReadAll(g)
		if err != nil || len(got) != 0 || !g.Torn() {
			t.Fatalf("header tear: got %q, %v, torn=%v; want empty, nil, true", got, err, g.Torn())
		}
	})
	t.Run("empty input", func(t *testing.T) {
		g := NewTornGzipReader(bytes.NewReader(nil), nil)
		if _, err := io.ReadAll(g); err != nil {
			t.Fatalf("empty input: %v", err)
		}
	})
}

// wire renders one valid entry line at t millis.
func wire(ts logmodel.Millis, src, user, msg string) string {
	return logmodel.FormatEntry(logmodel.Entry{Time: ts, Source: src, Host: "h", User: user, Severity: logmodel.SevInfo, Message: msg})
}

func TestFeederClassifiesAndQuarantines(t *testing.T) {
	good1 := wire(1000, "A", "u", "one")
	good2 := wire(2500, "B", "u", "two")
	lateLine := wire(500, "C", "u", "too old")
	input := strings.Join([]string{
		good1,
		"garbage without tabs",
		"",
		good2, // closes bucket [1000,2000)
		lateLine,
	}, "\n") + "\n"

	m := obs.New()
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4, Metrics: m})
	var q bytes.Buffer
	f := NewFeeder(in, FeederConfig{Quarantine: &q, Metrics: m})
	if err := f.Run(strings.NewReader(input)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	in.Flush()

	s := f.Stats()
	if s.Lines != 4 || s.Malformed != 1 || s.Late != 1 || s.Corrupt != 0 {
		t.Errorf("stats = %+v, want Lines:4 Malformed:1 Late:1", s)
	}
	if got := in.Stats().Accepted; got != 2 {
		t.Errorf("accepted = %d, want 2", got)
	}
	wantQ := "malformed\tgarbage without tabs\n" + "late\t" + lateLine + "\n"
	if q.String() != wantQ {
		t.Errorf("quarantine:\n got %q\nwant %q", q.String(), wantQ)
	}
	if v := m.Counter("ingest.lines_malformed").Value(); v != 1 {
		t.Errorf("ingest.lines_malformed = %d, want 1", v)
	}
	if v := m.Counter("ingest.lines_quarantined").Value(); v != 2 {
		t.Errorf("ingest.lines_quarantined = %d, want 2", v)
	}
}

func TestFeederConsumedTracksProcessedLines(t *testing.T) {
	l1 := wire(1000, "A", "u", "one")
	l2 := wire(2500, "B", "u", "two")
	input := l1 + "\n" + l2 // no trailing newline

	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	var atAdvance []int64
	f := NewFeeder(in, FeederConfig{})
	in.OnAdvance = func(Bucket) { atAdvance = append(atAdvance, f.Consumed()) }
	if err := f.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if f.Consumed() != int64(len(input)) {
		t.Errorf("consumed = %d, want %d (full input)", f.Consumed(), len(input))
	}
	// The bucket closed while processing l2, so the checkpoint offset taken
	// inside OnAdvance must already cover l2 (it sits in pending).
	if len(atAdvance) != 1 || atAdvance[0] != int64(len(input)) {
		t.Errorf("consumed at OnAdvance = %v, want [%d]", atAdvance, len(input))
	}
}

func TestFeederOversizedLineIsDroppedNotBuffered(t *testing.T) {
	big := strings.Repeat("x", MaxLineBytes+1000)
	input := big + "\n" + wire(1000, "A", "u", "ok") + "\n"
	m := obs.New()
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	var q bytes.Buffer
	f := NewFeeder(in, FeederConfig{Quarantine: &q, Metrics: m})
	if err := f.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	in.Flush()
	if s := f.Stats(); s.Oversized != 1 {
		t.Errorf("oversized = %d, want 1", s.Oversized)
	}
	if got := in.Stats().Accepted; got != 1 {
		t.Errorf("accepted = %d, want 1 (the line after the oversized one)", got)
	}
	if f.Consumed() != int64(len(input)) {
		t.Errorf("consumed = %d, want %d", f.Consumed(), len(input))
	}
	if strings.Contains(q.String(), "x") {
		t.Error("oversized payload leaked into quarantine; only the class marker should be recorded")
	}
	if v := m.Counter("ingest.lines_oversized").Value(); v != 1 {
		t.Errorf("ingest.lines_oversized = %d, want 1", v)
	}
}

func TestFeederSplitReadsAndCRLF(t *testing.T) {
	line := wire(1000, "A", "u", "split across reads")
	input := line + "\r\n"
	// Deliver one byte at a time: line assembly must survive arbitrary
	// chunking (burst stalls cut reads at arbitrary points).
	var steps []flakyStep
	for i := 0; i < len(input); i++ {
		steps = append(steps, flakyStep{data: []byte{input[i]}})
	}
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	f := NewFeeder(in, FeederConfig{})
	if err := f.Run(&flakyReader{steps: steps}); err != nil {
		t.Fatal(err)
	}
	in.Flush()
	if got := in.Stats().Accepted; got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
}

// TestFeederSurfacesReadError pins what a transport's read error does: Run
// returns it unchanged, every complete line before it is ingested, and
// Consumed covers exactly those lines — a resume starts at the partial one.
func TestFeederSurfacesReadError(t *testing.T) {
	boom := errors.New("disk gone")
	done := wire(1000, "A", "u", "one") + "\n" + wire(1500, "B", "u", "two") + "\n"
	src := &flakyReader{steps: []flakyStep{
		{data: []byte(done)},
		{data: []byte(wire(1800, "C", "u", "torn"))[:10]},
		{err: boom},
	}}
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	f := NewFeeder(in, FeederConfig{})
	if err := f.Run(src); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the transport's error", err)
	}
	in.Flush()
	if got := in.Stats().Accepted; got != 2 {
		t.Errorf("accepted = %d, want 2 (the complete lines)", got)
	}
	if f.Consumed() != int64(len(done)) {
		t.Errorf("consumed = %d, want %d (the complete lines only)", f.Consumed(), len(done))
	}
}

// deadWriter fails every write.
type deadWriter struct{}

func (deadWriter) Write(p []byte) (int, error) { return 0, errors.New("quarantine disk full") }

func TestFeederQuarantineFailureDoesNotAbort(t *testing.T) {
	m := obs.New()
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	f := NewFeeder(in, FeederConfig{Quarantine: deadWriter{}, Metrics: m})
	input := "junk1\njunk2\n" + wire(1000, "A", "u", "ok") + "\n"
	if err := f.Run(strings.NewReader(input)); err != nil {
		t.Fatalf("a dead quarantine sink must not abort the stream: %v", err)
	}
	in.Flush()
	if got := in.Stats().Accepted; got != 1 {
		t.Errorf("accepted = %d, want 1", got)
	}
	if v := m.Counter("ingest.quarantine_errors").Value(); v != 1 {
		t.Errorf("quarantine_errors = %d, want 1 (sink disabled after first failure)", v)
	}
	if s := f.Stats(); s.Quarantined != 0 {
		t.Errorf("quarantined = %d, want 0 (no successful sink writes)", s.Quarantined)
	}
}
