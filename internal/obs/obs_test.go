package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"logscape/internal/obs"
	"logscape/internal/parallel"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *obs.Registry
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	r.Histogram("h").Observe(3)
	r.Timer("t")()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil WriteJSON produced invalid JSON: %q", buf.String())
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := obs.New()
	const goroutines, perG = 8, 10000
	parallel.Map(goroutines, goroutines, func(int) struct{} {
		c := r.Counter("shared")
		g := r.Gauge("level")
		h := r.Histogram("lat")
		for j := 0; j < perG; j++ {
			c.Inc()
			g.Add(1)
			h.Observe(int64(j))
		}
		return struct{}{}
	})
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("level").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	h := r.Snapshot().Histograms["lat"]
	if h.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	if h.Min != 0 || h.Max != perG-1 {
		t.Fatalf("histogram min/max = %d/%d, want 0/%d", h.Min, h.Max, perG-1)
	}
	var total int64
	for _, n := range h.Buckets {
		total += n
	}
	if total != h.Count {
		t.Fatalf("bucket sum = %d, want %d", total, h.Count)
	}
}

func TestSnapshotSortOrderStable(t *testing.T) {
	// Populate two registries with the same instruments in opposite
	// creation order; serialized snapshots must be byte-identical.
	names := []string{"zeta", "alpha", "mid", "beta"}
	fill := func(order []string) []byte {
		r := obs.New()
		for _, n := range order {
			r.Counter("c." + n).Add(int64(len(n)))
			r.Gauge("g." + n).Set(int64(len(n)))
			r.Histogram("h." + n).Observe(int64(len(n)))
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	fwd := fill(names)
	rev := make([]string, len(names))
	for i, n := range names {
		rev[len(names)-1-i] = n
	}
	if got := fill(rev); !bytes.Equal(fwd, got) {
		t.Fatalf("snapshot depends on creation order:\n%s\nvs\n%s", fwd, got)
	}
	// Keys must appear in sorted order in the raw bytes.
	doc := string(fwd)
	if strings.Index(doc, "c.alpha") > strings.Index(doc, "c.zeta") {
		t.Fatalf("counter keys not sorted:\n%s", doc)
	}
}

func TestCounterDocumentExcludesHistograms(t *testing.T) {
	r := obs.New()
	r.Counter("work").Add(3)
	r.Gauge("live").Set(2)
	r.Histogram("busy_ns").Observe(12345)
	b, err := r.CounterDocument()
	if err != nil {
		t.Fatalf("CounterDocument: %v", err)
	}
	if strings.Contains(string(b), "busy_ns") {
		t.Fatalf("counter document leaks histograms:\n%s", b)
	}
	if !strings.Contains(string(b), `"work": 3`) {
		t.Fatalf("counter document missing counter:\n%s", b)
	}
}

func TestTimerAndClocklessHistogram(t *testing.T) {
	var tick int64
	r := obs.NewWithClock(func() int64 { tick += 100; return tick })
	stop := r.Timer("phase_ns")
	stop()
	h := r.Snapshot().Histograms["phase_ns"]
	if h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("timed histogram = %+v", h)
	}

	// Without a clock, durations observe as zero but counts still tick.
	r2 := obs.New()
	r2.Timer("phase_ns")()
	h2 := r2.Snapshot().Histograms["phase_ns"]
	if h2.Count != 1 || h2.Sum != 0 {
		t.Fatalf("clockless histogram = %+v", h2)
	}
}

func TestMeterCountsItems(t *testing.T) {
	r := obs.New()
	fn := obs.Meter(r, "stage", func(i int) int { return i * i })
	out := parallel.Map(4, 100, fn)
	for i, v := range out {
		if v != i*i {
			t.Fatalf("meter changed result at %d: %d", i, v)
		}
	}
	if got := r.Counter("stage.items").Value(); got != 100 {
		t.Fatalf("stage.items = %d, want 100", got)
	}
	// Nil registry returns the function unchanged.
	base := func(i int) int { return i }
	if wrapped := obs.Meter[int](nil, "s", base); wrapped(7) != 7 {
		t.Fatal("nil-registry Meter broke the function")
	}
}

func TestMeterShardsKeepsNoCounter(t *testing.T) {
	r := obs.New()
	fn := obs.MeterShards(r, "shards", func(lo, hi int) int { return hi - lo })
	parallel.MapShards(4, 100, fn)
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatalf("MeterShards created counters: %v", s.Counters)
	}
	if s.Histograms["shards.busy_ns"].Count == 0 {
		t.Fatal("MeterShards recorded no busy time")
	}
}

func TestSystemClockMonotonic(t *testing.T) {
	a := obs.SystemClock()
	b := obs.SystemClock()
	if a < 0 || b < a {
		t.Fatalf("SystemClock not monotonic: %d then %d", a, b)
	}
}

func TestClassesCounters(t *testing.T) {
	r := obs.New()
	cs := obs.Classes(r, "ingest.lines_", "malformed", "oversized", "quarantined")
	if len(cs) != 3 {
		t.Fatalf("Classes returned %d counters, want 3", len(cs))
	}
	cs["malformed"].Add(2)
	cs["oversized"].Inc()
	if got := r.Counter("ingest.lines_malformed").Value(); got != 2 {
		t.Errorf("ingest.lines_malformed = %d, want 2", got)
	}
	if got := r.Counter("ingest.lines_oversized").Value(); got != 1 {
		t.Errorf("ingest.lines_oversized = %d, want 1", got)
	}
	if got := r.Counter("ingest.lines_quarantined").Value(); got != 0 {
		t.Errorf("ingest.lines_quarantined = %d, want 0", got)
	}
}

func TestClassesNilRegistry(t *testing.T) {
	cs := obs.Classes(nil, "x.", "a", "b")
	if len(cs) != 2 {
		t.Fatalf("Classes returned %d counters, want 2", len(cs))
	}
	cs["a"].Inc() // must be a safe no-op
	if got := cs["b"].Value(); got != 0 {
		t.Errorf("nil-registry counter value = %d, want 0", got)
	}
}
