package stream

import (
	"math"
	"reflect"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
)

func at(t logmodel.Millis, src string) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: src, Host: "h"}
}

// collect wires a recording callback into a fresh ingester.
func collect(cfg Config) (*Ingester, *[]Bucket) {
	var out []Bucket
	in := NewIngester(cfg)
	in.OnAdvance = func(b Bucket) { out = append(out, b) }
	return in, &out
}

func TestIngesterBucketing(t *testing.T) {
	w := logmodel.Millis(1000)
	in, got := collect(Config{BucketWidth: w, WindowBuckets: 3})
	in.AddBatch([]logmodel.Entry{
		at(1500, "A"), // origin aligns to 1000; bucket 0 = [1000, 2000)
		at(1999, "B"),
		at(1400, "C"), // out of order within the open bucket: kept, sorted
		at(2000, "D"), // closes bucket 0
		at(900, "E"),  // before a closed bucket: late
		at(5500, "F"), // jumps over empty buckets 2..4 to bucket 4
	})
	in.Flush()

	if len(*got) != 3 {
		t.Fatalf("delivered %d buckets, want 3 (indexes 0, 1, 4)", len(*got))
	}
	b0, b1, b4 := (*got)[0], (*got)[1], (*got)[2]
	if b0.Index != 0 || b1.Index != 1 || b4.Index != 4 {
		t.Errorf("bucket indexes = %d, %d, %d; want 0, 1, 4", b0.Index, b1.Index, b4.Index)
	}
	if b0.Range != (logmodel.TimeRange{Start: 1000, End: 2000}) {
		t.Errorf("bucket 0 range = %+v, want [1000, 2000)", b0.Range)
	}
	wantOrder := []string{"C", "A", "B"}
	var order []string
	for _, e := range b0.Entries {
		order = append(order, e.Source)
	}
	if !reflect.DeepEqual(order, wantOrder) {
		t.Errorf("bucket 0 entry order = %v, want %v (stable time sort)", order, wantOrder)
	}
	if s := in.Stats(); s.Late != 1 || s.Accepted != 5 || s.Buckets != 3 {
		t.Errorf("stats = %+v, want Late:1 Accepted:5 Buckets:3", s)
	}
	// Window after the jump holds indexes ≥ 2, i.e. only bucket 4.
	if r := in.WindowRange(); r != (logmodel.TimeRange{Start: 3000, End: 6000}) {
		t.Errorf("window range = %+v, want [3000, 6000)", r)
	}
	if n := in.WindowStore().Len(); n != 1 {
		t.Errorf("window store has %d entries, want 1 (only bucket 4 remains)", n)
	}
}

// keeper is a miner that breaks the recycling contract: it keeps every
// delivered bucket's entry slice.
type keeper struct{ kept [][]logmodel.Entry }

func (k *keeper) Advance(b Bucket)             { k.kept = append(k.kept, b.Entries) }
func (k *keeper) Snapshot() core.ModelDocument { return core.ModelDocument{} }
func (k *keeper) Batch(*logmodel.Store, logmodel.TimeRange) core.ModelDocument {
	return core.ModelDocument{}
}

// TestRetiredSlicesAreZeroed pins the run-time half of the recycling
// contract (DESIGN.md §12): a consumer that keeps a bucket's slice reads
// zero entries as soon as the bucket retires into the pool, so a miner
// that retains one breaks stream ≡ batch at once instead of reading stale
// entries whenever the slice happens to be reused.
func TestRetiredSlicesAreZeroed(t *testing.T) {
	k := &keeper{}
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 2, RecycleBuckets: true}, k)
	in.AddBatch([]logmodel.Entry{
		at(100, "A"),  // bucket 0
		at(1100, "B"), // bucket 1
		// Bucket 2 outgrows bucket 0's slice, so the pool keeps it unused.
		at(2100, "C"), at(2200, "D"), at(2300, "E"),
		at(3100, "F"), // closes bucket 2: bucket 0 retires
	})
	if len(k.kept) != 3 {
		t.Fatalf("delivered %d buckets, want 3", len(k.kept))
	}
	if got := k.kept[0][0]; got != (logmodel.Entry{}) {
		t.Errorf("retired bucket 0 reads %+v through a kept slice, want the zero entry", got)
	}
	if got := k.kept[1][0].Source; got != "B" {
		t.Errorf("in-window bucket 1 reads source %q, want B", got)
	}
}

func TestIngesterFlushSemantics(t *testing.T) {
	in, got := collect(Config{BucketWidth: 1000, WindowBuckets: 4})
	in.Add(at(100, "A"))
	in.Flush()
	in.Add(at(200, "B")) // same bucket as the flushed one: late
	in.Flush()           // nothing open: no-op
	in.Add(at(1200, "C"))
	in.Flush()
	if len(*got) != 2 {
		t.Fatalf("delivered %d buckets, want 2", len(*got))
	}
	if s := in.Stats(); s.Late != 1 || s.Accepted != 2 {
		t.Errorf("stats = %+v, want Late:1 Accepted:2", s)
	}
}

func TestIngesterCorruptTimestamps(t *testing.T) {
	in, got := collect(Config{BucketWidth: 1000, WindowBuckets: 2})
	in.AddBatch([]logmodel.Entry{
		at(-MaxAbsTime, "A"),
		at(MaxAbsTime, "B"),
		at(MaxAbsTime-1, "C"), // just inside the bound: accepted
	})
	in.Flush()
	if s := in.Stats(); s.Corrupt != 2 || s.Accepted != 1 {
		t.Errorf("stats = %+v, want Corrupt:2 Accepted:1", s)
	}
	if len(*got) != 1 || len((*got)[0].Entries) != 1 {
		t.Fatalf("expected one bucket with the single accepted entry, got %+v", *got)
	}
}

func TestIngesterTimestampClampBoundaries(t *testing.T) {
	// Regression pin for the ±2^60 ms clamp: the accepted range is the open
	// interval (−MaxAbsTime, MaxAbsTime). The extremes of int64 must be
	// rejected too — bucket-index arithmetic on them would overflow.
	if MaxAbsTime != 1<<60 {
		t.Fatalf("MaxAbsTime = %d, want 1<<60; the boundary cases below pin that value", int64(MaxAbsTime))
	}
	cases := []struct {
		name string
		ts   logmodel.Millis
		want Verdict
	}{
		{"MinInt64", logmodel.Millis(math.MinInt64), VerdictCorrupt},
		{"MaxInt64", logmodel.Millis(math.MaxInt64), VerdictCorrupt},
		{"-2^60", -MaxAbsTime, VerdictCorrupt},
		{"+2^60", MaxAbsTime, VerdictCorrupt},
		{"-(2^60-1)", -(MaxAbsTime - 1), VerdictAccepted},
		{"+(2^60-1)", MaxAbsTime - 1, VerdictAccepted},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 2})
			if got := in.Add(at(tc.ts, "A")); got != tc.want {
				t.Errorf("Add(%d) = %v, want %v", int64(tc.ts), got, tc.want)
			}
		})
	}
}

func TestIngesterNegativeTimes(t *testing.T) {
	// The bucket grid must align toward −∞ so pre-epoch streams bucket
	// consistently.
	in, got := collect(Config{BucketWidth: 1000, WindowBuckets: 4})
	in.AddBatch([]logmodel.Entry{at(-1500, "A"), at(-400, "B"), at(600, "C")})
	in.Flush()
	if len(*got) != 3 {
		t.Fatalf("delivered %d buckets, want 3", len(*got))
	}
	if r := (*got)[0].Range; r != (logmodel.TimeRange{Start: -2000, End: -1000}) {
		t.Errorf("first bucket range = %+v, want [-2000, -1000)", r)
	}
	if r := in.WindowRange(); r != (logmodel.TimeRange{Start: -2000, End: 1000}) {
		t.Errorf("window range = %+v, want [-2000, 1000)", r)
	}
}

func TestWindowArithmetic(t *testing.T) {
	w := window{cfg: Config{BucketWidth: 10, WindowBuckets: 3}.withDefaults()}
	if n := w.buckets(); n != 0 {
		t.Errorf("empty window spans %d buckets, want 0", n)
	}
	w.observe(Bucket{Index: 0, Range: logmodel.TimeRange{Start: 0, End: 10}})
	if n, r := w.buckets(), w.timeRange(); n != 1 || r != (logmodel.TimeRange{Start: 0, End: 10}) {
		t.Errorf("warm-up window = %d buckets %+v, want 1 [0, 10)", n, r)
	}
	w.observe(Bucket{Index: 7, Range: logmodel.TimeRange{Start: 70, End: 80}})
	if n, r := w.buckets(), w.timeRange(); n != 3 || r != (logmodel.TimeRange{Start: 50, End: 80}) {
		t.Errorf("post-jump window = %d buckets %+v, want 3 [50, 80)", n, r)
	}
	defer func() {
		if recover() == nil {
			t.Error("observe accepted a non-increasing bucket index")
		}
	}()
	w.observe(Bucket{Index: 7})
}
