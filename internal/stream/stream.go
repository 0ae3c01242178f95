package stream

import (
	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// MaxAbsTime bounds the timestamps the ingester accepts: entries outside
// (−MaxAbsTime, MaxAbsTime) are dropped as corrupt. The bound (≈ ±36 million
// years around the epoch) keeps every internal time computation — bucket
// indexing, window starts, retirement cutoffs — free of int64 overflow for
// any sane bucket configuration, which matters because the wire format
// happily parses arbitrary int64 timestamps (found while fuzzing the
// ingester with FuzzReadLogs corpus inputs).
const MaxAbsTime logmodel.Millis = 1 << 60

// Config parameterizes the sliding window. The zero value is replaced by
// defaults matching the batch miners' slotting: one-hour buckets, a
// 24-bucket (one day) window.
type Config struct {
	// BucketWidth is the width of one ingest bucket. It is also the L1 slot
	// width: the streaming L1 miner tests each bucket as one slot.
	BucketWidth logmodel.Millis
	// WindowBuckets is the number of buckets W the window spans.
	WindowBuckets int
	// Workers bounds the per-bucket mining parallelism (the L1 pair tests
	// of a closing bucket, the association tests of an L2 snapshot): 0
	// selects GOMAXPROCS, 1 forces the sequential path. Snapshots are
	// byte-identical for every setting.
	Workers int
	// Metrics, when non-nil, collects ingestion counters (entries accepted/
	// late/corrupt, buckets closed) and the window-occupancy gauges (see
	// internal/obs). Collection never changes delivered buckets or
	// snapshots.
	Metrics *obs.Registry
	// RecycleBuckets lets the ingester reuse the entry slices of buckets
	// that retired from the window as scratch for new buckets, removing the
	// dominant steady-state allocation of the ingest path. Opt-in because
	// it sharpens the Bucket ownership contract: with recycling on, every
	// consumer (miners, OnAdvance) must treat Bucket.Entries as invalid
	// once the bucket leaves the window. The ingester zeroes each slice as
	// it enters the pool, so a consumer that kept one reads zero entries
	// at once and the stream ≡ batch suites fail (DESIGN.md §12). The
	// built-in stream miners copy what they keep, so cmd/depmine enables
	// this. Delivered buckets and snapshots are byte-identical either way.
	RecycleBuckets bool
}

func (c Config) withDefaults() Config {
	if c.BucketWidth == 0 {
		c.BucketWidth = logmodel.MillisPerHour
	}
	if c.WindowBuckets == 0 {
		c.WindowBuckets = 24
	}
	return c
}

// Bucket is one closed ingest bucket: the entries of the half-open time
// range [Range.Start, Range.End), sorted by time (stable, preserving
// arrival order of simultaneous entries — the same order a batch
// logmodel.Store sort produces). Index counts buckets from the stream
// origin; indexes are strictly increasing across Advance calls but may
// jump, because empty buckets are never delivered.
type Bucket struct {
	Index   int64
	Range   logmodel.TimeRange
	Entries []logmodel.Entry
}

// Miner is an incremental miner over the sliding window.
//
// Advance feeds the next closed bucket; implementations retire all state
// older than WindowBuckets behind it (handling index jumps across empty
// buckets) in O(bucket) time. Snapshot returns the current window's model
// document; the contract is byte equivalence with Batch over a store
// holding exactly the window's entries. Batch runs the corresponding batch
// miner — the reference implementation Snapshot is tested against.
type Miner interface {
	Advance(b Bucket)
	Snapshot() core.ModelDocument
	Batch(store *logmodel.Store, r logmodel.TimeRange) core.ModelDocument
}

// window tracks the bucket arithmetic shared by the stream miners: the
// last delivered bucket and the derived window extent.
type window struct {
	cfg     Config
	started bool
	last    Bucket
}

// observe records a delivered bucket. Only the index and range are kept:
// retaining b whole would pin b.Entries, which the ingester recycles once
// the bucket retires from the window (Config.RecycleBuckets, DESIGN.md
// §12).
func (w *window) observe(b Bucket) {
	if w.started && b.Index <= w.last.Index {
		panic("stream: Advance requires strictly increasing bucket indexes")
	}
	w.started = true
	w.last = Bucket{Index: b.Index, Range: b.Range}
}

// lo returns the first bucket index still inside the window.
func (w *window) lo() int64 {
	lo := w.last.Index - int64(w.cfg.WindowBuckets) + 1
	if lo < 0 {
		lo = 0
	}
	return lo
}

// buckets returns the number of bucket slots the window currently spans
// (less than WindowBuckets during warm-up, 0 before the first bucket).
func (w *window) buckets() int {
	if !w.started {
		return 0
	}
	return int(w.last.Index - w.lo() + 1)
}

// timeRange returns the window's time extent [start of bucket lo, end of
// the last bucket).
func (w *window) timeRange() logmodel.TimeRange {
	if !w.started {
		return logmodel.TimeRange{}
	}
	end := w.last.Range.End
	return logmodel.TimeRange{
		Start: end - logmodel.Millis(w.buckets())*w.cfg.BucketWidth,
		End:   end,
	}
}
