package stream

import (
	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// IngestStats summarizes an ingestion run.
type IngestStats struct {
	// Accepted is the number of entries delivered (or pending delivery) in
	// a bucket.
	Accepted int
	// Late is the number of entries dropped because their bucket had
	// already closed. A centralized logging system delivers almost in
	// order (client-side buffering reorders within seconds, §4.2), so
	// anything older than the open bucket is treated as arrived-too-late
	// rather than reopening history.
	Late int
	// Corrupt is the number of entries dropped for timestamps outside
	// (−MaxAbsTime, MaxAbsTime).
	Corrupt int
	// Buckets is the number of closed buckets delivered.
	Buckets int
}

// freeSlices caps the recycled-slice pool (RecycleBuckets): large enough to
// hold one diurnal cycle's spread of bucket sizes for best-fit reuse, small
// enough that the idle pool after a sparse stretch stays negligible next to
// the window itself.
const freeSlices = 6

// Ingester consumes a log stream and turns it into the closed buckets the
// stream miners advance on. The first accepted entry fixes the stream
// origin: the bucket grid is aligned to floor(Time / BucketWidth), so
// bucket boundaries are absolute (independent of when ingestion started)
// and bucket index i spans [origin + i·width, origin + (i+1)·width).
//
// Entries arrive roughly time-ordered; within the open bucket any order is
// accepted (the bucket is stably sorted when it closes), entries for
// already-closed buckets are dropped and counted as Late. An entry beyond
// the open bucket closes it — empty buckets in between are skipped, not
// delivered (the miners retire by index gap), so a long quiet period costs
// O(1), not O(gap).
type Ingester struct {
	cfg    Config
	miners []Miner
	// OnAdvance, when non-nil, is called after every delivered bucket,
	// once all miners have advanced — the hook cmd/depmine's follow mode
	// prints snapshots from.
	OnAdvance func(b Bucket)

	started bool
	origin  logmodel.Millis // start of bucket 0
	cur     int64           // index of the open bucket
	open    bool            // an open bucket exists (false after Flush)
	pending []logmodel.Entry
	// pendHint predicts the next bucket's size — the capacity hint for its
	// entry slice, so a steady stream pays at most one allocation per bucket
	// instead of a growth series. While the window fills it is the size of
	// the last sealed bucket; once the window is full it is the size of the
	// next bucket's same-slot twin one window ago, which tracks periodic
	// (e.g. diurnal) load curves through both ramps. Sealed bucket slices
	// themselves are only recycled under Config.RecycleBuckets, and only
	// once they retire from the window: ownership transfers to the miners
	// and OnAdvance, which may retain them (see DESIGN.md §12).
	pendHint int
	// free holds retired bucket slices available for reuse (RecycleBuckets).
	free [][]logmodel.Entry
	// sorter orders each sealed bucket by time; its key buffer is reused,
	// so sorting a bucket allocates only when it outgrows every earlier one.
	sorter logmodel.TimeSorter

	win   []Bucket // delivered buckets still inside the window
	stats IngestStats

	// Metric instruments, resolved once at construction (nil-safe no-ops
	// without a registry); they mirror IngestStats plus the window gauges.
	mAccepted, mLate, mCorrupt, mBuckets *obs.Counter
	mWinBuckets, mWinEntries             *obs.Gauge
}

// NewIngester returns an ingester feeding the given miners.
func NewIngester(cfg Config, miners ...Miner) *Ingester {
	cfg = cfg.withDefaults()
	m := cfg.Metrics
	return &Ingester{
		cfg:         cfg,
		miners:      miners,
		mAccepted:   m.Counter("stream.entries_accepted"),
		mLate:       m.Counter("stream.entries_late"),
		mCorrupt:    m.Counter("stream.entries_corrupt"),
		mBuckets:    m.Counter("stream.buckets_closed"),
		mWinBuckets: m.Gauge("stream.window_buckets"),
		mWinEntries: m.Gauge("stream.window_entries"),
	}
}

// Verdict is the fate of one entry offered to Add: accepted into a bucket,
// or dropped with a fault class. The hardened ingest path (Feeder) uses it
// to route rejected raw lines to the quarantine sink with a reason.
type Verdict int

// Add verdicts.
const (
	// VerdictAccepted: the entry was placed into the open bucket.
	VerdictAccepted Verdict = iota
	// VerdictLate: the entry's bucket had already closed.
	VerdictLate
	// VerdictCorrupt: the entry's timestamp is outside (−MaxAbsTime, MaxAbsTime).
	VerdictCorrupt
)

// String names the verdict's fault class ("accepted", "late", "corrupt").
func (v Verdict) String() string {
	switch v {
	case VerdictLate:
		return "late"
	case VerdictCorrupt:
		return "corrupt"
	default:
		return "accepted"
	}
}

// Add consumes one entry and reports its fate.
func (in *Ingester) Add(e logmodel.Entry) Verdict {
	v := in.add(&e)
	switch v {
	case VerdictAccepted:
		in.mAccepted.Inc()
	case VerdictLate:
		in.mLate.Inc()
	case VerdictCorrupt:
		in.mCorrupt.Inc()
	}
	return v
}

// add is Add minus the metric-counter updates: the shared core that lets
// AddBatch coalesce the per-entry atomic increments into one Add per
// verdict class. IngestStats are updated here; only counters are deferred.
// The pointer parameter avoids re-copying the 80-byte Entry at every hop of
// the Feeder → Add → add → admit chain; *e is copied exactly once, by the
// append into the open bucket.
func (in *Ingester) add(e *logmodel.Entry) Verdict {
	if e.Time <= -MaxAbsTime || e.Time >= MaxAbsTime {
		in.stats.Corrupt++
		return VerdictCorrupt
	}
	if !in.started {
		in.started = true
		in.origin = floorAlign(e.Time, in.cfg.BucketWidth)
		in.cur = 0
		in.open = true
	}
	idx := int64((e.Time - in.origin) / in.cfg.BucketWidth)
	if e.Time < in.origin {
		idx = -1 // before the origin bucket; always late
	}
	switch {
	case idx < in.cur, idx == in.cur && !in.open:
		in.stats.Late++
		return VerdictLate
	case idx > in.cur:
		// Seal the closing bucket, admit the advancing entry into the new
		// bucket, and only then deliver: a checkpoint taken inside OnAdvance
		// must already cover this entry, because Feeder.Consumed — the offset
		// the checkpoint records — has already advanced past its line.
		sealed := in.seal()
		in.cur = idx
		in.open = true
		in.admit(e)
		in.deliver(sealed)
		return VerdictAccepted
	}
	in.admit(e)
	return VerdictAccepted
}

// admit places an accepted entry into the open bucket, sizing a fresh
// bucket's slice from the previous bucket's population.
func (in *Ingester) admit(e *logmodel.Entry) {
	if in.pending == nil {
		// Best-fit from the recycled pool: the smallest slice that can hold a
		// bucket of the hinted size. An undersized slice is never used — a
		// mid-bucket growth realloc costs an allocation plus a copy plus
		// clearing twice the capacity, so allocating fresh at the right size
		// is strictly cheaper. If nothing fits, the smallest pooled slice is
		// evicted so larger retiring buckets can enter the pool.
		best := -1
		for i := range in.free {
			if c := cap(in.free[i]); c >= in.pendHint &&
				(best < 0 || c < cap(in.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			last := len(in.free) - 1
			in.pending = in.free[best]
			in.free[best] = in.free[last]
			in.free[last] = nil
			in.free = in.free[:last]
		} else {
			if len(in.free) == freeSlices {
				sm := 0
				for i := range in.free {
					if cap(in.free[i]) < cap(in.free[sm]) {
						sm = i
					}
				}
				last := len(in.free) - 1
				in.free[sm] = in.free[last]
				in.free[last] = nil
				in.free = in.free[:last]
			}
			if in.pendHint > 0 {
				in.pending = make([]logmodel.Entry, 0, in.pendHint+in.pendHint/8)
			}
		}
	}
	in.pending = append(in.pending, *e)
	in.stats.Accepted++
}

// AddBatch consumes all entries of es and returns how many were accepted.
// Bucket assignment, delivery order, statistics and final counter values
// are identical to calling Add once per entry; the difference is purely
// mechanical — the common case (the entry lands in the open bucket) takes
// an inlined fast path, and the per-entry atomic metric increments are
// coalesced into one Add per verdict class.
func (in *Ingester) AddBatch(es []logmodel.Entry) int {
	var accepted, late, corrupt int64
	for i := range es {
		e := &es[i]
		if in.open && e.Time >= in.origin &&
			e.Time > -MaxAbsTime && e.Time < MaxAbsTime &&
			int64((e.Time-in.origin)/in.cfg.BucketWidth) == in.cur {
			in.admit(e)
			accepted++
			continue
		}
		switch in.add(e) {
		case VerdictAccepted:
			accepted++
		case VerdictLate:
			late++
		case VerdictCorrupt:
			corrupt++
		}
	}
	in.mAccepted.Add(accepted)
	in.mLate.Add(late)
	in.mCorrupt.Add(corrupt)
	return int(accepted)
}

// Flush closes and delivers the open bucket without waiting for an entry
// beyond it — the end-of-stream (or end-of-batch) signal. Further entries
// for the flushed bucket are late.
func (in *Ingester) Flush() {
	in.close()
}

// close seals and delivers the open bucket, if any.
func (in *Ingester) close() {
	in.deliver(in.seal())
}

// seal closes the open bucket — sorting its entries, appending it to the
// window, updating stats and gauges — without delivering it to miners yet.
// Returns nil if no bucket was open.
func (in *Ingester) seal() *Bucket {
	if !in.open {
		return nil
	}
	in.open = false
	// A near-in-order stream usually delivers each bucket already sorted,
	// and the sorter returns after one scan; a bucket reordered by per-host
	// clock skew is sorted in place with the ingester's own key buffer.
	in.sorter.Sort(in.pending)
	start := in.origin + logmodel.Millis(in.cur)*in.cfg.BucketWidth
	b := Bucket{
		Index:   in.cur,
		Range:   logmodel.TimeRange{Start: start, End: start + in.cfg.BucketWidth},
		Entries: in.pending,
	}
	in.pendHint = len(in.pending)
	in.pending = nil
	in.stats.Buckets++

	in.win = append(in.win, b)
	lo := b.Index - int64(in.cfg.WindowBuckets) + 1
	drop := 0
	for drop < len(in.win) && in.win[drop].Index < lo {
		drop++
	}
	if in.cfg.RecycleBuckets {
		// Buckets leaving the window surrender their entry slices as
		// scratch for future buckets. A new bucket consumes one slice, so
		// a small cap bounds the idle pool after a sparse stretch retires
		// several buckets at once. Zeroing a slice as it enters the pool
		// makes a consumer that kept it read empty entries at once, which
		// the equivalence suites catch, instead of stale ones later.
		for i := 0; i < drop && len(in.free) < freeSlices; i++ {
			clear(in.win[i].Entries)
			in.free = append(in.free, in.win[i].Entries[:0])
		}
	}
	in.win = in.win[drop:]
	if len(in.win) == in.cfg.WindowBuckets {
		// With a full window, the oldest in-window bucket is the next
		// bucket's same-slot twin one window ago — on periodic streams it
		// predicts ramp-ups the just-closed bucket cannot. Take the max of
		// both predictors: with best-fit recycling an over-prediction just
		// selects a roomier pooled slice, while an under-prediction costs a
		// mid-bucket growth realloc.
		if n := len(in.win[0].Entries); n > in.pendHint {
			in.pendHint = n
		}
	}

	in.mBuckets.Inc()
	in.mWinBuckets.Set(int64(len(in.win)))
	winEntries := int64(0)
	for i := range in.win {
		winEntries += int64(len(in.win[i].Entries))
	}
	in.mWinEntries.Set(winEntries)
	return &b
}

// deliver pushes a sealed bucket through the miners and OnAdvance.
func (in *Ingester) deliver(b *Bucket) {
	if b == nil {
		return
	}
	for _, m := range in.miners {
		m.Advance(*b)
	}
	if in.OnAdvance != nil {
		in.OnAdvance(*b)
	}
}

// Stats returns the ingestion statistics so far.
func (in *Ingester) Stats() IngestStats { return in.stats }

// WindowRange returns the time extent of the current window: the last
// WindowBuckets bucket ranges ending at the last delivered bucket (the
// open bucket is not part of the window). The zero range before any
// delivery.
func (in *Ingester) WindowRange() logmodel.TimeRange {
	if len(in.win) == 0 {
		return logmodel.TimeRange{}
	}
	last := in.win[len(in.win)-1]
	lo := last.Index - int64(in.cfg.WindowBuckets) + 1
	if lo < 0 {
		lo = 0
	}
	return logmodel.TimeRange{
		Start: in.origin + logmodel.Millis(lo)*in.cfg.BucketWidth,
		End:   last.Range.End,
	}
}

// WindowStore builds a sorted store holding exactly the window's entries —
// the reference corpus the miners' Snapshots must match batch mining over.
func (in *Ingester) WindowStore() *logmodel.Store {
	n := 0
	for i := range in.win {
		n += len(in.win[i].Entries)
	}
	s := logmodel.NewStore(n)
	for i := range in.win {
		s.AppendAll(in.win[i].Entries)
	}
	return s
}

// floorAlign rounds t down to a multiple of width (toward −∞, also for
// negative t, so the bucket grid is consistent across the epoch).
func floorAlign(t, width logmodel.Millis) logmodel.Millis {
	q := t / width
	if t%width != 0 && t < 0 {
		q--
	}
	return q * width
}
