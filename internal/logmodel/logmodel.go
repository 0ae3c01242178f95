package logmodel

import (
	"fmt"
	"sort"
	"time"
)

// Millis is a point in time, in milliseconds since the Unix epoch — the
// resolution of the HUG logging system's client-side timestamp.
type Millis int64

// MillisPerSecond, MillisPerHour and MillisPerDay convert between units.
const (
	MillisPerSecond Millis = 1000
	MillisPerMinute        = 60 * MillisPerSecond
	MillisPerHour          = 60 * MillisPerMinute
	MillisPerDay           = 24 * MillisPerHour
)

// FromTime converts a time.Time to Millis.
func FromTime(t time.Time) Millis { return Millis(t.UnixMilli()) }

// Time converts m to a time.Time in UTC.
func (m Millis) Time() time.Time { return time.UnixMilli(int64(m)).UTC() }

// Seconds returns m as a floating-point number of seconds.
func (m Millis) Seconds() float64 { return float64(m) / 1000 }

// SecondsToMillis converts a duration in seconds to Millis, rounding to the
// nearest millisecond.
func SecondsToMillis(s float64) Millis { return Millis(s*1000 + 0.5) }

// Severity classifies a log entry. The mining techniques ignore it, but a
// realistic log stream carries it and the simulator emits all levels.
type Severity uint8

// Severity levels, from least to most severe.
const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
	SevError
)

var severityNames = [...]string{"DEBUG", "INFO", "WARN", "ERROR"}

// String returns the canonical upper-case name of the severity.
func (s Severity) String() string {
	if int(s) < len(severityNames) {
		return severityNames[s]
	}
	return fmt.Sprintf("SEV(%d)", uint8(s))
}

// Entry is one log message in the centralized logging system.
type Entry struct {
	// Time is the client-side creation timestamp (§4.2: the server-side
	// reception timestamp is unusable due to client-side buffering).
	Time Millis
	// Source identifies the emitting component — an application or service
	// module name. This is the only structured field approach L1 uses.
	Source string
	// Host is the client machine the entry originated from.
	Host string
	// User is the authenticated user on whose behalf the source was acting,
	// or empty for system activity. Together with Host it drives session
	// creation for approach L2.
	User string
	// Severity is the log level.
	Severity Severity
	// Message is the unstructured free-text part, mined by approach L3.
	Message string
}

// TimeRange is a half-open interval [Start, End) of Millis.
type TimeRange struct {
	Start, End Millis
}

// Contains reports whether t falls inside the range.
func (r TimeRange) Contains(t Millis) bool { return t >= r.Start && t < r.End }

// Duration returns End − Start.
func (r TimeRange) Duration() Millis { return r.End - r.Start }

// Hours splits the range into consecutive one-hour sub-ranges. A trailing
// partial hour is included.
func (r TimeRange) Hours() []TimeRange {
	return r.Split(MillisPerHour)
}

// Split splits the range into consecutive sub-ranges of the given width. A
// trailing partial range is included; an empty or inverted range yields nil.
func (r TimeRange) Split(width Millis) []TimeRange {
	if width <= 0 || r.End <= r.Start {
		return nil
	}
	var out []TimeRange
	for s := r.Start; s < r.End; s += width {
		e := s + width
		if e > r.End {
			e = r.End
		}
		out = append(out, TimeRange{Start: s, End: e})
	}
	return out
}

// Store is an in-memory collection of log entries with the indexes the
// miners need: the entries ordered by time and, per source, the ordered
// timestamp sequence (the "log sequences" A and B of §3.1).
//
// A Store is built by appending entries and then calling Sort (or by using
// Append on already-ordered input, which keeps the store sorted cheaply).
// The query methods require a sorted store and panic otherwise; this is a
// programming error, not an input error. The zero value is a valid empty
// store: an empty store is trivially sorted, so every miner invoked on it
// (or on an empty TimeRange) returns an empty-but-valid result.
type Store struct {
	entries []Entry
	// unsorted records that an out-of-order Append happened since the last
	// Sort. Inverted so the zero-value Store counts as sorted.
	unsorted bool
}

// NewStore returns an empty store with the given capacity hint.
func NewStore(capacity int) *Store {
	return &Store{entries: make([]Entry, 0, capacity)}
}

// Append adds an entry. Appending in non-decreasing time order keeps the
// store sorted; out-of-order appends mark it unsorted until Sort is called.
func (s *Store) Append(e Entry) {
	if n := len(s.entries); n > 0 && e.Time < s.entries[n-1].Time {
		s.unsorted = true
	}
	s.entries = append(s.entries, e)
}

// AppendAll adds all entries of es in one bulk append. Order is checked
// once per batch — the boundary against the current tail plus a single scan
// of es — instead of per-entry, so an already-unsorted store (or a store
// made unsorted by the batch) pays no further compares.
func (s *Store) AppendAll(es []Entry) {
	if len(es) == 0 {
		return
	}
	if !s.unsorted {
		n := len(s.entries)
		s.unsorted = n > 0 && es[0].Time < s.entries[n-1].Time || !timeOrdered(es)
	}
	s.entries = append(s.entries, es...)
}

// Len returns the number of entries.
func (s *Store) Len() int { return len(s.entries) }

// Sort orders the entries by time, keeping simultaneous entries in the
// order they were appended. It sorts through a TimeSorter, so the entries
// are permuted in place.
func (s *Store) Sort() {
	if !s.unsorted {
		return
	}
	var ts TimeSorter
	ts.Sort(s.entries)
	s.unsorted = false
}

// Sorted reports whether the store is currently time-ordered.
func (s *Store) Sorted() bool { return !s.unsorted }

func (s *Store) mustBeSorted() {
	if s.unsorted {
		panic("logmodel: store must be sorted; call Sort first")
	}
}

// Entries returns the store's entries. The slice is shared, not copied;
// callers must not modify it.
func (s *Store) Entries() []Entry {
	return s.entries
}

// Range returns the sub-slice of entries with Time in [r.Start, r.End).
// The result shares backing storage with the store.
func (s *Store) Range(r TimeRange) []Entry {
	s.mustBeSorted()
	lo := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Time >= r.Start })
	hi := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Time >= r.End })
	return s.entries[lo:hi]
}

// CountRange returns the number of entries in the time range.
func (s *Store) CountRange(r TimeRange) int { return len(s.Range(r)) }

// Span returns the time range covered by the store: [first, last+1ms).
// An empty store yields the zero range.
func (s *Store) Span() TimeRange {
	s.mustBeSorted()
	if len(s.entries) == 0 {
		return TimeRange{}
	}
	return TimeRange{Start: s.entries[0].Time, End: s.entries[len(s.entries)-1].Time + 1}
}

// Sources returns the distinct sources appearing in the store, sorted
// lexicographically.
func (s *Store) Sources() []string {
	seen := make(map[string]bool)
	for i := range s.entries {
		seen[s.entries[i].Source] = true
	}
	out := make([]string, 0, len(seen))
	for src := range seen {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// SourceIndexRange is SourceIndex restricted to a time range.
func (s *Store) SourceIndexRange(r TimeRange) map[string][]Millis {
	sub := s.Range(r)
	idx := make(map[string][]Millis)
	for i := range sub {
		e := &sub[i]
		idx[e.Source] = append(idx[e.Source], e.Time)
	}
	return idx
}

// ActivitySeries returns, for the given source, the number of logs per
// bucket of the given width across the range — the data behind figure 1 of
// the paper (logs per second for two interacting applications).
func (s *Store) ActivitySeries(source string, r TimeRange, bucket Millis) []int {
	if bucket <= 0 {
		panic("logmodel: ActivitySeries requires bucket > 0")
	}
	n := int((r.Duration() + bucket - 1) / bucket)
	if n <= 0 {
		return nil
	}
	counts := make([]int, n)
	for _, e := range s.Range(r) {
		if e.Source == source {
			counts[int((e.Time-r.Start)/bucket)]++
		}
	}
	return counts
}

// Filter returns a new store holding the entries satisfying pred, in the
// same order. The result is sorted iff the receiver is.
func (s *Store) Filter(pred func(*Entry) bool) *Store {
	out := NewStore(s.Len() / 2)
	for i := range s.entries {
		if pred(&s.entries[i]) {
			out.entries = append(out.entries, s.entries[i])
		}
	}
	out.unsorted = s.unsorted
	return out
}
