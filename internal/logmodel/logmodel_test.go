package logmodel

import (
	"testing"
	"time"
)

func TestMillisConversions(t *testing.T) {
	ts := time.Date(2005, 12, 6, 8, 30, 15, 123e6, time.UTC)
	m := FromTime(ts)
	if got := m.Time(); !got.Equal(ts) {
		t.Errorf("round trip: %v != %v", got, ts)
	}
	if s := Millis(1500).Seconds(); s != 1.5 {
		t.Errorf("Seconds = %v", s)
	}
	if m := SecondsToMillis(1.5); m != 1500 {
		t.Errorf("SecondsToMillis = %v", m)
	}
	if m := SecondsToMillis(0.9999); m != 1000 {
		t.Errorf("SecondsToMillis rounding = %v", m)
	}
}

func TestSeverity(t *testing.T) {
	for _, s := range []Severity{SevDebug, SevInfo, SevWarn, SevError} {
		parsed, ok := parseSeverityBytes([]byte(s.String()))
		if !ok || parsed != s {
			t.Errorf("round trip %v: %v, %v", s, parsed, ok)
		}
	}
	if _, ok := parseSeverityBytes([]byte("TRACE")); ok {
		t.Error("unknown severity accepted")
	}
	if s := Severity(9).String(); s != "SEV(9)" {
		t.Errorf("unknown severity String = %q", s)
	}
}

func TestTimeRange(t *testing.T) {
	r := TimeRange{Start: 0, End: 3 * MillisPerHour}
	if !r.Contains(0) || r.Contains(3*MillisPerHour) || !r.Contains(MillisPerHour) {
		t.Error("Contains half-open semantics")
	}
	hours := r.Hours()
	if len(hours) != 3 {
		t.Fatalf("Hours = %d", len(hours))
	}
	if hours[1].Start != MillisPerHour || hours[1].End != 2*MillisPerHour {
		t.Errorf("hour 1 = %+v", hours[1])
	}
	// Partial trailing window.
	r2 := TimeRange{Start: 0, End: MillisPerHour + MillisPerMinute}
	if got := r2.Hours(); len(got) != 2 || got[1].Duration() != MillisPerMinute {
		t.Errorf("partial hours = %+v", got)
	}
	if got := (TimeRange{Start: 5, End: 5}).Hours(); got != nil {
		t.Errorf("empty range Hours = %v", got)
	}
	if got := r.Split(0); got != nil {
		t.Errorf("zero width Split = %v", got)
	}
}

func mkEntry(t Millis, src string) Entry {
	return Entry{Time: t, Source: src, Host: "h1", User: "u1", Severity: SevInfo, Message: "m"}
}

func TestStoreAppendSort(t *testing.T) {
	s := NewStore(0)
	if !s.Sorted() {
		t.Error("empty store should be sorted")
	}
	s.Append(mkEntry(10, "A"))
	s.Append(mkEntry(20, "B"))
	if !s.Sorted() {
		t.Error("in-order appends should stay sorted")
	}
	s.Append(mkEntry(5, "C"))
	if s.Sorted() {
		t.Error("out-of-order append should mark unsorted")
	}
	s.Sort()
	if !s.Sorted() || s.Entries()[0].Source != "C" {
		t.Errorf("after Sort: first = %+v", s.Entries()[0])
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestStoreAppendAll(t *testing.T) {
	// In-order batches (internally sorted, each starting at or after the
	// previous tail) must keep the store sorted.
	s := NewStore(0)
	s.AppendAll([]Entry{mkEntry(10, "A"), mkEntry(20, "B")})
	s.AppendAll(nil)
	s.AppendAll([]Entry{mkEntry(20, "C"), mkEntry(30, "D")})
	if !s.Sorted() {
		t.Error("in-order batches should stay sorted")
	}
	if s.Len() != 4 || s.Entries()[2].Source != "C" {
		t.Errorf("bulk append order wrong: len=%d entries=%+v", s.Len(), s.Entries())
	}

	// A batch starting before the store's tail must mark it unsorted.
	s.AppendAll([]Entry{mkEntry(5, "E")})
	if s.Sorted() {
		t.Error("batch starting before the tail should mark the store unsorted")
	}

	// Internal disorder inside one batch must mark it unsorted too.
	s2 := NewStore(0)
	s2.AppendAll([]Entry{mkEntry(10, "A"), mkEntry(5, "B"), mkEntry(20, "C")})
	if s2.Sorted() {
		t.Error("internally unsorted batch should mark the store unsorted")
	}
	s2.Sort()
	if s2.Entries()[0].Source != "B" || s2.Len() != 3 {
		t.Errorf("Sort after bulk append: %+v", s2.Entries())
	}

	// Equivalence with per-entry Append on a random interleaving.
	es := []Entry{mkEntry(3, "x"), mkEntry(1, "y"), mkEntry(2, "z"), mkEntry(1, "w")}
	bulk, single := NewStore(0), NewStore(0)
	bulk.AppendAll(es)
	for _, e := range es {
		single.Append(e)
	}
	bulk.Sort()
	single.Sort()
	for i := 0; i < single.Len(); i++ {
		if bulk.Entries()[i] != single.Entries()[i] {
			t.Fatalf("entry %d: bulk %+v vs single %+v", i, bulk.Entries()[i], single.Entries()[i])
		}
	}
}

func TestStoreSortStable(t *testing.T) {
	s := NewStore(0)
	s.Append(mkEntry(10, "first"))
	s.Append(mkEntry(10, "second"))
	s.Append(mkEntry(5, "zero"))
	s.Sort()
	if s.Entries()[1].Source != "first" || s.Entries()[2].Source != "second" {
		t.Error("Sort is not stable for equal timestamps")
	}
}

func TestStoreUnsortedPanics(t *testing.T) {
	s := NewStore(0)
	s.Append(mkEntry(10, "A"))
	s.Append(mkEntry(5, "B"))
	defer func() {
		if recover() == nil {
			t.Error("Range on unsorted store should panic")
		}
	}()
	s.Range(TimeRange{Start: 0, End: 100})
}

func TestStoreRange(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Append(mkEntry(Millis(i*10), "A"))
	}
	got := s.Range(TimeRange{Start: 20, End: 50})
	if len(got) != 3 {
		t.Fatalf("Range len = %d", len(got))
	}
	if got[0].Time != 20 || got[2].Time != 40 {
		t.Errorf("Range bounds: %v..%v", got[0].Time, got[2].Time)
	}
	if n := s.CountRange(TimeRange{Start: 0, End: 1000}); n != 10 {
		t.Errorf("CountRange = %d", n)
	}
	if n := s.CountRange(TimeRange{Start: 95, End: 99}); n != 0 {
		t.Errorf("empty CountRange = %d", n)
	}
}

func TestStoreSpan(t *testing.T) {
	s := NewStore(0)
	if sp := s.Span(); sp != (TimeRange{}) {
		t.Errorf("empty Span = %+v", sp)
	}
	s.Append(mkEntry(100, "A"))
	s.Append(mkEntry(200, "B"))
	sp := s.Span()
	if sp.Start != 100 || sp.End != 201 {
		t.Errorf("Span = %+v", sp)
	}
	if !sp.Contains(200) {
		t.Error("Span must contain the last entry")
	}
}

func TestStoreSources(t *testing.T) {
	s := NewStore(0)
	s.Append(mkEntry(1, "B"))
	s.Append(mkEntry(2, "A"))
	s.Append(mkEntry(3, "B"))
	got := s.Sources()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("Sources = %v", got)
	}
}

func TestSourceIndex(t *testing.T) {
	s := NewStore(0)
	s.Append(mkEntry(1, "A"))
	s.Append(mkEntry(2, "B"))
	s.Append(mkEntry(3, "A"))
	idx := s.SourceIndexRange(s.Span())
	if len(idx["A"]) != 2 || idx["A"][0] != 1 || idx["A"][1] != 3 {
		t.Errorf("SourceIndexRange over the span [A] = %v", idx["A"])
	}
	sub := s.SourceIndexRange(TimeRange{Start: 2, End: 4})
	if len(sub["A"]) != 1 || sub["A"][0] != 3 || len(sub["B"]) != 1 {
		t.Errorf("SourceIndexRange = %v", sub)
	}
}

func TestActivitySeries(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 10; i++ {
		s.Append(mkEntry(Millis(i*500), "A")) // one every 0.5 s
	}
	r := TimeRange{Start: 0, End: 5000}
	series := s.ActivitySeries("A", r, MillisPerSecond)
	if len(series) != 5 {
		t.Fatalf("series len = %d", len(series))
	}
	for i, c := range series {
		if c != 2 {
			t.Errorf("bucket %d = %d, want 2", i, c)
		}
	}
	if got := s.ActivitySeries("B", r, MillisPerSecond); len(got) != 5 || got[0] != 0 {
		t.Errorf("series for absent source = %v", got)
	}
	if got := s.ActivitySeries("A", TimeRange{Start: 5, End: 5}, MillisPerSecond); got != nil {
		t.Errorf("empty range series = %v", got)
	}
}

func TestActivitySeriesPanicsOnZeroBucket(t *testing.T) {
	s := NewStore(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.ActivitySeries("A", TimeRange{End: 10}, 0)
}

func TestFilter(t *testing.T) {
	s := NewStore(0)
	s.Append(mkEntry(1, "A"))
	s.Append(mkEntry(2, "B"))
	s.Append(mkEntry(3, "A"))
	fromA := func(e *Entry) bool { return e.Source == "A" }
	got := s.Filter(fromA)
	if got.Len() != 2 || got.Entries()[0].Time != 1 || got.Entries()[1].Time != 3 {
		t.Errorf("Filter by source = %+v", got.Entries())
	}
	if !got.Sorted() {
		t.Error("filtered store lost sortedness")
	}
	sev := s.Filter(func(e *Entry) bool { return e.Severity == SevInfo })
	if sev.Len() != 3 {
		t.Errorf("severity filter = %d", sev.Len())
	}
	// Filtering an unsorted store keeps it unsorted.
	u := NewStore(0)
	u.Append(mkEntry(5, "X"))
	u.Append(mkEntry(1, "X"))
	if u.Filter(func(*Entry) bool { return true }).Sorted() {
		t.Error("unsorted filter reported sorted")
	}
}
