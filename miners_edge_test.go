package logscape_test

// Degenerate-input contract: every miner invoked on an empty store, an
// empty time range, a single-source stream, or a single entry must return
// an empty-but-valid result — initialized maps, callable accessors, no
// panics — rather than nil maps or sorted-store panics.

import (
	"testing"

	"logscape"
	"logscape/internal/baseline"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
)

// edgeStore builds a sorted store from entries (already time-ordered).
func edgeStore(entries ...logmodel.Entry) *logmodel.Store {
	s := logmodel.NewStore(len(entries))
	s.AppendAll(entries)
	s.Sort()
	return s
}

func edgeEntry(t logmodel.Millis, source, user, msg string) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: source, Host: "h1", User: user,
		Severity: logmodel.SevInfo, Message: msg}
}

func edgeDirectory() *directory.Directory {
	return &directory.Directory{Version: 1, Groups: []directory.Group{
		{ID: "GRPA", RootURL: "http://srv1:8080/a"},
	}}
}

func TestMinersDegenerateInputs(t *testing.T) {
	hour := logmodel.TimeRange{Start: 0, End: logmodel.MillisPerHour}
	cases := []struct {
		name  string
		store *logmodel.Store
		r     logmodel.TimeRange
	}{
		{"empty store, empty range", logmodel.NewStore(0), logmodel.TimeRange{}},
		{"empty store, hour range", logmodel.NewStore(0), hour},
		{"zero-value store", &logmodel.Store{}, hour},
		{"single entry", edgeStore(
			edgeEntry(1000, "AppA", "u1", "calling GRPA"),
		), hour},
		{"single source", edgeStore(
			edgeEntry(1000, "AppA", "u1", "one"),
			edgeEntry(2000, "AppA", "u1", "two"),
			edgeEntry(3000, "AppA", "u1", "three"),
			edgeEntry(4000, "AppA", "u1", "four"),
		), hour},
		{"two sources, empty mining range", edgeStore(
			edgeEntry(1000, "AppA", "u1", "one"),
			edgeEntry(2000, "AppB", "u1", "two"),
		), logmodel.TimeRange{Start: 5000, End: 5000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				// L1: result must have an initialized pair map.
				l1res := l1.Mine(tc.store, tc.r, nil, l1.Config{Workers: workers}) //lint:allow cfgzero degenerate-input test exercises package defaults
				if l1res.Pairs == nil {
					t.Error("l1: nil Pairs map")
				}
				if got := l1res.DependentPairs(); len(got) != 0 {
					t.Errorf("l1: %d dependent pairs from degenerate input", len(got))
				}

				// L2: session building and mining over whatever sessions
				// exist (typically none).
				ss, _ := sessions.Build(tc.store, sessions.Config{})
				l2res := l2.Mine(ss, l2.Config{Workers: workers}) //lint:allow cfgzero degenerate-input test exercises package defaults
				if l2res.Types == nil || l2res.Counts == nil || l2res.Counts.Joint == nil {
					t.Error("l2: nil result maps")
				}
				if got := l2res.DependentPairs(); len(got) != 0 {
					t.Errorf("l2: %d dependent pairs from degenerate input", len(got))
				}
				if hints := l2.DirectionHints(ss, l2res.DependentPairs(), logmodel.MillisPerSecond); hints == nil {
					t.Error("l2: nil direction hints")
				}

				// L3: evidence map must be initialized even with no entries.
				l3res := l3.NewMiner(edgeDirectory(), l3.Config{Workers: workers}).Mine(tc.store, tc.r) //lint:allow cfgzero degenerate-input test exercises package defaults
				if l3res.Evidence == nil {
					t.Error("l3: nil Evidence map")
				}
				if deps := l3res.Dependencies(); deps == nil {
					t.Error("l3: nil Dependencies set")
				}

				// Baseline: ordered map must be initialized; no pair can be
				// tested without two active sources in range.
				bres := baseline.Mine(tc.store, tc.r, nil, baseline.Config{Workers: workers}) //lint:allow cfgzero degenerate-input test exercises package defaults
				if bres.Ordered == nil {
					t.Error("baseline: nil Ordered map")
				}
				if got := bres.DependentPairs(); len(got) != 0 {
					t.Errorf("baseline: %d dependent pairs from degenerate input", len(got))
				}
			}
		})
	}
}

// TestZeroValueStoreUsable pins the fix for the zero-value Store: it must
// behave as a valid empty sorted store for every query the miners issue.
func TestZeroValueStoreUsable(t *testing.T) {
	var s logmodel.Store
	if !s.Sorted() {
		t.Error("zero-value store reports unsorted")
	}
	if s.Len() != 0 || len(s.Entries()) != 0 {
		t.Error("zero-value store not empty")
	}
	if got := s.Range(logmodel.TimeRange{Start: 0, End: 1000}); len(got) != 0 {
		t.Errorf("Range on zero-value store = %d entries", len(got))
	}
	if idx := s.SourceIndexRange(logmodel.TimeRange{Start: 0, End: 1000}); len(idx) != 0 {
		t.Errorf("SourceIndexRange on zero-value store = %d sources", len(idx))
	}
	if span := s.Span(); span != (logmodel.TimeRange{}) {
		t.Errorf("Span on zero-value store = %+v", span)
	}
	// In-order appends on a zero-value store must keep it sorted.
	s.Append(logmodel.Entry{Time: 1, Source: "a"})
	s.Append(logmodel.Entry{Time: 2, Source: "b"})
	if !s.Sorted() {
		t.Error("in-order appends on zero-value store left it unsorted")
	}
	// Out-of-order appends must still be detected and fixed by Sort.
	s.Append(logmodel.Entry{Time: 0, Source: "c"})
	if s.Sorted() {
		t.Error("out-of-order append not detected")
	}
	s.Sort()
	if !s.Sorted() || s.Entries()[0].Source != "c" {
		t.Error("Sort did not restore order")
	}
}

// TestEqualCountSlotsEmptyStore covers the adaptive-slotting helper on
// degenerate input.
func TestEqualCountSlotsEmptyStore(t *testing.T) {
	r := logmodel.TimeRange{Start: 0, End: logmodel.MillisPerHour}
	slots := l1.EqualCountSlots(logmodel.NewStore(0), r, 4)
	if len(slots) != 1 || slots[0] != r {
		t.Errorf("EqualCountSlots on empty store = %v", slots)
	}
	if got := l1.EqualCountSlots(logmodel.NewStore(0), r, 0); got != nil {
		t.Errorf("EqualCountSlots with n=0 = %v", got)
	}
}

// TestFacadeEmptyStore exercises the public facade on an empty stream.
func TestFacadeEmptyStore(t *testing.T) {
	store := logmodel.NewStore(0)
	res := logscape.MineL1(store, logscape.TimeRange{}, nil, logscape.L1Config{})
	if len(res.DependentPairs()) != 0 {
		t.Error("facade L1 mined pairs from nothing")
	}
	ss, stats := logscape.BuildSessions(store, logscape.SessionConfig{})
	if len(ss) != 0 || stats.Sessions != 0 {
		t.Error("facade sessions from empty store")
	}
}
