package follow

import (
	"bytes"
	"fmt"
	"testing"

	"logscape/internal/logmodel"
)

// TestAppendStoreAllocsIndependentOfEntries: the evidence the store stage
// appends — the entries the front copies out of the ingester's slice, and
// the lines the commit serializes them into — costs two allocations per
// bucket, for a 3,000-entry bucket as for a 100-entry one: one arena and
// one slice of lines cut from it, not one allocation per entry. Each line
// is the entry's wire form.
func TestAppendStoreAllocsIndependentOfEntries(t *testing.T) {
	entries := func(n int) []logmodel.Entry {
		es := make([]logmodel.Entry, n)
		for i := range es {
			es[i] = logmodel.Entry{
				Time: 7*logmodel.MillisPerHour + logmodel.Millis(i), Source: "App", Host: "h", User: "u",
				Message: fmt.Sprintf("GET http://reg.hug/reg/list?page=%d", i),
			}
		}
		return es
	}
	e := &engine{}
	allocs := func(es []logmodel.Entry) float64 {
		return testing.AllocsPerRun(20, func() { e.evidence(e.keep(es)) })
	}
	// The big bucket first, through both copy buffers, so that the engine's
	// buffers are at their final size for both measurements.
	big3000 := entries(3000)
	e.keep(big3000)
	big := allocs(big3000)
	small := allocs(entries(100))
	if big > 2 || small > 2 {
		t.Errorf("the evidence allocates %.0f objects for 3,000 entries and %.0f for 100; want 2", big, small)
	}
	es := entries(100)
	lines := e.evidence(e.keep(es))
	if len(lines) != len(es) {
		t.Fatalf("captured %d lines for %d entries", len(lines), len(es))
	}
	for i, l := range lines {
		if want := logmodel.AppendEntry(nil, es[i]); !bytes.Equal(l, want) {
			t.Fatalf("line %d is %q; want %q", i, l, want)
		}
	}
}
