package follow

import (
	"fmt"
	"testing"

	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/stream"
)

// TestAppendStoreAllocsIndependentOfEntries: the store stage allocates the
// same number of objects for a 3,000-entry bucket as for a 100-entry one —
// the evidence is one arena and one slice of lines cut from it, not one
// allocation per entry.
func TestAppendStoreAllocsIndependentOfEntries(t *testing.T) {
	const width = logmodel.MillisPerHour
	store, err := modelstore.Open(t.TempDir(), modelstore.Config{BucketWidth: width, WindowBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{cfg: Config{Store: store}, doc: []byte("{}\n")}
	bucket := func(n int) stream.Bucket {
		b := stream.Bucket{Index: 7, Range: logmodel.TimeRange{Start: 7 * width, End: 8 * width}}
		for i := 0; i < n; i++ {
			b.Entries = append(b.Entries, logmodel.Entry{
				Time: b.Range.Start + logmodel.Millis(i), Source: "App", Host: "h", User: "u",
				Message: fmt.Sprintf("GET http://reg.hug/reg/list?page=%d", i),
			})
		}
		return b
	}
	// Re-appending one bucket index replaces the record, so every run
	// writes one granule holding one record.
	allocs := func(b stream.Bucket) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := e.appendStore(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	big := allocs(bucket(3000)) // first, so the engine's scratch is at its final size for both
	small := allocs(bucket(100))
	if big > small+2 { // the file writes underneath are not to the object
		t.Errorf("appendStore allocates %.0f objects for 3,000 entries and %.0f for 100", big, small)
	}
	recs, err := store.Records()
	if err != nil || len(recs) != 1 || len(recs[0].Evidence) != 100 {
		t.Fatalf("store holds %d records (%v); want the one re-appended bucket with its 100 lines", len(recs), err)
	}
}
