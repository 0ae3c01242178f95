// Fixture for the recycleuse analyzer: pooled bucket slices must not be
// retained; element copies and aggregates stay quiet.
package a

import (
	"logscape/internal/logmodel"
	"logscape/internal/stream"
)

var savedEntries []logmodel.Entry
var savedBucket stream.Bucket

type miner struct {
	history [][]logmodel.Entry
	last    stream.Bucket
	total   int
}

// badKeepSlice retains the pooled Entries slice itself.
func (m *miner) badKeepSlice(b stream.Bucket) {
	m.history = append(m.history, b.Entries) // want `pooled bucket \(Config\.RecycleBuckets\) is retained via store through parameter m`
}

// badKeepBucket retains the whole bucket (carrying the pooled slice).
func (m *miner) badKeepBucket(b stream.Bucket) {
	m.last = b // want `pooled bucket .* is retained via store through parameter m`
}

// badGlobal retains the slice in a package-level variable.
func badGlobal(b stream.Bucket) {
	savedEntries = b.Entries // want `pooled bucket .* is retained via assignment to package-level variable savedEntries`
}

// stash is a helper that retains its argument; the analyzer summarizes it.
func stash(entries []logmodel.Entry) { // wantfact `param#0 escapes`
	savedEntries = entries
}

// badViaHelper retains the slice through an in-package helper.
func badViaHelper(b stream.Bucket) {
	stash(b.Entries) // want `pooled bucket .* is retained via call to stash`
}

// badPointer retains through a *Bucket parameter.
func badPointer(b *stream.Bucket) {
	savedBucket = *b // want `pooled bucket .* is retained via assignment to package-level variable savedBucket`
}

// goodCopy keeps a durable copy of the entries.
func (m *miner) goodCopy(b stream.Bucket) {
	m.history = append(m.history, append([]logmodel.Entry(nil), b.Entries...))
}

// goodAggregate consumes element copies — the sanctioned pattern.
func (m *miner) goodAggregate(b stream.Bucket) {
	for _, e := range b.Entries {
		if e.Severity >= logmodel.SevError {
			m.total++
		}
	}
}

// goodFrame retains the pointer-free frame of the bucket, not the slice.
func (m *miner) goodFrame(b stream.Bucket) {
	m.last = stream.Bucket{Index: b.Index, Range: b.Range}
}

// goodElement retains a single entry copy.
func goodElement(b stream.Bucket) {
	if len(b.Entries) > 0 {
		savedEntries = append(savedEntries, b.Entries[0])
	}
}
