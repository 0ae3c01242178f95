package stream

import (
	"sort"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/drift"
	"logscape/internal/logmodel"
)

// L1Stream is the incremental L1 miner: each window bucket is one L1 time
// slot, and the per-slot pair-test outcomes are cached when the bucket
// enters the window. That caching is sound because a slot's outcomes are a
// function of the slot's entries and its absolute time range only — the
// test RNG is seeded from the slot's start time, not its position in the
// window — so sliding the window never changes an interior slot's
// outcomes. The window's per-pair (support, positive) counts are kept as
// one exact l1.Tally: a bucket's outcomes are added as it enters and
// removed as it retires, and Snapshot decides the tallied pairs against
// the window's slot count (O(pairs), not O(W·pairs); no re-mining).
type L1Stream struct {
	win window
	cfg l1.Config
	// outs holds one cached outcome list per non-empty window bucket, in
	// index order: what tally holds, kept to remove as its bucket retires.
	outs  []indexedOutcomes
	tally l1.Tally
	// trackDrift enables per-bucket drift features (see drift.go).
	trackDrift bool
	lastActive []string
}

type indexedOutcomes struct {
	index    int64
	outcomes []l1.SlotOutcome
}

// NewL1 builds a streaming L1 miner. The slot width is the window's bucket
// width; cfg.SlotWidth is overwritten accordingly (batch equivalence is
// against l1.Mine with the same slotting). cfg.Workers bounds the pair
// tests of an advancing bucket.
func NewL1(scfg Config, cfg l1.Config) *L1Stream {
	scfg = scfg.withDefaults()
	cfg.SlotWidth = scfg.BucketWidth
	return &L1Stream{win: window{cfg: scfg}, cfg: cfg}
}

// Advance mines the bucket as one slot, tallies its outcomes and
// un-tallies the buckets that left the window. Cost: one slot's pair tests
// — O(bucket), independent of W.
func (m *L1Stream) Advance(b Bucket) {
	m.win.observe(b)
	outcomes := l1.SlotOutcomes(b.Entries, b.Range, nil, m.cfg)
	if len(outcomes) > 0 {
		m.outs = append(m.outs, indexedOutcomes{index: b.Index, outcomes: outcomes})
		m.tally.Add(outcomes)
	}
	if m.trackDrift {
		m.lastActive = m.lastActive[:0]
		for _, o := range outcomes {
			if o.Positive {
				m.lastActive = append(m.lastActive, drift.PairKey(o.Pair.A, o.Pair.B))
			}
		}
		// Outcomes come in pair order, which is not the keys' string order
		// when a source name holds a byte below the separator's.
		sort.Strings(m.lastActive)
	}
	lo := m.win.lo()
	drop := 0
	for drop < len(m.outs) && m.outs[drop].index < lo {
		m.tally.Remove(m.outs[drop].outcomes)
		drop++
	}
	m.outs = m.outs[drop:]
}

// Snapshot decides the window's tallied pairs into its L1 model document.
// Never-supported pairs are not tallied, which cannot change the dependent
// set (an unsupported pair never clears the positive-ratio threshold) and
// hence not the document.
func (m *L1Stream) Snapshot() core.ModelDocument {
	return core.NewPairDocument("l1", m.tally.Dependent(m.win.buckets(), m.cfg), nil)
}

// Batch is the reference: batch-mine the store over the window range with
// the same configuration.
func (m *L1Stream) Batch(store *logmodel.Store, r logmodel.TimeRange) core.ModelDocument {
	res := l1.Mine(store, r, nil, m.cfg)
	return core.NewPairDocument("l1", res.DependentPairs(), nil)
}
