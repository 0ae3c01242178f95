package stream

import (
	"sort"

	"logscape/internal/core"
	"logscape/internal/core/l3"
	"logscape/internal/drift"
	"logscape/internal/logmodel"
)

// L3Stream is the incremental L3 miner: the citation scan has no
// cross-entry state, so the window state is simply one evidence map per
// non-empty bucket. Advance scans only the new bucket, once, through the
// shared Aho–Corasick automaton of the wrapped batch miner — drift
// features come from the same scan; Snapshot folds the ≤ W per-bucket
// maps in time order with l3.MergeEvidence, which reproduces a sequential
// scan of the window exactly and never mutates the cached maps.
type L3Stream struct {
	win   window
	miner *l3.Miner
	evs   []indexedEvidence
	// trackDrift enables per-bucket drift features (see drift.go).
	trackDrift bool
	lastActive []string
	lastDelays map[string][]float64
}

type indexedEvidence struct {
	index    int64
	evidence map[core.AppServicePair]*l3.Evidence
}

// NewL3 builds a streaming L3 miner around a batch miner (directory
// automaton and configuration).
func NewL3(wcfg Config, miner *l3.Miner) *L3Stream {
	return &L3Stream{win: window{cfg: wcfg.withDefaults()}, miner: miner}
}

// Advance scans the bucket and retires buckets that left the window. While
// drift features are tracked, the same scan records each dependency's
// citation times, from which the bucket's features are built.
func (m *L3Stream) Advance(b Bucket) {
	m.win.observe(b)
	var times map[core.AppServicePair][]logmodel.Millis
	if m.trackDrift {
		times = make(map[core.AppServicePair][]logmodel.Millis)
	}
	ev := m.miner.Scan(b.Entries, times)
	if len(ev) > 0 {
		m.evs = append(m.evs, indexedEvidence{index: b.Index, evidence: ev})
	}
	if m.trackDrift {
		// times holds exactly the pairs counted in this bucket.
		m.lastActive = m.lastActive[:0]
		m.lastDelays = make(map[string][]float64)
		for p, ts := range times {
			key := drift.DepKey(p.App, p.Group)
			m.lastActive = append(m.lastActive, key)
			if len(ts) < 2 {
				continue
			}
			gaps := make([]float64, 0, len(ts)-1)
			for i := 1; i < len(ts); i++ {
				gaps = append(gaps, float64(ts[i]-ts[i-1])) //lint:allow maporder per-key gaps follow the scan's time order, not the map's
			}
			m.lastDelays[key] = gaps
		}
		sort.Strings(m.lastActive)
	}
	lo := m.win.lo()
	drop := 0
	for drop < len(m.evs) && m.evs[drop].index < lo {
		drop++
	}
	m.evs = m.evs[drop:]
}

// Snapshot folds the per-bucket evidence into the window's L3 model
// document.
func (m *L3Stream) Snapshot() core.ModelDocument {
	res := &l3.Result{Evidence: make(map[core.AppServicePair]*l3.Evidence), Config: m.miner.Config()}
	for i := range m.evs {
		l3.MergeEvidence(res.Evidence, m.evs[i].evidence)
	}
	return core.NewDepDocument("l3", res.Dependencies(), nil)
}

// Batch is the reference: batch-mine the store over the window range with
// the same miner.
func (m *L3Stream) Batch(store *logmodel.Store, r logmodel.TimeRange) core.ModelDocument {
	res := m.miner.Mine(store, r)
	return core.NewDepDocument("l3", res.Dependencies(), nil)
}
