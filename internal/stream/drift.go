package stream

// Per-bucket drift features. Each stream miner can expose the observables
// the drift detector (internal/drift) consumes for the bucket it last
// advanced over: the keys active in that bucket, per-key association-score
// levels, and per-key delay samples. Feature tracking is off by default —
// the ingest hot path stays allocation-free unless a caller opts in with
// TrackDrift(true) — and tracked features are a pure function of the
// delivered bucket, so they are identical for every worker count. They are
// read off the products of the bucket's one mining pass (L3's citation
// scan, L2's bigram extraction and association tests), so tracking adds
// no mining work and leaves every miner counter unchanged.

import "logscape/internal/drift"

// DriftFeatures are one bucket's drift observables. Active is sorted and
// deduplicated; keys use the drift package's canonical forms (PairKey for
// undirected pairs, DepKey for directed dependencies).
type DriftFeatures struct {
	// Active lists the keys present in the bucket.
	Active []string
	// Scores maps keys to their current association-score level (L2: the
	// maximum G² statistic over the pair's bigram types in the window).
	Scores map[string]float64
	// Delays maps keys to the bucket's delay samples in milliseconds (L3:
	// gaps between successive citations of the dependency).
	Delays map[string][]float64
}

// FeatureSource is implemented by stream miners that can expose drift
// features.
type FeatureSource interface {
	// TrackDrift enables or disables feature tracking for subsequent
	// Advance calls.
	TrackDrift(on bool)
	// DriftFeatures returns the features of the last advanced bucket. The
	// returned slices and maps are fresh copies.
	DriftFeatures() DriftFeatures
}

// TrackDrift implements FeatureSource.
func (m *L1Stream) TrackDrift(on bool) { m.trackDrift = on }

// DriftFeatures returns the positive pair outcomes of the last bucket.
func (m *L1Stream) DriftFeatures() DriftFeatures {
	return DriftFeatures{Active: append([]string(nil), m.lastActive...)}
}

// TrackDrift implements FeatureSource.
func (m *L2Stream) TrackDrift(on bool) { m.trackDrift = on }

// DriftFeatures returns the pairs with new bigram activity in the last
// bucket and the current window-level association scores of every bigram
// type (the level the score channel's CUSUM monitors).
func (m *L2Stream) DriftFeatures() DriftFeatures {
	f := DriftFeatures{Active: append([]string(nil), m.lastActive...)}
	res := m.result()
	f.Scores = make(map[string]float64, len(res.Types))
	for t, tr := range res.Types {
		if tr.Statistic < 0 {
			continue // Fisher records -p as a stand-in, not a level
		}
		key := drift.PairKey(t.First, t.Second)
		if tr.Statistic > f.Scores[key] {
			f.Scores[key] = tr.Statistic
		}
	}
	return f
}

// TrackDrift implements FeatureSource. Delays are recorded by the bucket's
// one citation scan.
func (m *L3Stream) TrackDrift(on bool) { m.trackDrift = on }

// DriftFeatures returns the dependencies cited in the last bucket and
// their citation-gap samples.
func (m *L3Stream) DriftFeatures() DriftFeatures {
	f := DriftFeatures{Active: append([]string(nil), m.lastActive...)}
	if len(m.lastDelays) > 0 {
		f.Delays = make(map[string][]float64, len(m.lastDelays))
		for k, v := range m.lastDelays {
			f.Delays[k] = append([]float64(nil), v...) //lint:allow maporder per-key sample copy; each slice's order comes from the scan, not the map
		}
	}
	return f
}
