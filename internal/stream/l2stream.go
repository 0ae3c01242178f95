package stream

import (
	"sort"

	"logscape/internal/core"
	"logscape/internal/core/l2"
	"logscape/internal/drift"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
)

// L2Stream is the incremental L2 miner. Sessions span bucket boundaries, so
// the window state is a sessions.Tracker (per-user gap-free runs of which
// only the leading and trailing ones move) plus an l2.Counts bigram
// aggregation kept in sync through the tracker's session deltas: when a
// session grows at the tail or loses retired entries at the head, its old
// bigrams are removed and its new ones added — all counts are
// integer-valued, so the incremental aggregation stays structurally equal
// to a from-scratch tally of the window's sessions. Each bucket is mined
// once: Advance extracts every delta's bigrams a single time (drift
// features come from the same extraction), and the per-type association
// tests over the maintained counts run at most once per advanced bucket,
// their result shared by Snapshot and DriftFeatures.
type L2Stream struct {
	win     window
	cfg     l2.Config
	scfg    sessions.Config
	tracker *sessions.Tracker
	counts  *l2.Counts
	// res caches the association tests over counts; Advance clears it.
	res *l2.Result
	// users holds the distinct users of each window bucket, in index
	// order — the affected-user lists handed to Tracker.Retire so
	// retirement touches only the users of leaving buckets.
	users []bucketUsers
	// trackDrift enables per-bucket drift features (see drift.go).
	trackDrift bool
	lastActive []string
}

type bucketUsers struct {
	index int64
	users []string
}

// NewL2 builds a streaming L2 miner with the given session-creation and
// association configurations.
func NewL2(wcfg Config, scfg sessions.Config, cfg l2.Config) *L2Stream {
	if cfg.Timeout == 0 {
		// The incremental bigram extraction must use the same effective
		// timeout the association pass will; resolve the default once.
		cfg.Timeout = l2.DefaultConfig().Timeout
	}
	return &L2Stream{
		win:     window{cfg: wcfg.withDefaults()},
		cfg:     cfg,
		scfg:    scfg,
		tracker: sessions.NewTracker(scfg),
		counts:  l2.NewCounts(),
	}
}

// Advance retires the entries that left the window, appends the bucket's
// entries, and folds the resulting session deltas into the bigram counts.
// Cost: O(bucket + touched sessions) — interior sessions are never
// revisited.
func (m *L2Stream) Advance(b Bucket) {
	m.win.observe(b)
	m.res = nil

	// Retire everything before the new window start. Only users appearing
	// in the leaving buckets can be affected; collecting them from the
	// per-bucket lists (and sorting the union) keeps retirement both
	// O(bucket) and deterministic.
	lo := m.win.lo()
	cutoff := m.win.timeRange().Start
	drop := 0
	affected := make(map[string]bool)
	for drop < len(m.users) && m.users[drop].index < lo {
		for _, u := range m.users[drop].users {
			affected[u] = true
		}
		drop++
	}
	if drop > 0 {
		m.users = m.users[drop:]
		names := make([]string, 0, len(affected))
		for u := range affected {
			names = append(names, u)
		}
		sort.Strings(names)
		m.apply(m.tracker.Retire(cutoff, names), nil)
	}

	var grown map[string]bool
	if m.trackDrift {
		grown = make(map[string]bool)
	}
	m.apply(m.tracker.Append(b.Entries), grown)
	if m.trackDrift {
		m.lastActive = m.lastActive[:0]
		for k := range grown {
			m.lastActive = append(m.lastActive, k)
		}
		sort.Strings(m.lastActive)
	}
	if us := distinctUsers(b.Entries); len(us) > 0 {
		m.users = append(m.users, bucketUsers{index: b.Index, users: us})
	}
}

// apply folds session deltas into the bigram counts. When grown is non-nil
// it also collects the pair keys whose bigram activity grew: the multiset
// difference of each delta's added versus removed bigrams (a session
// re-emitted unchanged contributes nothing).
func (m *L2Stream) apply(ds []sessions.SessionDelta, grown map[string]bool) {
	timeout := m.cfg.Timeout
	for _, d := range ds {
		var removed []l2.Bigram
		if d.Removed != nil {
			removed = l2.ExtractBigrams(d.Removed, timeout)
			m.counts.Remove(removed)
		}
		if d.Added == nil {
			continue
		}
		added := l2.ExtractBigrams(d.Added, timeout)
		m.counts.Add(added)
		if grown == nil {
			continue
		}
		left := make(map[l2.Bigram]int, len(removed))
		for _, bg := range removed {
			left[bg]++
		}
		for _, bg := range added {
			if left[bg] > 0 {
				left[bg]--
				continue
			}
			grown[drift.PairKey(bg.First, bg.Second)] = true
		}
	}
}

// result runs the association tests over the maintained counts once per
// advanced bucket; Snapshot and DriftFeatures share it.
func (m *L2Stream) result() *l2.Result {
	if m.res == nil {
		m.res = l2.ResultFromCounts(m.counts, m.cfg)
	}
	return m.res
}

// Snapshot renders the window's L2 model document.
func (m *L2Stream) Snapshot() core.ModelDocument {
	return core.NewPairDocument("l2", m.result().DependentPairs(), nil)
}

// Batch is the reference: batch session creation and batch L2 mining over
// the store (restricted to r when non-zero).
func (m *L2Stream) Batch(store *logmodel.Store, r logmodel.TimeRange) core.ModelDocument {
	if r != (logmodel.TimeRange{}) {
		store = store.Filter(func(e *logmodel.Entry) bool { return r.Contains(e.Time) })
	}
	ss, _ := sessions.Build(store, m.scfg)
	res := l2.Mine(ss, m.cfg)
	return core.NewPairDocument("l2", res.DependentPairs(), nil)
}

// distinctUsers returns the sorted distinct non-empty users of es.
func distinctUsers(es []logmodel.Entry) []string {
	seen := make(map[string]bool)
	for i := range es {
		if u := es[i].User; u != "" {
			seen[u] = true
		}
	}
	out := make([]string, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}
