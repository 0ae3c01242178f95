package l3

import (
	"logscape/internal/core"
	"logscape/internal/directory"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/parallel"
)

// Config parameterizes the miner.
type Config struct {
	// Stops are the stop patterns (§3.3). Nil mines without stop patterns
	// (the ablation of §4.8, where inverted false positives rise from 2 to
	// 24).
	Stops []directory.StopPattern
	// MinCitations is the number of citing logs required per dependency
	// (default 1, the paper's rule).
	MinCitations int
	// SelfCitations, when true, keeps citations of groups owned by the
	// citing application itself. The paper's model excludes them (an
	// application does not "depend on" its own entry; such logs are
	// server-side echoes) — but the ablation without stop patterns needs
	// them visible.
	SelfCitations bool
	// Owner maps a group id to the application owning it; used to exclude
	// self-citations. May be nil when SelfCitations is true.
	Owner map[string]string
	// Workers bounds the scanning parallelism: the store's entry range is
	// cut into contiguous shards, each scanned by one worker, and the
	// per-shard citation evidence is merged in time (shard) order. 0
	// selects GOMAXPROCS, 1 forces the exact sequential path. Results are
	// identical for every setting.
	Workers int
	// Metrics, when non-nil, collects per-stage counters and timing
	// histograms (see internal/obs). Collection never changes the mined
	// model, and counter values are identical for every Workers setting.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's calibrated configuration with every
// threshold field set explicitly — the sanctioned base for call sites that
// only want to tune Workers (see the cfgzero analyzer). L3's only threshold
// is MinCitations; Stops and Owner stay nil because they are corpus-specific
// inputs, not thresholds.
func DefaultConfig() Config {
	return Config{MinCitations: 1}
}

// Evidence is the citation evidence for one mined dependency.
type Evidence struct {
	Pair core.AppServicePair
	// Count is the number of citing log entries.
	Count int
	// First and Last are the timestamps of the first and last citation.
	First, Last logmodel.Millis
	// Stopped is the number of additional citations that were suppressed
	// by stop patterns (diagnostic; suppressed citations do not count
	// toward Count).
	Stopped int
}

// Result is the mined model with evidence.
type Result struct {
	// Evidence holds the per-dependency citation evidence, keyed by pair.
	// Pairs whose Count is below MinCitations are retained for diagnostics
	// but excluded from Dependencies.
	Evidence map[core.AppServicePair]*Evidence
	// Config is the effective configuration.
	Config Config
}

// Dependencies returns the mined set of application → service
// dependencies.
func (r *Result) Dependencies() core.AppServiceSet {
	min := r.Config.MinCitations
	if min == 0 {
		min = 1
	}
	out := make(core.AppServiceSet)
	for p, ev := range r.Evidence {
		if ev.Count >= min {
			out[p] = true
		}
	}
	return out
}

// Miner is a reusable L3 miner for one directory and configuration; the
// citation scanner (an Aho–Corasick automaton over all group ids and URL
// fragments) is built once.
type Miner struct {
	cfg     Config
	scanner *directory.CitationScanner
}

// NewMiner builds a miner for the directory.
func NewMiner(dir *directory.Directory, cfg Config) *Miner {
	if cfg.MinCitations == 0 {
		cfg.MinCitations = 1
	}
	return &Miner{cfg: cfg, scanner: directory.NewCitationScanner(dir, cfg.Stops)}
}

// Mine scans all entries of the store (restricted to r when r is non-zero)
// and returns the mined model. The entry range is sharded across
// Config.Workers workers (the citation automaton is a read-only DFA, shared
// by all of them) and the per-shard evidence is merged in time order, so
// the result is identical for every worker count.
func (m *Miner) Mine(store *logmodel.Store, r logmodel.TimeRange) *Result {
	entries := store.Entries()
	if r != (logmodel.TimeRange{}) {
		entries = store.Range(r)
	}
	defer m.cfg.Metrics.Timer("l3.mine_ns")()
	res := &Result{Evidence: make(map[core.AppServicePair]*Evidence), Config: m.cfg}
	parts := parallel.MapShards(parallel.Workers(m.cfg.Workers), len(entries),
		obs.MeterShards(m.cfg.Metrics, "l3.scan_shards", func(lo, hi int) map[core.AppServicePair]*Evidence {
			return m.Scan(entries[lo:hi], nil)
		}))
	if len(parts) == 1 {
		res.Evidence = parts[0]
		return res
	}
	for _, part := range parts {
		MergeEvidence(res.Evidence, part)
	}
	return res
}

// Config returns the miner's effective configuration.
func (m *Miner) Config() Config { return m.cfg }

// Scan runs the sequential citation scan over one contiguous, time-ordered
// entry shard — the incremental unit of L3 state: per-bucket evidence maps
// folded in time order with MergeEvidence reproduce a sequential scan of
// the concatenated entries exactly. When times is non-nil, the same pass
// appends the timestamp of every counted citation to times[pair], in entry
// order; stopped and self-citations are skipped exactly as Count skips
// them, so len(times[p]) == Count and only pairs with Count > 0 get a key.
func (m *Miner) Scan(entries []logmodel.Entry, times map[core.AppServicePair][]logmodel.Millis) map[core.AppServicePair]*Evidence {
	// Scanned/citation counts are sums over entries, so sharding the entry
	// range cannot change them — they stay in the worker-count-independent
	// counter document.
	scanned := m.cfg.Metrics.Counter("l3.entries_scanned")
	cited := m.cfg.Metrics.Counter("l3.citations")
	stoppedC := m.cfg.Metrics.Counter("l3.stopped_citations")
	scanned.Add(int64(len(entries)))
	out := make(map[core.AppServicePair]*Evidence)
	for i := range entries {
		e := &entries[i]
		cits := m.scanner.Citations(e.Message)
		if cits == nil {
			continue
		}
		stopped := m.scanner.Stopped(e.Source, e.Message)
		for _, id := range cits {
			if !m.cfg.SelfCitations && m.cfg.Owner != nil && m.cfg.Owner[id] == e.Source {
				continue
			}
			p := core.AppServicePair{App: e.Source, Group: id}
			ev := out[p]
			if ev == nil {
				ev = &Evidence{Pair: p, First: e.Time, Last: e.Time}
				out[p] = ev
			}
			if stopped {
				ev.Stopped++
				stoppedC.Inc()
				continue
			}
			if ev.Count == 0 {
				ev.First = e.Time
			}
			ev.Count++
			cited.Inc()
			ev.Last = e.Time
			if times != nil {
				times[p] = append(times[p], e.Time)
			}
		}
	}
	return out
}

// MergeEvidence folds the evidence of a later shard into dst. Invariant of
// Scan: when Count > 0, First/Last span the counted citations; when
// Count == 0 (only stopped citations), First == Last == the first citation.
// Folding shards in time order preserves exactly that invariant, so the
// merged evidence matches a sequential scan field for field. src is never
// mutated and no *Evidence of src is retained in dst (inserts copy), so the
// streaming miner can fold the same per-bucket maps on every Snapshot.
func MergeEvidence(dst, src map[core.AppServicePair]*Evidence) {
	for p, sv := range src {
		dv := dst[p]
		if dv == nil {
			cp := *sv
			dst[p] = &cp
			continue
		}
		if sv.Count > 0 {
			if dv.Count == 0 {
				dv.First = sv.First
			}
			dv.Last = sv.Last
		}
		dv.Count += sv.Count
		dv.Stopped += sv.Stopped
	}
}
