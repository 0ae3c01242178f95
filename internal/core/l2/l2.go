package l2

import (
	"sort"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/parallel"
	"logscape/internal/sessions"
	"logscape/internal/stats"
)

// Measure selects the association statistic.
type Measure int

const (
	// MeasureG2 is Dunning's log-likelihood ratio (the paper's choice).
	MeasureG2 Measure = iota
	// MeasurePearson is Pearson's X² (ablation; misbehaves on skewed
	// tables).
	MeasurePearson
	// MeasureFisher is Fisher's exact test (one-sided) — the statistically
	// safe choice for small corpora where the asymptotic tests' expected
	// counts fall below a few per cell, at higher computational cost.
	MeasureFisher
)

// NoTimeout disables the bigram gap timeout (the paper's "infinity").
const NoTimeout logmodel.Millis = -1

// Config parameterizes the miner. The zero value is replaced by the §4.6
// settings.
type Config struct {
	// Timeout is the maximal gap between two logs forming a bigram
	// (default 1 s, the paper's best setting; NoTimeout disables it).
	Timeout logmodel.Millis
	// Alpha is the significance level of the association test (default
	// 0.05). Note that G² is extensive in the corpus size: at the paper's
	// volume (hundreds of logs per session, millions per day) systematic
	// co-occurrences reach huge statistics and the exact level hardly
	// matters; at reduced simulation scales a stricter level trades false
	// positives for recall (see the ablation benchmarks).
	Alpha float64
	// MinJoint is the minimum joint count O11 for a type to be considered
	// (default 3; guards the asymptotic test against one-off adjacencies).
	MinJoint float64
	// Measure selects the association statistic (default MeasureG2).
	Measure Measure
	// Workers bounds the mining parallelism (session sharding for bigram
	// counting and the per-type association pass): 0 selects GOMAXPROCS, 1
	// forces the exact sequential path. Results are identical for every
	// setting: all bigram counts are integers, so the shard-ordered merge
	// of partial contingency tables is exact.
	Workers int
	// Metrics, when non-nil, collects per-stage counters and timing
	// histograms (see internal/obs). Collection never changes the mined
	// model, and counter values are identical for every Workers setting.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's calibrated configuration with every
// threshold field set explicitly — the sanctioned base for call sites that
// only want to tune Workers (see the cfgzero analyzer).
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = logmodel.MillisPerSecond
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.MinJoint == 0 {
		c.MinJoint = 3
	}
	return c
}

// Bigram is a directed pair of immediately succeeding log sources.
type Bigram struct{ First, Second string }

// ExtractBigrams returns the bigrams of one session under the given
// timeout: consecutive entries with different sources whose gap does not
// exceed the timeout (§3.2; bigrams with a = b are ignored).
func ExtractBigrams(s *sessions.Session, timeout logmodel.Millis) []Bigram {
	var out []Bigram
	es := s.Entries
	for i := 1; i < len(es); i++ {
		if timeout >= 0 && es[i].Time-es[i-1].Time > timeout {
			continue
		}
		if es[i-1].Source == es[i].Source {
			continue
		}
		out = append(out, Bigram{First: es[i-1].Source, Second: es[i].Source})
	}
	return out
}

// Counts aggregates bigram occurrences over a session corpus.
type Counts struct {
	// Joint counts each bigram type.
	Joint map[Bigram]float64
	// First and Second are the marginal counts of each source in first,
	// respectively second, position.
	First, Second map[string]float64
	// Total is the number of bigrams.
	Total float64
}

// NewCounts returns an empty aggregation.
func NewCounts() *Counts {
	return &Counts{
		Joint:  make(map[Bigram]float64),
		First:  make(map[string]float64),
		Second: make(map[string]float64),
	}
}

// CountBigrams tallies the bigrams of all sessions under the timeout.
func CountBigrams(ss []sessions.Session, timeout logmodel.Millis) *Counts {
	c := NewCounts()
	for i := range ss {
		c.Add(ExtractBigrams(&ss[i], timeout))
	}
	return c
}

// Add tallies the given bigram occurrences. All counts are integer-valued
// floats, so repeated Add/Remove round trips are exact.
func (c *Counts) Add(bs []Bigram) {
	for _, b := range bs {
		c.Joint[b]++
		c.First[b.First]++
		c.Second[b.Second]++
		c.Total++
	}
}

// Remove untallies bigram occurrences previously added with Add. Keys whose
// count returns to zero are deleted, so an incrementally maintained Counts
// stays structurally identical (reflect.DeepEqual) to a from-scratch tally
// of the surviving sessions — the invariant the streaming miner's
// batch-equivalence contract rests on. Counts are integer-valued floats, so
// the zero test is exact.
func (c *Counts) Remove(bs []Bigram) {
	for _, b := range bs {
		c.Joint[b]--
		if c.Joint[b] == 0 { //lint:allow floateq integer-valued counts, subtraction is exact so the zero test is too
			delete(c.Joint, b)
		}
		c.First[b.First]--
		if c.First[b.First] == 0 { //lint:allow floateq integer-valued counts, subtraction is exact so the zero test is too
			delete(c.First, b.First)
		}
		c.Second[b.Second]--
		if c.Second[b.Second] == 0 { //lint:allow floateq integer-valued counts, subtraction is exact so the zero test is too
			delete(c.Second, b.Second)
		}
		c.Total--
	}
}

// CountBigramsParallel is CountBigrams over session shards: each of up to
// workers shards tallies its contiguous sub-slice of sessions, and the
// partial counts are summed in shard order. Counts are integer-valued, so
// the merged result equals the sequential one exactly; workers ≤ 1 runs
// CountBigrams unchanged.
func CountBigramsParallel(ss []sessions.Session, timeout logmodel.Millis, workers int) *Counts {
	return countBigramsMetered(ss, timeout, workers, nil)
}

// countBigramsMetered is CountBigramsParallel with per-shard busy-time
// collection (histograms only — the shard count depends on workers, so no
// counter may derive from it).
func countBigramsMetered(ss []sessions.Session, timeout logmodel.Millis, workers int, m *obs.Registry) *Counts {
	parts := parallel.MapShards(workers, len(ss),
		obs.MeterShards(m, "l2.count_shards", func(lo, hi int) *Counts {
			return CountBigrams(ss[lo:hi], timeout)
		}))
	if len(parts) == 0 {
		return CountBigrams(nil, timeout)
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		// Counts are integer-valued floats, so this fold is exact and
		// commutative; map-range merge order cannot change the result.
		for b, n := range p.Joint {
			merged.Joint[b] += n //lint:allow taintorder integer-valued counts, addition is exact and commutative
		}
		for s, n := range p.First {
			merged.First[s] += n //lint:allow taintorder integer-valued counts, addition is exact and commutative
		}
		for s, n := range p.Second {
			merged.Second[s] += n //lint:allow taintorder integer-valued counts, addition is exact and commutative
		}
		merged.Total += p.Total
	}
	return merged
}

// Table builds the 2×2 contingency table of a bigram type (figure 4 of the
// paper): O11 counts bigrams (A, B), O12 bigrams (A, ¬B), O21 (¬A, B), O22
// the rest.
func (c *Counts) Table(t Bigram) stats.ContingencyTable {
	o11 := c.Joint[t]
	r1 := c.First[t.First]
	c1 := c.Second[t.Second]
	return stats.ContingencyTable{
		O11: o11,
		O12: r1 - o11,
		O21: c1 - o11,
		O22: c.Total - r1 - c1 + o11,
	}
}

// TypeResult is the association outcome for one bigram type.
type TypeResult struct {
	Type  Bigram
	Table stats.ContingencyTable
	// Statistic is the association statistic (G² or X² per Config).
	Statistic float64
	// PValue is its asymptotic chi-squared (1 df) p-value.
	PValue float64
	// Positive reports attraction (O11 above expectation).
	Positive bool
	// Significant is the final per-type decision.
	Significant bool
}

// Result is the mined model.
type Result struct {
	// Types holds the per-bigram-type outcomes.
	Types map[Bigram]TypeResult
	// Counts is the underlying aggregation.
	Counts *Counts
	// Config is the effective configuration.
	Config Config
}

// DependentPairs returns the undirected union of significant types.
func (r *Result) DependentPairs() core.PairSet {
	out := make(core.PairSet)
	for t, tr := range r.Types {
		if tr.Significant {
			out[core.MakePair(t.First, t.Second)] = true
		}
	}
	return out
}

// Mine runs approach L2 over the session corpus. Sessions are sharded for
// bigram counting and the per-type association tests fan out over the same
// worker pool; results are identical for every Config.Workers setting.
func Mine(ss []sessions.Session, cfg Config) *Result {
	cfg = cfg.withDefaults()
	defer cfg.Metrics.Timer("l2.mine_ns")()
	cfg.Metrics.Counter("l2.sessions").Add(int64(len(ss)))
	counts := countBigramsMetered(ss, cfg.Timeout, parallel.Workers(cfg.Workers), cfg.Metrics)
	cfg.Metrics.Counter("l2.bigrams").Add(int64(counts.Total))
	return ResultFromCounts(counts, cfg)
}

// ResultFromCounts runs the per-type association tests over an existing
// bigram aggregation — the second half of Mine, split out so an
// incrementally maintained Counts (internal/stream) yields the exact model
// a batch run over the same corpus would. The tests fan out over
// Config.Workers; counts is retained in the result, not modified.
func ResultFromCounts(counts *Counts, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Types: make(map[Bigram]TypeResult), Counts: counts, Config: cfg}
	types := make([]Bigram, 0, len(counts.Joint))
	for t := range counts.Joint {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		if types[i].First != types[j].First {
			return types[i].First < types[j].First
		}
		return types[i].Second < types[j].Second
	})
	significant := int64(0)
	for _, tr := range parallel.Map(parallel.Workers(cfg.Workers), len(types),
		obs.Meter(cfg.Metrics, "l2.association_tests", func(i int) TypeResult {
			return testType(counts, types[i], cfg)
		})) {
		if tr.Significant {
			significant++
		}
		res.Types[tr.Type] = tr
	}
	cfg.Metrics.Counter("l2.significant_types").Add(significant)
	return res
}

// testType runs the configured association test on one bigram type.
func testType(counts *Counts, t Bigram, cfg Config) TypeResult {
	tab := counts.Table(t)
	tr := TypeResult{
		Type:     t,
		Table:    tab,
		Positive: stats.PositiveAssociation(tab),
	}
	switch cfg.Measure {
	case MeasurePearson:
		tr.Statistic = stats.PearsonX2(tab)
		tr.PValue = stats.ChiSquaredSF(tr.Statistic, 1)
	case MeasureFisher:
		one, _ := stats.FisherExact(tab)
		// The exact test is inherently one-sided toward attraction; use
		// the p-value directly and record it as the statistic's stand-in.
		tr.PValue = one
		tr.Statistic = -one
	default:
		tr.Statistic = stats.LogLikelihoodG2(tab)
		tr.PValue = stats.ChiSquaredSF(tr.Statistic, 1)
	}
	tr.Significant = tr.Positive && tab.O11 >= cfg.MinJoint && tr.PValue < cfg.Alpha
	return tr
}

// DirectionHint is the §5 heuristic's evidence for one dependent pair.
type DirectionHint struct {
	Pair core.Pair
	// AFirst counts the runs in which the first bigram of the pair's type
	// had Pair.A in first position; BFirst likewise for Pair.B.
	AFirst, BFirst int
}

// Caller returns the heuristic's guess for the invoking side, or "" when
// the evidence is balanced.
func (d DirectionHint) Caller() string {
	switch {
	case d.AFirst > d.BFirst:
		return d.Pair.A
	case d.BFirst > d.AFirst:
		return d.Pair.B
	default:
		return ""
	}
}

// DirectionHints applies the §5 direction heuristic to the given dependent
// pairs: sessions are cut into runs not interrupted by a pause of at least
// the timeout, and for each run the first adjacency of each pair votes for
// the source that appeared first.
func DirectionHints(ss []sessions.Session, pairs core.PairSet, timeout logmodel.Millis) map[core.Pair]DirectionHint {
	out := make(map[core.Pair]DirectionHint, len(pairs))
	for p := range pairs {
		out[p] = DirectionHint{Pair: p}
	}
	for i := range ss {
		es := ss[i].Entries
		runStart := 0
		for j := 1; j <= len(es); j++ {
			if j < len(es) && (timeout < 0 || es[j].Time-es[j-1].Time <= timeout) {
				continue
			}
			scoreRun(es[runStart:j], out)
			runStart = j
		}
	}
	return out
}

// scoreRun registers the first adjacency of every tracked pair in the run.
func scoreRun(es []logmodel.Entry, hints map[core.Pair]DirectionHint) {
	seen := make(map[core.Pair]bool)
	for i := 1; i < len(es); i++ {
		a, b := es[i-1].Source, es[i].Source
		if a == b {
			continue
		}
		p := core.MakePair(a, b)
		h, tracked := hints[p]
		if !tracked || seen[p] {
			continue
		}
		seen[p] = true
		if a == p.A {
			h.AFirst++
		} else {
			h.BFirst++
		}
		hints[p] = h
	}
}
