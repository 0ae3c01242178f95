package l1

import (
	"math/rand"
	"sort"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/parallel"
	"logscape/internal/stats"
)

// DistanceKind selects the distance definition used by the slot test.
type DistanceKind int

const (
	// DistNearest is the paper's distance: to the nearest arrival
	// (equation 1).
	DistNearest DistanceKind = iota
	// DistNext is Li & Ma's distance: to the next arrival.
	DistNext
)

// StatisticKind selects the location statistic the slot test compares.
type StatisticKind int

const (
	// StatMedian is the paper's choice: a robust order-statistics interval
	// for the median.
	StatMedian StatisticKind = iota
	// StatMean is Li & Ma's original choice: a Student-t interval for the
	// mean (sensitive to the heavy-tailed distance distributions of real
	// log streams; kept for the DESIGN.md §5 ablation).
	StatMean
)

// ReferenceKind selects the null model the candidate sample is compared
// against.
type ReferenceKind int

const (
	// RefUniform draws the random points uniformly over the slot — the
	// paper's homogeneous reference.
	RefUniform ReferenceKind = iota
	// RefTotalActivity draws the random points proportionally to the
	// overall log intensity (jittered resampling of all log timestamps in
	// the slot) — the paper's §5 suggestion for handling non-stationarity:
	// "instead of comparing the distance to B of logs in A with a
	// homogenous process, we could use a non-homogenous process whose
	// intensity is proportional to the total number of logs".
	RefTotalActivity
)

// Config parameterizes the miner. The zero value is replaced by the paper's
// §4.5 settings.
type Config struct {
	// SlotWidth is the width of the local test slots (default one hour,
	// giving n = 24 slots per day).
	SlotWidth logmodel.Millis
	// MinLogs is the minimum number of logs each application must have in
	// a slot for the slot to count (default 100; the paper's minlogs).
	MinLogs int
	// ThPr is the threshold on the ratio of positive slots (default 0.6).
	ThPr float64
	// ThS is the threshold on the support fraction s/n (default 0.3).
	ThS float64
	// Level is the confidence level of the per-slot median intervals
	// (default 0.95, as in §3.1).
	Level float64
	// SampleSize bounds both the random sample S_r and the subsample of B
	// (default 100 points per slot and direction).
	SampleSize int
	// Distance selects the distance definition (default DistNearest).
	Distance DistanceKind
	// TwoSided, when true, also accepts slots where B is significantly
	// *farther* from A than random (Li & Ma's two-sided test; ablation).
	TwoSided bool
	// Statistic selects the location statistic (default StatMedian).
	Statistic StatisticKind
	// Reference selects the null model (default RefUniform).
	Reference ReferenceKind
	// ReferenceJitter is the jitter applied to resampled timestamps when
	// Reference is RefTotalActivity (default 5 s).
	ReferenceJitter logmodel.Millis
	// Seed drives the random sampling.
	Seed int64
	// Workers bounds the slot-level mining parallelism: 0 selects
	// GOMAXPROCS, 1 forces the exact sequential path (for A/B testing).
	// Results are bit-identical for every setting.
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

// withDefaults fills zero fields with the paper's settings.
func (c Config) withDefaults() Config {
	if c.SlotWidth == 0 {
		c.SlotWidth = logmodel.MillisPerHour
	}
	if c.MinLogs == 0 {
		c.MinLogs = 100
	}
	if c.ThPr == 0 {
		c.ThPr = 0.6
	}
	if c.ThS == 0 {
		c.ThS = 0.3
	}
	if c.Level == 0 {
		c.Level = 0.95
	}
	if c.ReferenceJitter == 0 {
		c.ReferenceJitter = 5 * logmodel.MillisPerSecond
	}
	if c.SampleSize == 0 {
		c.SampleSize = 400
	}
	return c
}

// DirectionResult captures one direction of the per-slot test, with the
// data behind figure 2 of the paper (two boxplots with median confidence
// intervals).
type DirectionResult struct {
	// RandomSample and CandidateSample are the sorted distance samples S_r
	// and S_b, in seconds.
	RandomSample, CandidateSample []float64
	// RandomCI and CandidateCI are the median confidence intervals.
	RandomCI, CandidateCI stats.CI
	// Positive reports whether CandidateCI lies entirely below RandomCI.
	Positive bool
	// Farther reports whether CandidateCI lies entirely above RandomCI
	// (used by the two-sided variant).
	Farther bool
	// Valid reports whether both intervals could be computed.
	Valid bool
}

// DirectionTest performs one direction of the slot test: are the points of
// b closer to the sequence a than random points of the slot are? Both
// sequences must be sorted. The uniform reference is used; see
// DirectionTestRef for the non-homogeneous variant.
func DirectionTest(rng *rand.Rand, a, b []logmodel.Millis, slot logmodel.TimeRange, cfg Config) DirectionResult {
	return DirectionTestRef(rng, a, b, nil, slot, cfg)
}

// DirectionTestRef is DirectionTest with an explicit total-activity
// sequence for the RefTotalActivity reference (ignored under RefUniform;
// falls back to uniform when total is empty). It runs the kernel the miner
// runs, then sorts its two distance samples out into the result.
func DirectionTestRef(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) DirectionResult {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	res := s.direction(rng, a, b, total, slot, cfg.withDefaults())
	res.RandomSample, res.CandidateSample = sortedSeconds(nil, s.sr), sortedSeconds(nil, s.sb)
	return res
}

// SlotTest runs the test in both directions for one slot and reports
// whether the slot is positive (both directions positive, per §3.1: "the
// test ... is positive in both directions"), against the uniform reference.
func SlotTest(rng *rand.Rand, a, b []logmodel.Millis, slot logmodel.TimeRange, cfg Config) bool {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.slotTest(rng, a, b, nil, slot, cfg.withDefaults())
}

// PairResult is the slotted outcome for one application pair.
type PairResult struct {
	Pair core.Pair
	// Slots is the total number of slots n.
	Slots int
	// Support is the number s of slots where both applications reached
	// MinLogs.
	Support int
	// Positive is the number p of supported slots whose test was positive
	// in both directions.
	Positive int
	// Dependent is the final decision: pr ≥ ThPr and s/n ≥ ThS.
	Dependent bool
}

// Ratio returns pr = p/s, the ratio of positive tests among the supported
// slots (0 when the support is empty).
func (r PairResult) Ratio() float64 {
	if r.Support == 0 {
		return 0
	}
	return float64(r.Positive) / float64(r.Support)
}

// SupportFraction returns s/n.
func (r PairResult) SupportFraction() float64 {
	if r.Slots == 0 {
		return 0
	}
	return float64(r.Support) / float64(r.Slots)
}

// Result is the mined model over all application pairs.
type Result struct {
	// Pairs holds the per-pair outcomes, keyed by normalized pair.
	Pairs map[core.Pair]PairResult
	// Config is the effective configuration.
	Config Config
}

// DependentPairs returns the set of pairs declared dependent.
func (r *Result) DependentPairs() core.PairSet {
	out := make(core.PairSet)
	for p, pr := range r.Pairs {
		if pr.Dependent {
			out[p] = true
		}
	}
	return out
}

// sourceSeed derives the deterministic RNG seed of one (slot, source) draw
// — schedule v2: a slot draws once per eligible source, never per pair — so
// mining results do not depend on iteration order or parallel scheduling.
// The slot is identified by its absolute start time, not its index in the
// window: a slot's outcome is then a function of the slot's content alone,
// which lets the streaming miner (internal/stream) cache per-slot outcomes
// across window advances and still reproduce the batch result byte for
// byte.
func sourceSeed(base int64, slotStart logmodel.Millis, source string) int64 {
	// FNV-1a-64 (hash/fnv allocates a hasher per call) over the
	// little-endian base and slot start, then the source and a zero byte.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, w := range [2]uint64{uint64(base), uint64(slotStart)} {
		for i := 0; i < 64; i += 8 {
			h = (h ^ (w >> i & 0xff)) * prime64
		}
	}
	for i := 0; i < len(source); i++ {
		h = (h ^ uint64(source[i])) * prime64
	}
	return int64(h * prime64) // the zero byte: h ^ 0 is h
}

// EqualCountSlots divides the range into n slots holding approximately
// equal numbers of log entries — the simple adaptive-slotting strategy the
// paper's §5 suggests for the stationarity issue ("one could create time
// slots adaptively"): busy periods get shorter slots, quiet nights longer
// ones. The returned slots cover r exactly.
func EqualCountSlots(store *logmodel.Store, r logmodel.TimeRange, n int) []logmodel.TimeRange {
	if n <= 0 {
		return nil
	}
	entries := store.Range(r)
	if len(entries) == 0 {
		return []logmodel.TimeRange{r}
	}
	out := make([]logmodel.TimeRange, 0, n)
	per := len(entries) / n
	if per == 0 {
		per = 1
	}
	start := r.Start
	for i := per; i < len(entries); i += per {
		end := entries[i].Time
		if end <= start {
			continue
		}
		out = append(out, logmodel.TimeRange{Start: start, End: end})
		start = end
		if len(out) == n-1 {
			break
		}
	}
	out = append(out, logmodel.TimeRange{Start: start, End: r.End})
	return out
}

// Mine runs approach L1 over the given time range of the store. Sources
// lists the applications to consider (all store sources when nil). Slots
// are processed in parallel (Config.Workers); results are deterministic
// for a fixed Config.Seed regardless of worker count or scheduling.
func Mine(store *logmodel.Store, r logmodel.TimeRange, sources []string, cfg Config) *Result {
	return MineSlots(store, r.Split(cfg.withDefaults().SlotWidth), sources, cfg)
}

// MineSlots is Mine over an explicit slot partition (e.g. EqualCountSlots).
func MineSlots(store *logmodel.Store, slots []logmodel.TimeRange, sources []string, cfg Config) *Result {
	cfg = cfg.withDefaults()
	defer cfg.Metrics.Timer("l1.mine_ns")()
	if sources == nil {
		sources = store.Sources()
	}
	// Fan the slots out over the shared worker pool; outcome positions are
	// fixed by slot index, so the fold below is scheduling-independent. The
	// per-slot computation runs sequentially (inner Workers: 1) — the slots
	// themselves are the unit of parallelism here.
	inner := cfg
	inner.Workers = 1
	outcomes := parallel.Map(parallel.Workers(cfg.Workers), len(slots),
		obs.Meter(cfg.Metrics, "l1.slots", func(si int) []SlotOutcome {
			return SlotOutcomes(store.Range(slots[si]), slots[si], sources, inner)
		}))
	return FoldOutcomes(sources, len(slots), outcomes, cfg)
}

// SlotOutcome is the outcome of the per-slot test for one eligible pair —
// the unit of incremental L1 state: a slot's outcomes depend only on the
// slot's entries and the absolute slot range, never on the slot's position
// in the window.
type SlotOutcome struct {
	Pair     core.Pair
	Positive bool
}

// SlotOutcomes runs the slot test for every eligible pair of one slot over
// the slot's entries (which must be time-sorted and lie within the slot).
// sources restricts the applications considered; nil means every source
// appearing in the slot. The slot draws once per eligible source and tests
// every pair against those draws (schedule v2, DESIGN.md §5); both phases
// fan out over Config.Workers, and outcomes are returned in lexicographic
// pair order regardless of the worker count.
func SlotOutcomes(entries []logmodel.Entry, slot logmodel.TimeRange, sources []string, cfg Config) []SlotOutcome {
	cfg = cfg.withDefaults()
	idx := make(map[string][]logmodel.Millis)
	for i := range entries {
		e := &entries[i]
		idx[e.Source] = append(idx[e.Source], e.Time)
	}
	if sources == nil {
		sources = make([]string, 0, len(idx))
		for s := range idx {
			sources = append(sources, s)
		}
		sort.Strings(sources)
	}
	var eligible []string
	for _, s := range sources {
		if len(idx[s]) >= cfg.MinLogs {
			eligible = append(eligible, s)
		}
	}
	var total []logmodel.Millis
	if cfg.Reference == RefTotalActivity {
		total = make([]logmodel.Millis, len(entries))
		for k := range entries {
			total[k] = entries[k].Time
		}
	}
	// Phase 1, per eligible source: everything the slot draws.
	refs := parallel.Map(parallel.Workers(cfg.Workers), len(eligible),
		obs.Meter(cfg.Metrics, "l1.references", func(i int) sourceRef {
			s := scratchPool.Get().(*scratch)
			defer scratchPool.Put(s)
			s.rng.Seed(sourceSeed(cfg.Seed, slot.Start, eligible[i]))
			return s.drawSource(s.rng, idx[eligible[i]], total, slot, cfg)
		}))
	pairs := make([][2]int, 0, len(eligible)*(len(eligible)-1)/2)
	for i := range eligible {
		for j := i + 1; j < len(eligible); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	// Phase 2, per pair: both directions against the drawn references.
	positive := cfg.Metrics.Counter("l1.positive_slots")
	return parallel.Map(parallel.Workers(cfg.Workers), len(pairs),
		obs.Meter(cfg.Metrics, "l1.pair_tests", func(k int) SlotOutcome {
			i, j := pairs[k][0], pairs[k][1]
			s := scratchPool.Get().(*scratch)
			o := SlotOutcome{
				Pair: core.MakePair(eligible[i], eligible[j]),
				Positive: s.closer(refs[i].sub, &refs[j], cfg) && // distances of i's logs to j
					s.closer(refs[j].sub, &refs[i], cfg), // distances of j's logs to i
			}
			scratchPool.Put(s)
			if o.Positive {
				positive.Inc()
			}
			return o
		}))
}

// FoldOutcomes tallies per-slot outcome lists into the final Result: support
// and positive counts per pair, then the §3.1 threshold decision over slots
// total slots. sources, when non-nil, pre-initializes every pair so
// support/ratio diagnostics are well-defined even for never-supported pairs;
// the dependent set is unaffected (an unsupported pair never clears ThPr).
// The fold is pure integer tallying, so it is independent of the order in
// which equal outcome lists were produced.
func FoldOutcomes(sources []string, slots int, outcomes [][]SlotOutcome, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Pairs: make(map[core.Pair]PairResult), Config: cfg}
	for i := range sources {
		for j := i + 1; j < len(sources); j++ {
			p := core.MakePair(sources[i], sources[j])
			res.Pairs[p] = PairResult{Pair: p, Slots: slots}
		}
	}
	for _, out := range outcomes {
		for _, o := range out {
			pr, ok := res.Pairs[o.Pair]
			if !ok {
				pr = PairResult{Pair: o.Pair, Slots: slots}
			}
			pr.Support++
			if o.Positive {
				pr.Positive++
			}
			res.Pairs[o.Pair] = pr
		}
	}
	dependent := int64(0)
	for p, pr := range res.Pairs {
		pr.Dependent = pr.Ratio() >= cfg.ThPr && pr.SupportFraction() >= cfg.ThS
		if pr.Dependent {
			dependent++
		}
		res.Pairs[p] = pr
	}
	cfg.Metrics.Counter("l1.dependent_pairs").Add(dependent)
	return res
}
