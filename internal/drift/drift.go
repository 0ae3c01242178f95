package drift

import (
	"fmt"
	"math"
	"sort"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/stats"
)

// Config parameterizes the detector. The zero value of every field selects
// the default, so Config{} is usable as-is.
type Config struct {
	// K is the persistence threshold: a key must be present (absent) for K
	// consecutive delivered buckets before a birth (death) is declared.
	// This is the sparse-noise filter — one-off citations (a coincidence
	// patient name, a single stack trace) occupy one bucket and never
	// survive it. Default 3.
	K int
	// RefBuckets is the trailing reference length: the score channel keeps
	// this many trailing score values per key, the delay channel pools this
	// many trailing per-bucket samples, and the presence channel averages
	// each key's appearance rate over a 4·RefBuckets horizon. Default 12.
	RefBuckets int
	// DeathAlpha calibrates the adaptive death threshold: a confirmed key
	// is declared dead after the shortest absence run whose probability
	// under the key's own presence rate falls below DeathAlpha (never
	// fewer than K buckets). Only keys dense enough that the run stays
	// within 2·K buckets are eligible for this fast death: a moderate-rate
	// key's citations cluster by session, so its real gaps run far longer
	// than independence predicts and any run-length test short enough to be
	// useful would false-alarm on them. Everything sparser is declared dead
	// only at the 4·RefBuckets cap — two full reference horizons of silence
	// is a death for any key. Default 1e-5.
	DeathAlpha float64
	// LearnBuckets is the learning period: a key first sighted before this
	// many buckets have been observed is assumed to predate the detector —
	// its first confirmation is silent, like the warm-start keys of the
	// very first bucket. Sparse long-standing dependencies can take many
	// buckets to string K consecutive appearances together; announcing
	// them as births would report the detector's own catch-up as drift.
	// Default 1 (only the first bucket's keys are warm).
	LearnBuckets int
	// CUSUMThreshold is the alarm level of the two-sided CUSUM on
	// normalized score deviations; CUSUMSlack is the per-step slack (the
	// "k" of the classical chart) in the same z-units. Defaults 6 and 0.5.
	CUSUMThreshold, CUSUMSlack float64
	// MinScoreRef is the minimum number of trailing score values before
	// the CUSUM starts judging deviations. Default 6.
	MinScoreRef int
	// KSAlpha is the significance level of the delay-distribution KS test;
	// MinDelaySamples is the minimum size of both the current bucket's
	// sample and the pooled reference before the test runs; DelayRuns is
	// the persistence threshold of the channel — a shift run must span
	// this many consecutive buckets, with the run's pooled samples
	// rejecting against the pre-shift reference, before a delay shift is
	// declared. One or two buckets dominated by a single chatty session
	// (sessions straddle a bucket boundary) can reject spectacularly on
	// their own, but such clustering does not persist; a real regime
	// change (failover retries, a slow replica) shifts every subsequent
	// bucket. Defaults 1e-3, 8 and 3.
	KSAlpha         float64
	MinDelaySamples int
	DelayRuns       int
	// Metrics receives the drift.* counter class (one counter per change
	// kind). A nil registry disables metrics; it never changes the alerts.
	Metrics *obs.Registry
}

// DefaultConfig returns the default detector configuration.
func DefaultConfig() Config {
	return Config{
		K:               3,
		RefBuckets:      12,
		DeathAlpha:      1e-5,
		LearnBuckets:    1,
		CUSUMThreshold:  6,
		CUSUMSlack:      0.5,
		MinScoreRef:     6,
		KSAlpha:         1e-3,
		MinDelaySamples: 8,
		DelayRuns:       3,
	}
}

func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.K == 0 {
		c.K = def.K
	}
	if c.RefBuckets == 0 {
		c.RefBuckets = def.RefBuckets
	}
	if c.DeathAlpha == 0 {
		c.DeathAlpha = def.DeathAlpha
	}
	if c.LearnBuckets == 0 {
		c.LearnBuckets = def.LearnBuckets
	}
	if c.CUSUMThreshold == 0 {
		c.CUSUMThreshold = def.CUSUMThreshold
	}
	if c.CUSUMSlack == 0 {
		c.CUSUMSlack = def.CUSUMSlack
	}
	if c.MinScoreRef == 0 {
		c.MinScoreRef = def.MinScoreRef
	}
	if c.KSAlpha == 0 {
		c.KSAlpha = def.KSAlpha
	}
	if c.MinDelaySamples == 0 {
		c.MinDelaySamples = def.MinDelaySamples
	}
	if c.DelayRuns == 0 {
		c.DelayRuns = def.DelayRuns
	}
	return c
}

// Observation is the drift-relevant projection of one delivered bucket.
// Active lists the keys with evidence in the bucket itself (not the whole
// window); Scores carries per-key window-level association scores (L2 G²);
// Delays carries per-key citation-delay samples of the bucket (L3
// inter-citation gaps, in milliseconds). Scores and Delays may be nil for
// techniques without those channels.
type Observation struct {
	// Bucket is the delivered bucket's index on the ingester's grid; At is
	// the start of its time range.
	Bucket int64
	At     logmodel.Millis
	Active []string
	Scores map[string]float64
	Delays map[string][]float64
}

// Kind classifies a change point.
type Kind string

// The four change kinds.
const (
	Birth      Kind = "birth"
	Death      Kind = "death"
	ScoreShift Kind = "score-shift"
	DelayShift Kind = "delay-shift"
)

// ChangePoint is one detected model change.
type ChangePoint struct {
	// Bucket and At identify the delivered bucket that confirmed the
	// change; Onset is the bucket index where the change began (the start
	// of the presence run, or the bucket whose statistic tripped the
	// alarm).
	Bucket int64           `json:"bucket"`
	At     logmodel.Millis `json:"at"`
	Onset  int64           `json:"onset"`
	Kind   Kind            `json:"kind"`
	// Key names the affected dependency: "A--B" for undirected pairs,
	// "App->GROUP" for app→service dependencies.
	Key string `json:"key"`
	// Score quantifies the change: the run length for births and deaths,
	// the CUSUM statistic for score shifts, the KS D statistic for delay
	// shifts.
	Score float64 `json:"score"`
	// Segment, when set, points at the persisted model-store record of
	// the confirming bucket ("raw-…seg#3"), so an operator can jump from
	// the alert to the retained model and evidence. The detector never
	// fills it — the follower annotates change-points when it runs with a
	// store; without one the field stays empty and the alert line keeps
	// its historical form.
	Segment string `json:"segment,omitempty"`
}

// String renders the canonical one-line alert form. A segment reference,
// when present, is appended as a trailing locator.
func (c ChangePoint) String() string {
	s := fmt.Sprintf("DRIFT [%s] %s %s (onset bucket %d, score %.3g)",
		c.At.Time().Format("2006-01-02T15:04:05"), c.Kind, c.Key, c.Onset, c.Score)
	if c.Segment != "" {
		s += " segment=" + c.Segment
	}
	return s
}

// PairKey returns the drift key of an undirected pair ("A--B").
func PairKey(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "--" + b
}

// DepKey returns the drift key of an app→service dependency ("App->GROUP").
func DepKey(app, group string) string { return app + "->" + group }

// presenceState is the per-key state of the persistence filter.
type presenceState struct {
	// Confirmed reports the key's current model-level status: present
	// (true) after a confirmed birth or warm start, absent after a
	// confirmed death.
	Confirmed bool
	// RunPresent and RunAbsent count the current run of consecutive
	// delivered buckets with and without the key.
	RunPresent int
	RunAbsent  int
	// RunStart is the bucket index where the current run started.
	RunStart int64
	// WarmStart marks a presence run that began during the learning
	// period (LearnBuckets): its confirmation is silent — the key
	// predates the detector, and announcing it as a birth would report
	// the detector's own catch-up as drift.
	WarmStart bool
	// Rate is the key's smoothed per-bucket presence rate: an exact
	// running mean while SeenBuckets is below the 4·RefBuckets horizon
	// (no initialization bias — a young key's rate is exactly its observed
	// frequency), an exponential mean at that horizon afterwards. RunRate
	// freezes it at the start of the current absence run, so the run is
	// judged against the rate the key held before it went silent (the
	// live rate decays during the run and would inflate the death
	// threshold mid-outage).
	Rate        float64
	RunRate     float64
	SeenBuckets int64
	// Flickered marks a key whose earlier presence runs ended without
	// confirming; EverConfirmed marks a key that has confirmed before. A
	// flickering key's first confirmation is silent — a sporadic key that
	// eventually strings K lucky buckets together is the detector finally
	// catching up with an old dependency, not the landscape moving. A
	// birth is announced only for keys that are genuinely new (first run
	// confirms) or that return after an announced death (EverConfirmed).
	Flickered     bool
	EverConfirmed bool
}

// scoreState is the per-key state of the CUSUM score channel.
type scoreState struct {
	// Ring holds the trailing reference scores, oldest first.
	Ring []float64
	// Pos and Neg are the one-sided CUSUM accumulators; PosOnset and
	// NegOnset record the bucket where each last rose from zero.
	Pos      float64
	Neg      float64
	PosOnset int64
	NegOnset int64
	// Idle counts consecutive observations without a score for this key.
	Idle int
}

// delayState is the per-key state of the KS delay channel.
type delayState struct {
	// Ref holds the trailing per-bucket delay samples (each sorted),
	// oldest first.
	Ref [][]float64
	// Idle counts consecutive observations without a sample for this key.
	Idle int
	// Pending counts the rejecting votes of the current candidate shift
	// run; Held accumulates every bucket of the run, held out of the
	// reference until the run resolves (confirmed: they seed the
	// post-shift reference; rejected: they rejoin it). Pool accumulates
	// the individually-untestable buckets since the run's last vote: they
	// combine into the next vote's candidate, then move to Held — a
	// bucket never votes twice. PendingOnset is the run's first bucket.
	Pending      int
	PendingOnset int64
	Held         [][]float64
	Pool         [][]float64
}

// Detector is the sequential change-point detector. It is not safe for
// concurrent use; feed it delivered buckets in order.
type Detector struct {
	cfg      Config
	seq      int64
	presence map[string]*presenceState
	scores   map[string]*scoreState
	delays   map[string]*delayState
	counters map[string]*obs.Counter

	// State's scratch: the image it builds before copying it out, and the
	// sorted keys of the table being written.
	buf  []byte
	keys []string
}

// NewDetector builds a detector with the given configuration.
func NewDetector(cfg Config) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:      cfg,
		presence: make(map[string]*presenceState),
		scores:   make(map[string]*scoreState),
		delays:   make(map[string]*delayState),
		counters: obs.Classes(cfg.Metrics, "drift.", "birth", "death", "score_shift", "delay_shift"),
	}
}

// counterName maps a change kind to its drift.* counter class name.
func counterName(k Kind) string {
	switch k {
	case ScoreShift:
		return "score_shift"
	case DelayShift:
		return "delay_shift"
	default:
		return string(k)
	}
}

// Observe feeds one delivered bucket's observation and returns the change
// points it confirms, sorted by (kind, key). The returned slice is owned by
// the caller.
func (d *Detector) Observe(ob Observation) []ChangePoint {
	var cps []ChangePoint
	emit := func(kind Kind, key string, onset int64, score float64) {
		cps = append(cps, ChangePoint{
			Bucket: ob.Bucket, At: ob.At, Onset: onset,
			Kind: kind, Key: key, Score: score,
		})
	}

	cps = append(cps, d.observePresence(ob)...)
	d.observeScores(ob, emit)
	d.observeDelays(ob, emit)

	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Kind != cps[j].Kind {
			return cps[i].Kind < cps[j].Kind
		}
		return cps[i].Key < cps[j].Key
	})
	for _, c := range cps {
		d.counters[counterName(c.Kind)].Inc()
	}
	d.seq++
	return cps
}

// deathRun returns the absence-run length that declares a key dead, given
// the presence rate it held when the run began: the smallest m ≥ K with
// (1-rate)^m ≤ DeathAlpha. A run that long is implausible under the key's
// own stationary behaviour — but only if the key is dense enough that m
// stays within 2·K buckets. Below that density the independence assumption
// breaks down (citations cluster by session, so real gaps run far longer
// than geometric), and such keys fall back to the 4·RefBuckets cap. The
// same cap applies while the key has fewer than 2·RefBuckets observations
// behind it: three lucky appearances of a sporadic key put its running
// mean at 1.0, and trusting that estimate would kill (and later resurrect,
// as an announced rebirth) keys the detector has barely met.
func (d *Detector) deathRun(st *presenceState) int {
	limit := 4 * d.cfg.RefBuckets
	if st.SeenBuckets < int64(2*d.cfg.RefBuckets) {
		return limit
	}
	q := 1 - st.RunRate
	if q < 0.05 {
		// Floor the per-bucket miss probability: even the densest key
		// deserves more than the bare K silent buckets.
		q = 0.05
	}
	if q >= 1 {
		return limit
	}
	m := int(math.Ceil(math.Log(d.cfg.DeathAlpha) / math.Log(q)))
	if m > 2*d.cfg.K {
		return limit
	}
	if m < d.cfg.K {
		return d.cfg.K
	}
	return m
}

// updateRate folds one presence observation (1 present, 0 absent) into the
// key's smoothed rate: a running mean until 4·RefBuckets observations, an
// exponential mean with that horizon afterwards.
func (d *Detector) updateRate(st *presenceState, x float64) {
	st.SeenBuckets++
	n := st.SeenBuckets
	if horizon := int64(4 * d.cfg.RefBuckets); n > horizon {
		n = horizon
	}
	st.Rate += (x - st.Rate) / float64(n)
}

// observePresence runs the persistence filter over the bucket's active set.
func (d *Detector) observePresence(ob Observation) []ChangePoint {
	learning := d.seq < int64(d.cfg.LearnBuckets)
	active := make(map[string]bool, len(ob.Active))
	keys := append([]string(nil), ob.Active...)
	sort.Strings(keys)
	var cps []ChangePoint

	for _, key := range keys {
		if active[key] {
			continue // duplicate in Active
		}
		active[key] = true
		st := d.presence[key]
		if st == nil {
			st = &presenceState{RunStart: ob.Bucket, WarmStart: learning}
			d.presence[key] = st
		}
		if st.RunAbsent > 0 {
			st.RunAbsent = 0
			st.RunPresent = 0
			st.RunStart = ob.Bucket
			st.WarmStart = false
		}
		d.updateRate(st, 1)
		st.RunPresent++
		if !st.Confirmed && st.RunPresent >= d.cfg.K {
			st.Confirmed = true
			announce := !st.WarmStart && (st.EverConfirmed || !st.Flickered)
			st.EverConfirmed = true
			if announce {
				cps = append(cps, ChangePoint{
					Bucket: ob.Bucket, At: ob.At, Onset: st.RunStart,
					Kind: Birth, Key: key, Score: float64(st.RunPresent),
				})
			}
		}
	}

	// Absent keys, in sorted order for deterministic state evolution and
	// emission.
	tracked := make([]string, 0, len(d.presence))
	for key := range d.presence {
		if !active[key] {
			tracked = append(tracked, key)
		}
	}
	sort.Strings(tracked)
	for _, key := range tracked {
		st := d.presence[key]
		if !st.Confirmed && st.RunPresent > 0 {
			st.Flickered = true
		}
		st.RunPresent = 0
		st.RunAbsent++
		if st.RunAbsent == 1 {
			st.RunStart = ob.Bucket
			st.WarmStart = false
			st.RunRate = st.Rate
		}
		d.updateRate(st, 0)
		if st.Confirmed {
			if st.RunAbsent >= d.deathRun(st) {
				st.Confirmed = false
				cps = append(cps, ChangePoint{
					Bucket: ob.Bucket, At: ob.At, Onset: st.RunStart,
					Kind: Death, Key: key, Score: float64(st.RunAbsent),
				})
			}
		} else if st.RunAbsent > 8*d.cfg.RefBuckets {
			// Unconfirmed and long gone: forget the key to bound state.
			// The horizon is generous on purpose — it also carries the
			// Flickered bit, and forgetting it too eagerly would let a
			// sporadic key re-register as brand new and fake a birth.
			delete(d.presence, key)
		}
	}
	return cps
}

// observeScores runs the two-sided CUSUM on each key's score trajectory.
func (d *Detector) observeScores(ob Observation, emit func(Kind, string, int64, float64)) {
	keys := make([]string, 0, len(ob.Scores))
	for key := range ob.Scores {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		x := ob.Scores[key]
		ss := d.scores[key]
		if ss == nil {
			ss = &scoreState{}
			d.scores[key] = ss
		}
		ss.Idle = 0
		if len(ss.Ring) >= d.cfg.MinScoreRef {
			mean, sd := meanStd(ss.Ring)
			// Floor the scale so a near-constant reference cannot turn
			// rounding jitter into alarms.
			floor := 0.05*math.Abs(mean) + 1e-9
			if sd < floor {
				sd = floor
			}
			z := (x - mean) / sd
			if ss.Pos <= 0 {
				ss.PosOnset = ob.Bucket
			}
			if ss.Neg <= 0 {
				ss.NegOnset = ob.Bucket
			}
			ss.Pos = math.Max(0, ss.Pos+z-d.cfg.CUSUMSlack)
			ss.Neg = math.Max(0, ss.Neg-z-d.cfg.CUSUMSlack)
			if ss.Pos >= d.cfg.CUSUMThreshold || ss.Neg >= d.cfg.CUSUMThreshold {
				stat, onset := ss.Pos, ss.PosOnset
				if ss.Neg > ss.Pos {
					stat, onset = ss.Neg, ss.NegOnset
				}
				emit(ScoreShift, key, onset, stat)
				// Re-learn the reference from the post-change regime.
				ss.Ring = ss.Ring[:0]
				ss.Pos, ss.Neg = 0, 0
			}
		}
		ss.Ring = append(ss.Ring, x)
		if len(ss.Ring) > d.cfg.RefBuckets {
			ss.Ring = append(ss.Ring[:0], ss.Ring[1:]...)
		}
	}
	d.gcScores(ob.Scores)
}

// gcScores ages out score state for keys that stopped being scored.
func (d *Detector) gcScores(cur map[string]float64) {
	keys := make([]string, 0, len(d.scores))
	for key := range d.scores {
		if _, ok := cur[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		ss := d.scores[key]
		ss.Idle++
		if ss.Idle > 2*d.cfg.RefBuckets {
			delete(d.scores, key)
		}
	}
}

// expirePending bounds a pending shift run's lifetime: a run that can
// neither confirm nor clear within a reference window's worth of buckets is
// abandoned as noise and its buckets returned to the reference — otherwise
// a perpetually-ambiguous key would hold its reference frozen forever.
func (d *Detector) expirePending(ds *delayState) {
	if len(ds.Held)+len(ds.Pool) < d.cfg.RefBuckets {
		return
	}
	ds.Ref = append(append(ds.Ref, ds.Held...), ds.Pool...)
	ds.Held, ds.Pool, ds.Pending = nil, nil, 0
	if len(ds.Ref) > d.cfg.RefBuckets {
		ds.Ref = append(ds.Ref[:0], ds.Ref[len(ds.Ref)-d.cfg.RefBuckets:]...)
	}
}

// observeDelays runs the KS test of each key's bucket sample against its
// pooled trailing reference.
func (d *Detector) observeDelays(ob Observation, emit func(Kind, string, int64, float64)) {
	keys := make([]string, 0, len(ob.Delays))
	for key := range ob.Delays {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		sample := ob.Delays[key]
		if len(sample) == 0 {
			continue
		}
		ds := d.delays[key]
		if ds == nil {
			ds = &delayState{}
			d.delays[key] = ds
		}
		ds.Idle = 0
		cur := append([]float64(nil), sample...)
		sort.Float64s(cur)
		// The current bucket is the candidate whenever it is large enough
		// to test on its own: each vote of a pending shift run must then
		// reject independently, so one freak bucket (a single chatty slow
		// session) cannot carry the run by contaminating a pooled sample.
		// Only when the bucket alone is too small does it combine with the
		// run's other unvoted small buckets — sparse keys still accumulate
		// evidence, but samples that already voted never vote again.
		cand := cur
		if len(cur) < d.cfg.MinDelaySamples && len(ds.Pool) > 0 {
			cand = pool(append(append([][]float64(nil), ds.Pool...), cur))
		}
		ref := pool(ds.Ref)
		tested, rejected, cleared, dstat := false, false, false, 0.0
		// The reference must span several buckets as well as enough pooled
		// samples: a single-bucket reference is one session's view of the
		// world, and judging the next bucket against it alarms on ordinary
		// session-to-session variation (the freak-bucket problem, mirrored
		// onto the reference side).
		if len(cand) >= d.cfg.MinDelaySamples && len(ref) >= d.cfg.MinDelaySamples &&
			len(ds.Ref) >= d.cfg.RefBuckets/2 {
			res, err := stats.KSTestTwoSample(cand, ref)
			if err == nil {
				tested = true
				rejected = res.PValue < d.cfg.KSAlpha
				dstat = res.D
				// Cancelling a pending run demands more than failing to
				// reject: small post-shift buckets often land between α and
				// plain agreement, and treating that as proof of noise would
				// kill real runs one marginal bucket at a time. Only a
				// clearly-compatible sample (p two orders above α) resolves
				// the run; anything in between parks and waits.
				cleared = res.PValue >= 100*d.cfg.KSAlpha
			}
		}
		switch {
		case rejected:
			if ds.Pending == 0 {
				// The pool is empty at the first vote (pooling starts only
				// once a run is pending), so the run begins here.
				ds.PendingOnset = ob.Bucket
			}
			ds.Pending++
			// The vote's buckets are held out of the reference: the next
			// vote must be judged against the same pre-shift regime.
			ds.Held = append(append(ds.Held, ds.Pool...), cur)
			ds.Pool = nil
			if ds.Pending < d.cfg.DelayRuns {
				continue
			}
			emit(DelayShift, key, ds.PendingOnset, dstat)
			// Flush the reference and re-learn from the shifted regime so
			// one persistent shift yields one alarm, not a storm. The
			// confirming run is the new regime's first taste — seed with it.
			ds.Ref = append(ds.Ref[:0], ds.Held...)
			ds.Held, ds.Pending = nil, 0
		case cleared || ds.Pending == 0:
			// A clear acceptance (or any non-rejection while no run is
			// pending) resolves the run as noise: its buckets rejoin the
			// reference in order.
			ds.Ref = append(append(append(ds.Ref, ds.Held...), ds.Pool...), cur)
			ds.Held, ds.Pool, ds.Pending = nil, nil, 0
		case tested:
			// Inconclusive while pending: the sample was consumed by a full
			// test, so it may not vote again — park it with the run and let
			// later buckets decide.
			ds.Held = append(append(ds.Held, ds.Pool...), cur)
			ds.Pool = nil
			d.expirePending(ds)
			continue
		default:
			// Untestable while a run is pending: park the bucket in the
			// pool and wait for enough samples to cast the next vote.
			ds.Pool = append(ds.Pool, cur)
			d.expirePending(ds)
			continue
		}
		if len(ds.Ref) > d.cfg.RefBuckets {
			ds.Ref = append(ds.Ref[:0], ds.Ref[len(ds.Ref)-d.cfg.RefBuckets:]...)
		}
	}
	d.gcDelays(ob.Delays)
}

// gcDelays ages out delay state for keys that stopped producing samples.
func (d *Detector) gcDelays(cur map[string][]float64) {
	keys := make([]string, 0, len(d.delays))
	for key := range d.delays {
		if _, ok := cur[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		ds := d.delays[key]
		ds.Idle++
		if ds.Idle > 2*d.cfg.RefBuckets {
			delete(d.delays, key)
		}
	}
}

// meanStd returns the mean and population standard deviation of xs.
func meanStd(xs []float64) (float64, float64) {
	n := float64(len(xs))
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	var ss float64
	for _, x := range xs {
		dx := x - mean
		ss += dx * dx
	}
	return mean, math.Sqrt(ss / n)
}

// pool merges the per-bucket reference samples into one sorted sample.
func pool(ref [][]float64) []float64 {
	var n int
	for _, r := range ref {
		n += len(r)
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, 0, n)
	for _, r := range ref {
		out = append(out, r...)
	}
	sort.Float64s(out)
	return out
}
