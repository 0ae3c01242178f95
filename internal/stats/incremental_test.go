package stats

// Property-based tests backing the streaming miners' incremental tallies:
// the statistics consumed downstream (G²/X² over contingency tables, the
// order-statistics median CI, the Wilcoxon signed-rank test) must be
// bit-identical whether their inputs were maintained incrementally through
// random add/retire sequences or recomputed from scratch. Failures shrink
// deterministically: each property is a pure function of (seed, number of
// ops), so the harness replays ever-shorter prefixes of the same seeded
// sequence and reports the minimal failing one.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkPrefixes runs property(seed, n) for the full sequence and, on
// failure, replays shorter prefixes of the same seed to report the minimal
// failing length — shrinking by seed replay, no example corpus needed.
func checkPrefixes(t *testing.T, seed int64, ops int, property func(seed int64, ops int) error) {
	t.Helper()
	if err := property(seed, ops); err == nil {
		return
	}
	min := ops
	for n := 1; n <= ops; n++ {
		if property(seed, n) != nil {
			min = n
			break
		}
	}
	err := property(seed, min)
	t.Fatalf("property failed (seed %d); minimal failing prefix: %d ops: %v", seed, min, err)
}

// intTally is the incremental tally under test: integer-valued float counts
// over observation types, mirroring how the streaming L2 miner maintains
// its bigram aggregation (add on session growth, remove on retirement,
// delete-on-zero).
type intTally struct {
	counts map[int]float64
	total  float64
}

func newIntTally() *intTally { return &intTally{counts: make(map[int]float64)} }

func (c *intTally) add(k int) { c.counts[k]++; c.total++ }

func (c *intTally) remove(k int) {
	c.counts[k]--
	if c.counts[k] == 0 { //lint:allow floateq integer-valued counts, subtraction is exact so the zero test is too
		delete(c.counts, k)
	}
	c.total--
}

// tableOf derives a 2×2 table for type k against the rest of the tally.
func (c *intTally) tableOf(k, universe int) ContingencyTable {
	o11 := c.counts[k]
	return ContingencyTable{
		O11: o11,
		O12: c.counts[(k+1)%universe],
		O21: c.counts[(k+2)%universe],
		O22: c.total - o11 - c.counts[(k+1)%universe] - c.counts[(k+2)%universe],
	}
}

// TestIncrementalTalliesMatchRecomputation drives random add/retire
// sequences and requires the incremental tally — and every association
// statistic computed from it — to equal a from-scratch recomputation of the
// surviving observations, bit for bit.
func TestIncrementalTalliesMatchRecomputation(t *testing.T) {
	const universe = 5
	property := func(seed int64, ops int) error {
		rng := rand.New(rand.NewSource(seed))
		inc := newIntTally()
		var live []int // surviving observations, in arrival order
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				// Retire in FIFO order, like a sliding window.
				k := live[0]
				live = live[1:]
				inc.remove(k)
			} else {
				k := rng.Intn(universe)
				live = append(live, k)
				inc.add(k)
			}

			scratch := newIntTally()
			for _, k := range live {
				scratch.add(k)
			}
			if len(inc.counts) != len(scratch.counts) || inc.total != scratch.total { //lint:allow floateq integer-valued counts compare exactly
				return errf("op %d: tally sizes diverge: %v vs %v", op, inc.counts, scratch.counts)
			}
			for k := 0; k < universe; k++ {
				ti, ts := inc.tableOf(k, universe), scratch.tableOf(k, universe)
				if ti != ts {
					return errf("op %d: tables diverge for type %d: %v vs %v", op, k, ti, ts)
				}
				if ti.N() == 0 { //lint:allow floateq integer-valued counts compare exactly
					continue
				}
				gi, gs := LogLikelihoodG2(ti), LogLikelihoodG2(ts)
				xi, xs := PearsonX2(ti), PearsonX2(ts)
				if gi != gs || xi != xs { //lint:allow floateq identical tables must give identical statistics bitwise
					return errf("op %d: statistics diverge for type %d: G² %v vs %v, X² %v vs %v", op, k, gi, gs, xi, xs)
				}
				ai, as := TestAssociation(ti), TestAssociation(ts)
				if ai != as {
					return errf("op %d: association tests diverge for type %d", op, k)
				}
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 20; seed++ {
		checkPrefixes(t, seed, 400, property)
	}
}

// sortedSet is an incrementally maintained sorted multiset of float64
// samples — the shape of the L1 distance samples a sliding window would
// maintain by insertion and deletion instead of re-sorting.
type sortedSet struct{ xs []float64 }

func (s *sortedSet) insert(x float64) {
	i := sort.SearchFloat64s(s.xs, x)
	s.xs = append(s.xs, 0)
	copy(s.xs[i+1:], s.xs[i:])
	s.xs[i] = x
}

func (s *sortedSet) delete(x float64) {
	i := sort.SearchFloat64s(s.xs, x)
	s.xs = append(s.xs[:i], s.xs[i+1:]...)
}

// TestIncrementalOrderStatisticsMatchResort maintains a sorted sample by
// insertion/deletion through random add/retire sequences and requires the
// median CI and the Wilcoxon signed-rank test over it to equal the ones
// over a freshly sorted copy of the surviving samples — bitwise, including
// error/no-error agreement on degenerate samples.
func TestIncrementalOrderStatisticsMatchResort(t *testing.T) {
	property := func(seed int64, ops int) error {
		rng := rand.New(rand.NewSource(seed))
		inc := &sortedSet{}
		var live []float64
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				x := live[i]
				live = append(live[:i], live[i+1:]...)
				inc.delete(x)
			} else {
				// A discrete value grid produces ties, exercising the
				// duplicate paths of insert/delete and the zero/tied-rank
				// paths of Wilcoxon.
				x := float64(rng.Intn(9)-4) / 2
				live = append(live, x)
				inc.insert(x)
			}

			scratch := SortedCopy(live)
			if len(inc.xs) != len(scratch) {
				return errf("op %d: lengths diverge: %d vs %d", op, len(inc.xs), len(scratch))
			}
			for i := range scratch {
				if inc.xs[i] != scratch[i] { //lint:allow floateq same multiset must sort identically
					return errf("op %d: samples diverge at %d: %v vs %v", op, i, inc.xs, scratch)
				}
			}
			ciI, errI := MedianCI(inc.xs, 0.95)
			ciS, errS := MedianCI(scratch, 0.95)
			if (errI == nil) != (errS == nil) || ciI != ciS {
				return errf("op %d: median CIs diverge: %v (%v) vs %v (%v)", op, ciI, errI, ciS, errS)
			}
			// The Wilcoxon check is throttled: in the exact regime (≤ 20
			// non-zero diffs) each call enumerates up to 2^20 sign
			// assignments, so checking every op would dominate the suite.
			if op%5 == 0 || len(scratch) < 8 {
				wI, errI := WilcoxonSignedRankDiffs(inc.xs)
				wS, errS := WilcoxonSignedRankDiffs(scratch)
				if (errI == nil) != (errS == nil) || !wilcoxonEqual(wI, wS) {
					return errf("op %d: Wilcoxon results diverge: %+v (%v) vs %+v (%v)", op, wI, errI, wS, errS)
				}
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 20; seed++ {
		checkPrefixes(t, seed, 300, property)
	}
}

// wilcoxonEqual compares results bitwise, treating NaN fields as equal to
// themselves (degenerate all-zero samples).
func wilcoxonEqual(a, b WilcoxonResult) bool {
	eq := func(x, y float64) bool {
		return x == y || math.IsNaN(x) && math.IsNaN(y) //lint:allow floateq bitwise reproducibility is the property under test
	}
	return a.N == b.N && a.Exact == b.Exact &&
		eq(a.WPlus, b.WPlus) && eq(a.WMinus, b.WMinus) && eq(a.PValue, b.PValue)
}

// errf builds a property-violation error.
func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
