package l1

import (
	"math/rand"
	"sort"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/pointproc"
)

// makeDependentPair generates two log sequences where B's logs trail A's by
// a small latency — the signature of a synchronous interaction.
func makeDependentPair(rng *rand.Rand, slot logmodel.TimeRange, rate float64) (a, b []logmodel.Millis) {
	a = pointproc.Homogeneous(rng, slot, rate)
	b = make([]logmodel.Millis, 0, len(a))
	for _, t := range a {
		b = append(b, t+logmodel.Millis(10+rng.Intn(50)))
	}
	return a, b
}

func hourSlot() logmodel.TimeRange {
	return logmodel.TimeRange{Start: 0, End: logmodel.MillisPerHour}
}

func TestDirectionTestDependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	slot := hourSlot()
	a, b := makeDependentPair(rng, slot, 0.2) // ~720 logs/h
	res := DirectionTest(rng, a, b, slot, Config{})
	if !res.Valid {
		t.Fatal("test invalid")
	}
	if !res.Positive {
		t.Errorf("dependent pair not positive: CI_b = %+v, CI_r = %+v",
			res.CandidateCI, res.RandomCI)
	}
	if res.Farther {
		t.Error("dependent pair reported farther")
	}
	if len(res.RandomSample) == 0 || len(res.CandidateSample) == 0 {
		t.Error("samples empty")
	}
}

func TestDirectionTestIndependent(t *testing.T) {
	slot := hourSlot()
	positives := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		a := pointproc.Homogeneous(rng, slot, 0.2)
		b := pointproc.Homogeneous(rng, slot, 0.2)
		res := DirectionTest(rng, a, b, slot, Config{})
		if res.Valid && res.Positive {
			positives++
		}
	}
	// Independent Poisson processes: positives should be rare (the test is
	// conservative: both CIs estimate the same median).
	if positives > trials/5 {
		t.Errorf("independent pairs positive in %d/%d trials", positives, trials)
	}
}

func TestSlotTestBothDirections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	slot := hourSlot()
	a, b := makeDependentPair(rng, slot, 0.2)
	if !SlotTest(rng, a, b, slot, Config{}) {
		t.Error("dependent pair failed the slot test")
	}
	// One-sided sequence vs an unrelated one.
	c := pointproc.Homogeneous(rng, slot, 0.2)
	pos := 0
	for i := 0; i < 20; i++ {
		if SlotTest(rng, a, c, slot, Config{}) {
			pos++
		}
	}
	if pos > 4 {
		t.Errorf("independent slot test positive %d/20", pos)
	}
}

func TestDirectionTestTooFewPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	slot := hourSlot()
	a := []logmodel.Millis{100}
	b := []logmodel.Millis{200, 300}
	res := DirectionTest(rng, a, b, slot, Config{})
	if res.Valid {
		t.Error("test with 2 candidate points should be invalid (median CI infeasible)")
	}
	if SlotTest(rng, a, b, slot, Config{}) {
		t.Error("slot test must be negative when invalid")
	}
}

func TestDistNextVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	slot := hourSlot()
	a, b := makeDependentPair(rng, slot, 0.2)
	// With DistNext, distances of B to A measure the time to A's *next*
	// log; B trails A so these are large (~gap), while random points are
	// uniformly placed — B should NOT look closer in this direction, but
	// A to B should.
	res := DirectionTest(rng, b, a, slot, Config{Distance: DistNext})
	if !res.Valid {
		t.Fatal("invalid")
	}
	if !res.Positive {
		t.Error("A's logs should precede B's: distance to next B log is small")
	}
}

func TestPairResultDerived(t *testing.T) {
	pr := PairResult{Slots: 24, Support: 12, Positive: 9}
	if pr.Ratio() != 0.75 {
		t.Errorf("Ratio = %v", pr.Ratio())
	}
	if pr.SupportFraction() != 0.5 {
		t.Errorf("SupportFraction = %v", pr.SupportFraction())
	}
	var zero PairResult
	if zero.Ratio() != 0 || zero.SupportFraction() != 0 {
		t.Error("zero result derived values")
	}
}

// buildStore creates a store from per-source timestamp sequences.
func buildStore(seqs map[string][]logmodel.Millis) *logmodel.Store {
	s := logmodel.NewStore(0)
	srcs := make([]string, 0, len(seqs))
	for src := range seqs {
		srcs = append(srcs, src)
	}
	sort.Strings(srcs) // entries stamped alike keep one order, whatever the map's
	for _, src := range srcs {
		for _, t := range seqs[src] {
			s.Append(logmodel.Entry{Time: t, Source: src, Severity: logmodel.SevInfo})
		}
	}
	s.Sort()
	return s
}

func TestMineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	day := logmodel.TimeRange{Start: 0, End: 6 * logmodel.MillisPerHour}
	// A and B interact; C is independent; D is too quiet to support.
	a := pointproc.Homogeneous(rng, day, 0.1)
	b := make([]logmodel.Millis, 0, len(a))
	for _, ts := range a {
		b = append(b, ts+logmodel.Millis(10+rng.Intn(40)))
	}
	c := pointproc.Homogeneous(rng, day, 0.1)
	d := pointproc.Homogeneous(rng, day, 0.002)
	store := buildStore(map[string][]logmodel.Millis{"A": a, "B": b, "C": c, "D": d})

	cfg := Config{MinLogs: 50, Seed: 7}
	res := Mine(store, day, nil, cfg)
	dep := res.DependentPairs()
	if !dep[core.MakePair("A", "B")] {
		ab := res.Pairs[core.MakePair("A", "B")]
		t.Errorf("A-B not dependent: %+v (ratio %.2f, support %.2f)",
			ab, ab.Ratio(), ab.SupportFraction())
	}
	if dep[core.MakePair("A", "C")] || dep[core.MakePair("B", "C")] {
		t.Error("independent pair flagged")
	}
	// D never reaches MinLogs: support must be 0 for its pairs.
	for p, pr := range res.Pairs {
		if (p.A == "D" || p.B == "D") && pr.Support != 0 {
			t.Errorf("pair %v has support %d", p, pr.Support)
		}
	}
	// All pairs initialized.
	if len(res.Pairs) != 6 {
		t.Errorf("pairs = %d, want C(4,2)=6", len(res.Pairs))
	}
	for _, pr := range res.Pairs {
		if pr.Slots != 6 {
			t.Errorf("slots = %d", pr.Slots)
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	day := logmodel.TimeRange{Start: 0, End: 2 * logmodel.MillisPerHour}
	a := pointproc.Homogeneous(rng, day, 0.1)
	b := pointproc.Homogeneous(rng, day, 0.1)
	store := buildStore(map[string][]logmodel.Millis{"A": a, "B": b})
	cfg := Config{MinLogs: 50, Seed: 123}
	r1 := Mine(store, day, nil, cfg)
	r2 := Mine(store, day, nil, cfg)
	p := core.MakePair("A", "B")
	if r1.Pairs[p] != r2.Pairs[p] {
		t.Error("mining not deterministic for a fixed seed")
	}
}

func TestMineExplicitSources(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	day := logmodel.TimeRange{Start: 0, End: logmodel.MillisPerHour}
	a := pointproc.Homogeneous(rng, day, 0.1)
	store := buildStore(map[string][]logmodel.Millis{"A": a, "B": a, "C": a})
	res := Mine(store, day, []string{"A", "B"}, Config{MinLogs: 10})
	if len(res.Pairs) != 1 {
		t.Errorf("pairs = %d, want 1 (restricted sources)", len(res.Pairs))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SlotWidth != logmodel.MillisPerHour || c.MinLogs != 100 ||
		c.ThPr != 0.6 || c.ThS != 0.3 || c.Level != 0.95 || c.SampleSize != 400 {
		t.Errorf("defaults = %+v", c)
	}
}
