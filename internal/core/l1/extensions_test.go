package l1

import (
	"math/rand"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/pointproc"
)

func TestStatMeanVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	slot := hourSlot()
	a, b := makeDependentPair(rng, slot, 0.2)
	res := DirectionTest(rng, a, b, slot, Config{Statistic: StatMean})
	if !res.Valid || !res.Positive {
		t.Errorf("mean-statistic test on dependent pair: %+v", res)
	}
	// Independent pairs stay negative under the mean variant too.
	pos := 0
	for i := 0; i < 20; i++ {
		c := pointproc.Homogeneous(rng, slot, 0.2)
		d := pointproc.Homogeneous(rng, slot, 0.2)
		if r := DirectionTest(rng, c, d, slot, Config{Statistic: StatMean}); r.Valid && r.Positive {
			pos++
		}
	}
	if pos > 5 {
		t.Errorf("independent positives = %d/20 under mean statistic", pos)
	}
}

// TestMeanStatisticOutlierSensitivity shows why the paper prefers the
// median: a few extreme distances (e.g. a burst gap) destroy the mean
// test's separation but not the median test's.
func TestMeanStatisticOutlierSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	slot := hourSlot()
	a, b := makeDependentPair(rng, slot, 0.05)
	// Contaminate B with a cluster of points far from any A log: a long
	// quiet stretch at the end of the slot.
	far := slot.End - 10
	for i := 0; i < len(b)/6; i++ {
		b = append(b, far-logmodel.Millis(i))
	}
	sortMillis(b)
	cfgMedian := Config{Statistic: StatMedian, Seed: 1}
	cfgMean := Config{Statistic: StatMean, Seed: 1}
	medianPos, meanPos := 0, 0
	for i := 0; i < 10; i++ {
		if d := DirectionTest(rng, a, b, slot, cfgMedian); d.Valid && d.Positive {
			medianPos++
		}
		if d := DirectionTest(rng, a, b, slot, cfgMean); d.Valid && d.Positive {
			meanPos++
		}
	}
	if medianPos < meanPos {
		t.Errorf("median positives %d < mean positives %d under contamination", medianPos, meanPos)
	}
	if medianPos < 7 {
		t.Errorf("median test should survive contamination: %d/10", medianPos)
	}
}

func sortMillis(xs []logmodel.Millis) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// TestRefTotalActivity: with a strong diurnal trend, two unrelated
// applications both following the trend fool the uniform reference but not
// the total-activity reference.
func TestRefTotalActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	day := logmodel.TimeRange{Start: 0, End: 4 * logmodel.MillisPerHour}
	// Intensity concentrated in the first hour: everything is busy then.
	intensity := func(ts logmodel.Millis) float64 {
		if ts < logmodel.MillisPerHour {
			return 0.6
		}
		return 0.01
	}
	a := pointproc.NonHomogeneous(rng, day, intensity, 0.6)
	b := pointproc.NonHomogeneous(rng, day, intensity, 0.6)
	total := pointproc.MergeSorted(a, b)
	// Extra background following the same trend.
	bg := pointproc.NonHomogeneous(rng, day, intensity, 0.6)
	total = pointproc.MergeSorted(total, bg)

	uniformPos, activityPos := 0, 0
	const trials = 12
	for i := 0; i < trials; i++ {
		if DirectionTest(rng, a, b, day, Config{}).Positive {
			uniformPos++
		}
		d := DirectionTestRef(rng, a, b, total, day, Config{Reference: RefTotalActivity})
		if d.Positive {
			activityPos++
		}
	}
	// The uniform reference mistakes the shared trend for dependence; the
	// total-activity reference absorbs it.
	if uniformPos < trials/2 {
		t.Errorf("uniform reference positives = %d/%d; trend should fool it", uniformPos, trials)
	}
	if activityPos >= uniformPos {
		t.Errorf("total-activity reference (%d) should beat uniform (%d)", activityPos, uniformPos)
	}
}

func TestResampleJitteredBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	slot := logmodel.TimeRange{Start: 1000, End: 5000}
	total := []logmodel.Millis{1000, 1100, 4900, 4999}
	pts := resampleJittered(nil, rng, total, slot, 500, 500)
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !slot.Contains(p) {
			t.Fatalf("point %d outside slot", p)
		}
	}
}

func TestEqualCountSlots(t *testing.T) {
	store := logmodel.NewStore(0)
	// 300 entries in the first hour, 30 in the remaining 23 hours.
	r := logmodel.TimeRange{Start: 0, End: 24 * logmodel.MillisPerHour}
	for i := 0; i < 300; i++ {
		store.Append(logmodel.Entry{Time: logmodel.Millis(i) * 12000, Source: "A"})
	}
	for i := 0; i < 30; i++ {
		store.Append(logmodel.Entry{
			Time: logmodel.MillisPerHour + logmodel.Millis(i)*46*logmodel.MillisPerMinute, Source: "B"})
	}
	store.Sort()
	slots := EqualCountSlots(store, r, 10)
	if len(slots) == 0 || len(slots) > 10 {
		t.Fatalf("slots = %d", len(slots))
	}
	// Coverage: contiguous from r.Start to r.End.
	if slots[0].Start != r.Start || slots[len(slots)-1].End != r.End {
		t.Errorf("slots do not cover the range: %v", slots)
	}
	for i := 1; i < len(slots); i++ {
		if slots[i].Start != slots[i-1].End {
			t.Fatalf("slots not contiguous at %d", i)
		}
	}
	// Adaptivity: the busy first hour must be split into several slots.
	busy := 0
	for _, s := range slots {
		if s.End <= logmodel.MillisPerHour {
			busy++
		}
	}
	if busy < 5 {
		t.Errorf("busy hour got %d slots, want most of them", busy)
	}
	if got := EqualCountSlots(store, r, 0); got != nil {
		t.Error("n=0 should be nil")
	}
	empty := logmodel.NewStore(0)
	empty.Sort()
	if got := EqualCountSlots(empty, r, 5); len(got) != 1 || got[0] != r {
		t.Errorf("empty store slots = %v", got)
	}
}

func TestMineSlotsEqualCount(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	day := logmodel.TimeRange{Start: 0, End: 6 * logmodel.MillisPerHour}
	a := pointproc.Homogeneous(rng, day, 0.1)
	b := make([]logmodel.Millis, 0, len(a))
	for _, ts := range a {
		b = append(b, ts+logmodel.Millis(10+rng.Intn(40)))
	}
	store := buildStore(map[string][]logmodel.Millis{"A": a, "B": b})
	slots := EqualCountSlots(store, day, 6)
	res := MineSlots(store, slots, nil, Config{MinLogs: 50, Seed: 39})
	if !res.DependentPairs()[core.MakePair("A", "B")] {
		t.Errorf("A-B not found with equal-count slots: %+v", res.Pairs[core.MakePair("A", "B")])
	}
}

// TestMineParallelDeterminism: the parallel slot scheduler must not affect
// results — two runs (and a GOMAXPROCS=1-equivalent run via MineSlots with
// one slot at a time) agree exactly.
func TestMineParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	day := logmodel.TimeRange{Start: 0, End: 8 * logmodel.MillisPerHour}
	seqs := map[string][]logmodel.Millis{}
	for _, src := range []string{"A", "B", "C", "D", "E"} {
		seqs[src] = pointproc.Homogeneous(rng, day, 0.05)
	}
	store := buildStore(seqs)
	cfg := Config{MinLogs: 30, Seed: 77}
	r1 := Mine(store, day, nil, cfg)
	r2 := Mine(store, day, nil, cfg)
	for p, pr1 := range r1.Pairs {
		if pr2 := r2.Pairs[p]; pr1 != pr2 {
			t.Fatalf("pair %v differs: %+v vs %+v", p, pr1, pr2)
		}
	}
	// Sequential per-slot mining matches the parallel run slot by slot.
	slots := day.Split(cfg.withDefaults().SlotWidth)
	totalPos := map[core.Pair]int{}
	for _, slot := range slots {
		rs := MineSlots(store, []logmodel.TimeRange{slot}, nil, cfg)
		for p, pr := range rs.Pairs {
			totalPos[p] += pr.Positive
		}
	}
	for p, pr := range r1.Pairs {
		if totalPos[p] != pr.Positive {
			t.Fatalf("pair %v: sequential positives %d vs parallel %d", p, totalPos[p], pr.Positive)
		}
	}
}

func TestPairSeedDistinct(t *testing.T) {
	if sourceSeed(1, 0, "A") == sourceSeed(1, 0, "B") {
		t.Error("different sources share a seed")
	}
	if sourceSeed(1, 0, "A") == sourceSeed(1, 1, "A") {
		t.Error("different slots share a seed")
	}
	if sourceSeed(1, 0, "A") == sourceSeed(2, 0, "A") {
		t.Error("different base seeds collide")
	}
	if sourceSeed(1, 0, "A") != sourceSeed(1, 0, "A") {
		t.Error("seed not deterministic")
	}
}
