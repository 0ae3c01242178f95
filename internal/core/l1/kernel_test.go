package l1

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"logscape/internal/core"
	"logscape/internal/logmodel"
	"logscape/internal/pointproc"
	"logscape/internal/stats"
)

// --- the reference: the slot test as it was before the kernel ---------------
//
// Everything below, down to the tests, is the sort-based implementation the
// kernel replaced, kept verbatim (allocating helpers included) as what the
// kernel must agree with bit for bit — every drawn number, every interval
// bound, and the RNG's position afterwards.

func refUniformPoints(rng *rand.Rand, r logmodel.TimeRange, n int) []logmodel.Millis {
	d := int64(r.Duration())
	if d <= 0 || n <= 0 {
		return nil
	}
	out := make([]logmodel.Millis, n)
	for i := range out {
		out[i] = r.Start + logmodel.Millis(rng.Int63n(d))
	}
	return out
}

func refSubsample(rng *rand.Rand, a []logmodel.Millis, n int) []logmodel.Millis {
	if n <= 0 {
		return nil
	}
	if len(a) <= n {
		return a
	}
	chosen := make(map[int]bool, n)
	for j := len(a) - n; j < len(a); j++ {
		k := rng.Intn(j + 1)
		if chosen[k] {
			chosen[j] = true
		} else {
			chosen[k] = true
		}
	}
	idx := make([]int, 0, n)
	for k := range chosen {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	out := make([]logmodel.Millis, n)
	for i, k := range idx {
		out[i] = a[k]
	}
	return out
}

func refDistanceSample(points, a []logmodel.Millis,
	dist func(logmodel.Millis, []logmodel.Millis) logmodel.Millis) []float64 {
	out := make([]float64, 0, len(points))
	for _, p := range points {
		d := dist(p, a)
		if d == logmodel.Millis(math.MaxInt64) {
			continue
		}
		out = append(out, d.Seconds())
	}
	return out
}

func refResampleJittered(rng *rand.Rand, total []logmodel.Millis, slot logmodel.TimeRange, n int, j logmodel.Millis) []logmodel.Millis {
	out := make([]logmodel.Millis, n)
	for i := range out {
		t := total[rng.Intn(len(total))] + logmodel.Millis(rng.Int63n(int64(2*j+1))) - j
		if t < slot.Start {
			t = slot.Start
		}
		if t >= slot.End {
			t = slot.End - 1
		}
		out[i] = t
	}
	return out
}

func refDirectionTest(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) DirectionResult {
	cfg = cfg.withDefaults()
	dist := pointproc.DistNearest
	if cfg.Distance == DistNext {
		dist = pointproc.DistNext
	}
	var random []logmodel.Millis
	if cfg.Reference == RefTotalActivity && len(total) > 0 {
		random = refResampleJittered(rng, total, slot, cfg.SampleSize, cfg.ReferenceJitter)
	} else {
		random = refUniformPoints(rng, slot, cfg.SampleSize)
	}
	sub := refSubsample(rng, b, cfg.SampleSize)
	sr := refDistanceSample(random, a, dist)
	sb := refDistanceSample(sub, a, dist)
	sort.Float64s(sr)
	sort.Float64s(sb)
	res := DirectionResult{RandomSample: sr, CandidateSample: sb}
	ciFor := func(sorted []float64) (stats.CI, error) {
		if cfg.Statistic == StatMean {
			return stats.MeanCI(sorted, cfg.Level)
		}
		return stats.MedianCI(sorted, cfg.Level)
	}
	ciR, errR := ciFor(sr)
	ciB, errB := ciFor(sb)
	if errR != nil || errB != nil {
		return res
	}
	res.RandomCI, res.CandidateCI = ciR, ciB
	res.Valid = true
	res.Positive = ciB.Below(ciR)
	res.Farther = ciR.Below(ciB)
	return res
}

func refSlotTest(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) bool {
	cfg = cfg.withDefaults()
	d1 := refDirectionTest(rng, b, a, total, slot, cfg) // distances of A's logs to B
	if !d1.Valid || !(d1.Positive || cfg.TwoSided && d1.Farther) {
		return false
	}
	d2 := refDirectionTest(rng, a, b, total, slot, cfg) // distances of B's logs to A
	return d2.Valid && (d2.Positive || cfg.TwoSided && d2.Farther)
}

func refPairSeed(base int64, slotStart logmodel.Millis, p core.Pair) int64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(base))
	binary.LittleEndian.PutUint64(buf[8:], uint64(slotStart))
	h.Write(buf[:])
	io.WriteString(h, p.A)
	h.Write([]byte{0})
	io.WriteString(h, p.B)
	return int64(h.Sum64())
}

// --- kernel ≡ reference ------------------------------------------------------

// kernelVariants is every combination of the four Config switches the slot
// test branches on.
func kernelVariants() []Config {
	var out []Config
	for _, st := range []StatisticKind{StatMedian, StatMean} {
		for _, di := range []DistanceKind{DistNearest, DistNext} {
			for _, re := range []ReferenceKind{RefUniform, RefTotalActivity} {
				for _, two := range []bool{false, true} {
					out = append(out, Config{Statistic: st, Distance: di, Reference: re, TwoSided: two})
				}
			}
		}
	}
	return out
}

// kernelCase is one input to the slot test.
type kernelCase struct {
	name  string
	a, b  []logmodel.Millis
	slot  logmodel.TimeRange
	level float64
}

// kernelCases returns seeded random inputs plus the edges: an empty
// sequence, len(b) below / equal to / above SampleSize, samples too short
// for an interval, all-equal distances and a zero-width slot.
func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(2101))
	hour := hourSlot()
	n := Config{}.withDefaults().SampleSize
	exactly := func(k int) []logmodel.Millis {
		out := make([]logmodel.Millis, k)
		for i := range out {
			out[i] = logmodel.Millis(rng.Int63n(int64(hour.End)))
		}
		slices.Sort(out)
		return out
	}
	repeated := func(v logmodel.Millis, k int) []logmodel.Millis {
		out := make([]logmodel.Millis, k)
		for i := range out {
			out[i] = v
		}
		return out
	}
	depA, depB := makeDependentPair(rng, hour, 0.2)
	farA := pointproc.Homogeneous(rng, logmodel.TimeRange{Start: 0, End: hour.End / 4}, 0.3)
	cases := []kernelCase{
		{name: "dependent", a: depA, b: depB, slot: hour},
		{name: "independent", a: pointproc.Homogeneous(rng, hour, 0.2), b: pointproc.Homogeneous(rng, hour, 0.15), slot: hour},
		{name: "clustered-a", a: farA, b: exactly(300), slot: hour},
		{name: "empty-a", a: nil, b: exactly(50), slot: hour},
		{name: "empty-b", a: exactly(50), b: nil, slot: hour},
		{name: "b-below-samplesize", a: exactly(700), b: exactly(n - 1), slot: hour},
		{name: "b-at-samplesize", a: exactly(700), b: exactly(n), slot: hour},
		{name: "b-above-samplesize", a: exactly(700), b: exactly(n + 1), slot: hour},
		{name: "b-far-above-samplesize", a: exactly(90), b: exactly(5 * n), slot: hour},
		{name: "short-sample-5", a: exactly(200), b: exactly(5), slot: hour},
		{name: "short-sample-6", a: exactly(200), b: exactly(6), slot: hour},
		{name: "single-point-each", a: exactly(1), b: exactly(1), slot: hour},
		{name: "all-equal-distances", a: []logmodel.Millis{1000}, b: repeated(4000, 40), slot: logmodel.TimeRange{Start: 1000, End: 1001}},
		{name: "zero-width-slot", a: exactly(100), b: exactly(100), slot: logmodel.TimeRange{Start: 500, End: 500}},
		{name: "level-99", a: depA, b: depB, slot: hour, level: 0.99},
		{name: "level-out-of-range", a: depA, b: depB, slot: hour, level: 1.5},
	}
	for i := 0; i < 12; i++ {
		r := logmodel.TimeRange{Start: logmodel.Millis(rng.Int63n(1 << 40)), End: 0}
		r.End = r.Start + logmodel.Millis(1+rng.Int63n(int64(2*logmodel.MillisPerHour)))
		c := kernelCase{name: fmt.Sprintf("random-%d", i), slot: r}
		c.a = pointproc.Homogeneous(rng, r, 0.01+rng.Float64()*0.4)
		c.b = pointproc.Homogeneous(rng, r, 0.01+rng.Float64()*0.4)
		cases = append(cases, c)
	}
	return cases
}

func sameCI(x, y stats.CI) bool {
	return math.Float64bits(x.Low) == math.Float64bits(y.Low) &&
		math.Float64bits(x.High) == math.Float64bits(y.High) &&
		math.Float64bits(x.Level) == math.Float64bits(y.Level)
}

func sameFloats(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
}

// TestKernelMatchesReference: over every variant and every case, the kernel
// (through DirectionTestRef, which also returns the samples, and through
// the scratch's slotTest, which is what SlotOutcomes calls) decides what
// the sort-based reference decides, from the same numbers, leaving the RNG
// where the reference leaves it.
func TestKernelMatchesReference(t *testing.T) {
	s := scratchPool.Get().(*scratch) // one warm scratch across all cases: stale buffers must not leak
	defer scratchPool.Put(s)
	for vi, variant := range kernelVariants() {
		for ci, c := range kernelCases() {
			cfg := variant
			cfg.Level = c.level
			total := pointproc.MergeSorted(c.a, c.b)
			name := fmt.Sprintf("%s/stat=%d,dist=%d,ref=%d,two=%v", c.name, cfg.Statistic, cfg.Distance, cfg.Reference, cfg.TwoSided)
			seed := int64(1000*vi + ci)

			want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			wd := refDirectionTest(want, c.a, c.b, total, c.slot, cfg)
			gd := DirectionTestRef(got, c.a, c.b, total, c.slot, cfg)
			if gd.Valid != wd.Valid || gd.Positive != wd.Positive || gd.Farther != wd.Farther {
				t.Errorf("%s: direction decided valid/positive/farther %v/%v/%v, reference %v/%v/%v",
					name, gd.Valid, gd.Positive, gd.Farther, wd.Valid, wd.Positive, wd.Farther)
			}
			if !sameCI(gd.RandomCI, wd.RandomCI) || !sameCI(gd.CandidateCI, wd.CandidateCI) {
				t.Errorf("%s: intervals %+v %+v, reference %+v %+v", name, gd.RandomCI, gd.CandidateCI, wd.RandomCI, wd.CandidateCI)
			}
			if !sameFloats(gd.RandomSample, wd.RandomSample) || !sameFloats(gd.CandidateSample, wd.CandidateSample) {
				t.Errorf("%s: sorted samples differ from the reference's", name)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Errorf("%s: RNG position after a direction test differs", name)
			}

			// The scratch's own generator, Seeded in place, against a fresh one.
			want = rand.New(rand.NewSource(seed + 1))
			s.rng.Seed(seed + 1)
			if g, w := s.slotTest(s.rng, c.a, c.b, total, c.slot, cfg.withDefaults()), refSlotTest(want, c.a, c.b, total, c.slot, cfg); g != w {
				t.Errorf("%s: slot test = %v, reference %v", name, g, w)
			}
			if g, w := s.rng.Int63(), want.Int63(); g != w {
				t.Errorf("%s: RNG position after a slot test differs", name)
			}
		}
	}
}

// TestSelectNthMatchesSort: selection ≡ sort + index, for every index, on
// the inputs quickselects go wrong on.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2102))
	inputs := map[string][]logmodel.Millis{"single": {7}, "pair": {9, 3}}
	for _, n := range []int{3, 16, 101, 400} {
		sorted, reversed, constant, twoValued, random, fewValued := make([]logmodel.Millis, n), make([]logmodel.Millis, n),
			make([]logmodel.Millis, n), make([]logmodel.Millis, n), make([]logmodel.Millis, n), make([]logmodel.Millis, n)
		for i := 0; i < n; i++ {
			sorted[i], reversed[i], constant[i] = logmodel.Millis(i), logmodel.Millis(n-i), 5
			twoValued[i], random[i], fewValued[i] = logmodel.Millis(rng.Intn(2)), logmodel.Millis(rng.Int63()), logmodel.Millis(rng.Intn(7))
		}
		organPipe := append(slices.Clone(sorted[:n/2]), reversed[:n-n/2]...)
		for name, in := range map[string][]logmodel.Millis{"sorted": sorted, "reversed": reversed, "constant": constant,
			"two-valued": twoValued, "random": random, "few-valued": fewValued, "organ-pipe": organPipe} {
			inputs[fmt.Sprintf("%s-%d", name, n)] = in
		}
	}
	for name, in := range inputs {
		want := slices.Clone(in)
		slices.Sort(want)
		for i := range in {
			d := slices.Clone(in)
			if got := selectNth(d, i); got != want[i] || d[i] != want[i] {
				t.Fatalf("%s: selectNth(%d) = %d (d[i] = %d), want %d", name, i, got, d[i], want[i])
			}
			if i > 0 && slices.Max(d[:i]) > d[i] || slices.Min(d[i:]) < d[i] {
				t.Fatalf("%s: selectNth(%d) did not partition around d[i]", name, i)
			}
			slices.Sort(d)
			if !slices.Equal(d, want) {
				t.Fatalf("%s: selectNth(%d) changed the multiset", name, i)
			}
		}
	}
}

// TestPairSeedMatchesFNV pins the inlined hash bit for bit against hash/fnv
// over the bytes schedule v2 names — base, slot start, the source, one zero
// byte: a changed seed would silently redraw every test.
func TestPairSeedMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(2103))
	names := []string{"", "A", "B", "DPIFormidoc", "DPIPublication", "a\x00b", "héma-€", "x y\tz"}
	for i := 0; i < 2000; i++ {
		base, start := int64(rng.Uint64()), logmodel.Millis(rng.Uint64())
		if i < 4 {
			base, start = int64(i%2)-1, logmodel.Millis(i/2)*math.MaxInt64
		}
		x := names[rng.Intn(len(names))]
		if got, want := sourceSeed(base, start, x), refPairSeed(base, start, core.Pair{A: x}); got != want {
			t.Fatalf("sourceSeed(%d, %d, %q) = %d, hash/fnv gives %d", base, start, x, got, want)
		}
	}
}

// --- draw schedule v2 ≡ its naive reference ----------------------------------

// refInterval is the cfg.Statistic interval of a sorted sample in seconds.
func refInterval(sorted []float64, cfg Config) (stats.CI, bool) {
	ci, err := stats.MedianCI(sorted, cfg.Level)
	if cfg.Statistic == StatMean {
		ci, err = stats.MeanCI(sorted, cfg.Level)
	}
	return ci, err == nil
}

// refSlotOutcomes is draw schedule v2 written down naively from the v1
// reference's pieces: per eligible source one fresh generator on the hash/fnv
// seed, the reference points, then the subsample, the sorted S_r and its
// interval; per pair and direction the sorted S_b, its interval, and Below.
func refSlotOutcomes(entries []logmodel.Entry, slot logmodel.TimeRange, cfg Config) []SlotOutcome {
	cfg = cfg.withDefaults()
	dist := pointproc.DistNearest
	if cfg.Distance == DistNext {
		dist = pointproc.DistNext
	}
	idx := map[string][]logmodel.Millis{}
	var total []logmodel.Millis
	for _, e := range entries {
		idx[e.Source] = append(idx[e.Source], e.Time)
		total = append(total, e.Time)
	}
	var eligible []string
	for x, logs := range idx {
		if len(logs) >= cfg.MinLogs {
			eligible = append(eligible, x)
		}
	}
	sort.Strings(eligible)
	type ref struct {
		sub []logmodel.Millis
		ci  stats.CI
		ok  bool
	}
	refs := map[string]ref{}
	for _, x := range eligible {
		rng := rand.New(rand.NewSource(refPairSeed(cfg.Seed, slot.Start, core.Pair{A: x})))
		var points []logmodel.Millis
		if cfg.Reference == RefTotalActivity && len(total) > 0 {
			points = refResampleJittered(rng, total, slot, cfg.SampleSize, cfg.ReferenceJitter)
		} else {
			points = refUniformPoints(rng, slot, cfg.SampleSize)
		}
		r := ref{sub: refSubsample(rng, idx[x], cfg.SampleSize)}
		sr := refDistanceSample(points, idx[x], dist)
		sort.Float64s(sr)
		r.ci, r.ok = refInterval(sr, cfg)
		refs[x] = r
	}
	closer := func(b, a string) bool { // are b's points closer to a than random ones?
		sb := refDistanceSample(refs[b].sub, idx[a], dist)
		sort.Float64s(sb)
		ci, ok := refInterval(sb, cfg)
		return ok && refs[a].ok && (ci.Below(refs[a].ci) || cfg.TwoSided && refs[a].ci.Below(ci))
	}
	var out []SlotOutcome
	for i, x := range eligible {
		for _, y := range eligible[i+1:] {
			out = append(out, SlotOutcome{Pair: core.MakePair(x, y), Positive: closer(x, y) && closer(y, x)})
		}
	}
	return out
}

// TestSlotOutcomesMatchesScheduleReference: over every variant and every
// kernel case — a third source echoing b, so that a slot has three pairs
// and every source is both a reference and a candidate — the miner's two
// phases decide what the naive schedule decides.
func TestSlotOutcomesMatchesScheduleReference(t *testing.T) {
	positives, tests := 0, 0
	for vi, variant := range kernelVariants() {
		for ci, c := range kernelCases() {
			echo := make([]logmodel.Millis, len(c.b))
			for i, ts := range c.b {
				echo[i] = ts + 25
			}
			entries := buildStore(map[string][]logmodel.Millis{"A": c.a, "B": c.b, "C": echo}).Entries()
			cfg := variant
			cfg.Level, cfg.MinLogs, cfg.Seed, cfg.Workers = c.level, 1, int64(100*vi+ci), 1+ci%2*7
			got, want := SlotOutcomes(entries, c.slot, nil, cfg), refSlotOutcomes(entries, c.slot, cfg)
			if !slices.Equal(got, want) {
				t.Errorf("%s/stat=%d,dist=%d,ref=%d,two=%v: outcomes %v, schedule reference %v",
					c.name, cfg.Statistic, cfg.Distance, cfg.Reference, cfg.TwoSided, got, want)
			}
			for _, o := range want {
				tests++
				if o.Positive {
					positives++
				}
			}
		}
	}
	if positives < tests/20 || positives > tests/2 {
		t.Errorf("%d of %d reference outcomes positive: the comparison would not see a wrong decision", positives, tests)
	}
}

// TestCountingMatchesIntervalComparison: the pair phase's two counts decide
// what forming S_b's median interval and comparing it decides — on ties at
// either bound, all-equal distances, samples too short for an interval and
// an invalid reference. Distances are dictated through a single log at 0,
// from which a point's distance is its own value.
func TestCountingMatchesIntervalComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(2106))
	s := scratchPool.New().(*scratch)
	origin := []logmodel.Millis{0}
	decided := map[bool]int{}
	for _, n := range []int{0, 1, 5, 6, 7, 8, 20, 71, 400} {
		for _, values := range []int64{1, 2, 3, 12, 1 << 20} { // distinct distances: all-equal, heavy ties, none
			sub := make([]logmodel.Millis, n)
			for i := range sub {
				sub[i] = logmodel.Millis(1 + rng.Int63n(values))
			}
			slices.Sort(sub)
			sorted := make([]float64, n)
			for i, d := range sub {
				sorted[i] = d.Seconds()
			}
			bounds := []float64{0, 0.0005, math.Inf(1)}
			for _, d := range sub { // every sample value and its two neighbours
				bounds = append(bounds, d.Seconds(), (d - 1).Seconds(), (d + 1).Seconds())
			}
			for trial := 0; trial < 60; trial++ {
				low, high := bounds[rng.Intn(len(bounds))], bounds[rng.Intn(len(bounds))]
				if high < low {
					low, high = high, low
				}
				for _, cfg := range []Config{{}, {TwoSided: true}, {Level: 0.99, TwoSided: true}} {
					cfg = cfg.withDefaults()
					ref := sourceRef{logs: origin, ci: stats.CI{Low: low, High: high, Level: cfg.Level}, ok: trial%10 != 9}
					ci, err := stats.MedianCI(sorted, cfg.Level)
					want := err == nil && ref.ok && (ci.Below(ref.ci) || cfg.TwoSided && ref.ci.Below(ci))
					if got := s.closer(sub, &ref, cfg); got != want {
						t.Fatalf("n=%d values=%d ref=[%v, %v] ok=%v two=%v level=%v: counting decides %v, interval %+v decides %v",
							n, values, low, high, ref.ok, cfg.TwoSided, cfg.Level, got, ci, want)
					}
					decided[want]++
				}
			}
		}
	}
	if decided[true] < 200 || decided[false] < 200 {
		t.Errorf("decisions %v: one side is barely exercised", decided)
	}
}

// TestSharedReferenceKeepsLevel measures what sharing a reference does to
// the test's level, on 60 seeded hours of 16 mutually independent Poisson
// sources, where every positive is a false one. Per pair the slot test
// stays under 0.5 % and within 0.5 % of SlotTest's rate on the same data
// (both are 0 of 7,200: two directions must err at once). A single
// direction is where an error shows, so it is measured too — under 1 % and
// within 0.5 % of each other: 26 of 14,400 (0.18 %) against shared
// references, 16 of 7,200 (0.22 %) drawn per pair. What sharing changes is
// where the errors fall, not how many: one unlucky reference fails 3 of its
// 15 candidates in one hour, which independent draws at that rate would do
// in 960 references with probability ≈ 0.003.
func TestSharedReferenceKeepsLevel(t *testing.T) {
	const hours, sources = 60, 16
	cfg := Config{MinLogs: 10, Seed: 9, Workers: 1}.withDefaults()
	s := scratchPool.New().(*scratch)
	var slotShared, slotPerPair, slotTests, dirShared, dirPerPair, dirTests, worstRef int
	for h := 0; h < hours; h++ {
		rng := rand.New(rand.NewSource(int64(3000 + h)))
		slot := logmodel.TimeRange{Start: logmodel.Millis(h) * logmodel.MillisPerHour, End: logmodel.Millis(h+1) * logmodel.MillisPerHour}
		seqs := manySources(rng, slot, sources)
		refs := map[string]*sourceRef{}
		for i := 0; i < sources; i++ {
			x := fmt.Sprintf("S%02d", i)
			s.rng.Seed(sourceSeed(cfg.Seed, slot.Start, x))
			ref := s.drawSource(s.rng, seqs[x], nil, slot, cfg)
			refs[x] = &ref
		}
		errs := map[string]int{}
		for _, o := range SlotOutcomes(buildStore(seqs).Range(slot), slot, nil, cfg) {
			slotTests++
			if o.Positive {
				slotShared++
			}
			if SlotTest(rng, seqs[o.Pair.A], seqs[o.Pair.B], slot, cfg) {
				slotPerPair++
			}
			dirTests++
			if d := DirectionTest(rng, seqs[o.Pair.A], seqs[o.Pair.B], slot, cfg); d.Valid && d.Positive {
				dirPerPair++
			}
			for _, dir := range [][2]string{{o.Pair.A, o.Pair.B}, {o.Pair.B, o.Pair.A}} {
				if s.closer(refs[dir[1]].sub, refs[dir[0]], cfg) {
					dirShared++
					errs[dir[0]]++
					worstRef = max(worstRef, errs[dir[0]])
				}
			}
		}
	}
	rate := func(n, of int) float64 { return float64(n) / float64(of) }
	t.Logf("slot tests: shared %d, per pair %d of %d; directions: shared %d of %d, per pair %d of %d; most errors against one reference: %d",
		slotShared, slotPerPair, slotTests, dirShared, 2*dirTests, dirPerPair, dirTests, worstRef)
	if slotTests != hours*sources*(sources-1)/2 {
		t.Fatalf("%d slot tests, want every pair of every hour", slotTests)
	}
	if a, b := rate(slotShared, slotTests), rate(slotPerPair, slotTests); a > 0.005 || math.Abs(a-b) > 0.005 {
		t.Errorf("independent pairs positive at %.4f with shared references, %.4f drawn per pair: want ≤ 0.005 and within 0.005", a, b)
	}
	if a, b := rate(dirShared, 2*dirTests), rate(dirPerPair, dirTests); a > 0.01 || b > 0.01 || math.Abs(a-b) > 0.005 {
		t.Errorf("independent directions positive at %.4f with shared references, %.4f drawn per pair: want ≤ 0.01 and within 0.005", a, b)
	}
	if dirShared == 0 || dirPerPair == 0 {
		t.Error("no direction erred under one of the schedules: the comparison measures nothing")
	}
}

// --- allocation budget and concurrency ---------------------------------------

// slotTestInputs is a busy hour: two applications of ~2000 logs, so both
// directions subsample.
func slotTestInputs() (a, b []logmodel.Millis, slot logmodel.TimeRange) {
	rng := rand.New(rand.NewSource(2104))
	slot = hourSlot()
	a, b = makeDependentPair(rng, slot, 0.55)
	return a, b, slot
}

// TestSlotTestAllocFree pins the kernel's allocation budget: on a warm
// scratch neither the single-pair slot test — seed, both directions — nor a
// direction of the miner's pair phase allocates, under every variant.
func TestSlotTestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	a, b, slot := slotTestInputs()
	total := pointproc.MergeSorted(a, b)
	s := scratchPool.New().(*scratch)
	for _, variant := range kernelVariants() {
		cfg := variant.withDefaults()
		cfg.TwoSided = true // never stop after the first direction
		var refA, refB sourceRef
		run := func() {
			s.rng.Seed(sourceSeed(cfg.Seed, slot.Start, "A"))
			s.slotTest(s.rng, a, b, total, slot, cfg)
		}
		pairPhase := func() {
			benchSink = s.closer(refA.sub, &refB, cfg) && s.closer(refB.sub, &refA, cfg)
		}
		run() // grow the buffers, fill the index table
		refA, refB = s.drawSource(s.rng, a, total, slot, cfg), s.drawSource(s.rng, b, total, slot, cfg)
		pairPhase()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("stat=%d dist=%d ref=%d: %v allocations per single-pair test, want 0", cfg.Statistic, cfg.Distance, cfg.Reference, allocs)
		}
		if allocs := testing.AllocsPerRun(200, pairPhase); allocs != 0 {
			t.Errorf("stat=%d dist=%d ref=%d: %v allocations per pair-phase test, want 0", cfg.Statistic, cfg.Distance, cfg.Reference, allocs)
		}
	}
}

// manySources is one hour of n mutually independent Poisson sources whose
// rates climb from 0.02/s by 0.03/s a source — S00 … — as slot entries.
func manySources(rng *rand.Rand, slot logmodel.TimeRange, n int) map[string][]logmodel.Millis {
	seqs := map[string][]logmodel.Millis{}
	for i := 0; i < n; i++ {
		seqs[fmt.Sprintf("S%02d", i)] = pointproc.Homogeneous(rng, slot, 0.02+0.03*float64(i))
	}
	return seqs
}

// TestSlotOutcomesAllocBudget pins the miner's per-slot budget: what a slot
// allocates is a function of its entries and eligible sources — the index,
// one reference each, a subsample for a source above SampleSize — and not of
// its pair count. The same entries mined with 8 and with 24 eligible sources
// (28 and 276 pairs) differ by less than two allocations per added source.
func TestSlotOutcomesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	slot := hourSlot()
	seqs := manySources(rand.New(rand.NewSource(2107)), slot, 24)
	entries := buildStore(seqs).Range(slot)
	allocs := func(minLogs, wantPairs int) float64 {
		cfg := Config{MinLogs: minLogs, Workers: 1}
		if got := len(SlotOutcomes(entries, slot, nil, cfg)); got != wantPairs {
			t.Fatalf("MinLogs %d: %d pairs, want %d", minLogs, got, wantPairs)
		}
		return testing.AllocsPerRun(20, func() { SlotOutcomes(entries, slot, nil, cfg) })
	}
	few, many := allocs(len(seqs["S16"])-20, 8*7/2), allocs(1, 24*23/2)
	if many-few >= 2*16 {
		t.Errorf("%v allocations for 276 pairs, %v for 28 over the same entries: the budget grows with the pair count", many, few)
	}
}

// TestSlotOutcomesWorkersEquivalent: Workers 1 ≡ 8 on one slot with many
// pairs, so that under -race the scratch pool and the index table are used
// from several goroutines at once.
func TestSlotOutcomesWorkersEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(2105))
	slot := hourSlot()
	seqs := manySources(rng, slot, 12)
	seqs["S00-echo"] = nil
	for _, ts := range seqs["S00"] {
		seqs["S00-echo"] = append(seqs["S00-echo"], ts+logmodel.Millis(10+rng.Intn(40)))
	}
	entries := buildStore(seqs).Range(slot)
	for _, variant := range []Config{{}, {Reference: RefTotalActivity, Statistic: StatMean}} {
		cfg := variant
		cfg.MinLogs, cfg.Seed, cfg.Workers = 20, 5, 1
		want := SlotOutcomes(entries, slot, nil, cfg)
		if len(want) != 13*12/2 {
			t.Fatalf("%d outcomes, want every pair of 13 sources", len(want))
		}
		positives := 0
		for _, o := range want {
			if o.Positive {
				positives++
			}
		}
		if positives == 0 || positives == len(want) {
			t.Errorf("%d of %d pairs positive: the comparison would not see a wrong outcome", positives, len(want))
		}
		cfg.Workers = 8
		for round := 0; round < 3; round++ {
			if got := SlotOutcomes(entries, slot, nil, cfg); !slices.Equal(got, want) {
				t.Fatalf("Workers 8 outcomes differ from Workers 1 (round %d)", round)
			}
		}
	}
}

var benchSink bool

// BenchmarkSlotTest measures the single-pair slot test (SlotTest, the load
// study's unit) on a pooled scratch: seed the generator, test both directions.
func BenchmarkSlotTest(b *testing.B) {
	x, y, slot := slotTestInputs()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := scratchPool.Get().(*scratch)
		s.rng.Seed(sourceSeed(cfg.Seed, slot.Start+logmodel.Millis(i), "A"))
		benchSink = s.slotTest(s.rng, x, y, nil, slot, cfg)
		scratchPool.Put(s)
	}
}

// BenchmarkSlotOutcomes measures the miner's unit: one slot of 24 sources —
// 24 references drawn, 276 pairs tested — at Workers 1.
func BenchmarkSlotOutcomes(b *testing.B) {
	slot := hourSlot()
	entries := buildStore(manySources(rand.New(rand.NewSource(2107)), slot, 24)).Range(slot)
	cfg := DefaultConfig()
	cfg.MinLogs, cfg.Workers = 1, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot.Start = logmodel.Millis(-i) // a new seed per iteration
		benchSink = len(SlotOutcomes(entries, slot, nil, cfg)) > 0
	}
}
