package l1

import (
	"math/rand"
	"slices"
	"sync"

	"logscape/internal/logmodel"
	"logscape/internal/pointproc"
	"logscape/internal/stats"
)

// scratch is the working memory of one pair test, reused so that the slot
// test allocates nothing once its buffers have grown. One goroutine at a
// time uses a scratch; scratchPool hands them out.
type scratch struct {
	// rng is Seeded in place per pair test by SlotOutcomes, which leaves it
	// in the state rand.New(rand.NewSource(seed)) starts in.
	rng    *rand.Rand
	points []logmodel.Millis // the random reference points
	sub    []logmodel.Millis // the subsample of b
	marks  []bool            // pointproc.Subsample's working memory
	sr, sb []logmodel.Millis // the distance samples S_r and S_b
	secs   []float64         // StatMean: one sorted sample in seconds
}

var scratchPool = sync.Pool{New: func() any { return &scratch{rng: rand.New(rand.NewSource(0))} }}

// slotTest is the slot test of §3.1 for one pair: positive when both
// directions are. cfg has its defaults filled.
func (s *scratch) slotTest(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) bool {
	accepted := func(d DirectionResult) bool {
		return d.Valid && (d.Positive || cfg.TwoSided && d.Farther)
	}
	return accepted(s.direction(rng, b, a, total, slot, cfg)) && // distances of A's logs to B
		accepted(s.direction(rng, a, b, total, slot, cfg)) // distances of B's logs to A
}

// direction is one direction of the slot test under every Config variant.
// It leaves the distance samples in s.sr and s.sb, in no order, and the
// result's sample fields empty. cfg has its defaults filled.
func (s *scratch) direction(rng *rand.Rand, a, b, total []logmodel.Millis, slot logmodel.TimeRange, cfg Config) DirectionResult {
	dist := pointproc.DistNearest
	if cfg.Distance == DistNext {
		dist = pointproc.DistNext
	}
	if cfg.Reference == RefTotalActivity && len(total) > 0 {
		s.points = resampleJittered(s.points[:0], rng, total, slot, cfg.SampleSize, cfg.ReferenceJitter)
	} else {
		s.points = pointproc.UniformPoints(s.points[:0], rng, slot, cfg.SampleSize)
	}
	s.sub, s.marks = pointproc.Subsample(s.sub[:0], s.marks, rng, b, cfg.SampleSize)
	s.sr = pointproc.DistanceSample(s.sr[:0], s.points, a, dist)
	s.sb = pointproc.DistanceSample(s.sb[:0], s.sub, a, dist)
	ciR, okR := s.interval(s.sr, cfg)
	ciB, okB := s.interval(s.sb, cfg)
	if !okR || !okB {
		return DirectionResult{}
	}
	return DirectionResult{
		RandomCI: ciR, CandidateCI: ciB,
		Valid: true, Positive: ciB.Below(ciR), Farther: ciR.Below(ciB),
	}
}

// interval returns the cfg.Statistic confidence interval of the distance
// sample d, reordering d. The median's is [x_(j), x_(k)] with (j, k) a
// function of (len(d), level) alone, so d is not sorted: the two are
// selected, and only they are converted — Seconds is monotone, so an order
// statistic of the integers is that order statistic of the seconds.
func (s *scratch) interval(d []logmodel.Millis, cfg Config) (stats.CI, bool) {
	if cfg.Statistic == StatMean {
		// A float sum depends on its order, and the mean's is the sorted one.
		s.secs = sortedSeconds(s.secs[:0], d)
		ci, err := stats.MeanCI(s.secs, cfg.Level)
		return ci, err == nil
	}
	j, k, ok := stats.MedianCIIndices(len(d), cfg.Level)
	if !ok {
		return stats.CI{}, false
	}
	high := selectNth(d, k-1)
	low := selectNth(d[:k-1], j-1) // j < k, and x_(j) now lies before x_(k)
	return stats.CI{Low: low.Seconds(), High: high.Seconds(), Level: cfg.Level}, true
}

// selectNth returns the i-th smallest element of d (0-based), reordering d
// so that it sits at d[i] with nothing larger before it and nothing smaller
// after it. This is Hoare's FIND as Wirth gives it: the pivot is d[i], and
// both scans stop at keys equal to it, so runs of ties split evenly.
func selectNth(d []logmodel.Millis, i int) logmodel.Millis {
	for lo, hi := 0, len(d)-1; lo < hi; {
		pivot := d[i]
		l, r := lo, hi
		for l <= r {
			for d[l] < pivot {
				l++
			}
			for pivot < d[r] {
				r--
			}
			if l <= r {
				d[l], d[r] = d[r], d[l]
				l++
				r--
			}
		}
		if r < i {
			lo = l
		}
		if i < l {
			hi = r
		}
	}
	return d[i]
}

// sortedSeconds sorts the distance sample d and appends it to dst in seconds.
func sortedSeconds(dst []float64, d []logmodel.Millis) []float64 {
	slices.Sort(d)
	for _, x := range d {
		dst = append(dst, x.Seconds())
	}
	return dst
}

// resampleJittered appends to dst n points drawn by resampling the
// total-activity timestamps with uniform jitter of ±j, clamped to the slot
// — an empirical non-homogeneous reference process whose intensity follows
// the overall load.
func resampleJittered(dst []logmodel.Millis, rng *rand.Rand, total []logmodel.Millis, slot logmodel.TimeRange, n int, j logmodel.Millis) []logmodel.Millis {
	for i := 0; i < n; i++ {
		t := total[rng.Intn(len(total))] + logmodel.Millis(rng.Int63n(int64(2*j+1))) - j
		if t < slot.Start {
			t = slot.Start
		}
		if t >= slot.End {
			t = slot.End - 1
		}
		dst = append(dst, t)
	}
	return dst
}
