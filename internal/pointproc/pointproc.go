package pointproc

import (
	"math"
	"math/rand"

	"logscape/internal/logmodel"
)

// lowerBound returns the index of the first point of the sorted sequence a
// at or after t (len(a) when there is none). It halves a window that holds
// the answer without branching on the comparison (lt compiles to a SETcc),
// which for the slot test's random points would mispredict every other time.
func lowerBound(a []logmodel.Millis, t logmodel.Millis) int {
	base, n := 0, len(a)
	for n > 1 {
		half, lt := n>>1, 0
		if a[base+half-1] < t {
			lt = 1
		}
		base += half & -lt
		n -= half
	}
	if n == 1 && a[base] < t {
		base++
	}
	return base
}

// DistNearest returns dist(t, A) as defined by equation (1) of the paper:
// the smallest absolute difference between t and any point of the sorted
// sequence a. It returns math.MaxInt64 (as Millis) for an empty sequence.
func DistNearest(t logmodel.Millis, a []logmodel.Millis) logmodel.Millis {
	i := lowerBound(a, t)
	best := logmodel.Millis(math.MaxInt64)
	if i < len(a) {
		best = a[i] - t
	}
	if i > 0 {
		if d := t - a[i-1]; d < best {
			best = d
		}
	}
	return best
}

// DistNext returns the distance from t to the next arrival in a at or after
// t — the variant used by Li & Ma's original algorithm, kept for the
// ablation in DESIGN.md (§5.2). It returns math.MaxInt64 when no later
// arrival exists.
func DistNext(t logmodel.Millis, a []logmodel.Millis) logmodel.Millis {
	i := lowerBound(a, t)
	if i == len(a) {
		return logmodel.Millis(math.MaxInt64)
	}
	return a[i] - t
}

// DistanceSample appends dist(p, a) to dst for every point p of points,
// using the given distance function (DistNearest or DistNext): one binary
// search of the sorted a per point, in any order of points — the L1 slot
// test's random reference points, which are unsorted. Points whose distance
// is undefined (MaxInt64) are skipped. Distances stay integer milliseconds:
// the L1 slot test reads two order statistics of a sample and converts only
// those. Sorted points take DistanceWalk instead.
func DistanceSample(dst, points, a []logmodel.Millis,
	dist func(logmodel.Millis, []logmodel.Millis) logmodel.Millis) []logmodel.Millis {
	for _, p := range points {
		if d := dist(p, a); d != logmodel.Millis(math.MaxInt64) {
			dst = append(dst, d)
		}
	}
	return dst
}

// DistanceWalk is DistanceSample for sorted points, with DistNext when next
// is set and DistNearest otherwise: one forward merge walk over points and
// the sorted a finds each point's first arrival at or after it, where
// DistanceSample searches for it. It appends the same distances in the
// same order, skipping the undefined ones alike. The walk is linear in
// len(points) + len(a); galloping over a measured no faster on the L1 slot
// test's subsamples (DESIGN.md §5).
func DistanceWalk(dst, points, a []logmodel.Millis, next bool) []logmodel.Millis {
	const undefined = logmodel.Millis(math.MaxInt64)
	i := 0
	for _, p := range points {
		for i < len(a) && a[i] < p {
			i++
		}
		d := undefined
		if i < len(a) {
			d = a[i] - p
		}
		if !next && i > 0 {
			if e := p - a[i-1]; e < d {
				d = e
			}
		}
		if d != undefined {
			dst = append(dst, d)
		}
	}
	return dst
}

// UniformPoints appends to dst n independent uniform random points in
// [r.Start, r.End) — the random sample S_r of §3.1, unsorted. An empty range
// appends nothing and draws nothing.
func UniformPoints(dst []logmodel.Millis, rng *rand.Rand, r logmodel.TimeRange, n int) []logmodel.Millis {
	d := int64(r.Duration())
	if d <= 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.Start+logmodel.Millis(rng.Int63n(d)))
	}
	return dst
}

// Subsample appends to dst at most n points of a chosen uniformly without
// replacement, preserving order — the subsampling of B in §3.1 that bounds
// the cost of the per-slot test. When len(a) ≤ n that is all of a, and
// nothing is drawn. marks is Subsample's working memory, all false between
// calls; it is returned, grown to len(a) if it was shorter, for the next
// call.
func Subsample(dst []logmodel.Millis, marks []bool, rng *rand.Rand, a []logmodel.Millis, n int) ([]logmodel.Millis, []bool) {
	if len(a) <= n {
		return append(dst, a...), marks
	}
	if len(marks) < len(a) {
		marks = make([]bool, len(a))
	}
	// Floyd's algorithm: round j marks one index in [0, j] not yet marked.
	for j := len(a) - n; j < len(a); j++ {
		k := rng.Intn(j + 1)
		if marks[k] {
			k = j
		}
		marks[k] = true
	}
	for i, m := range marks[:len(a)] {
		if m {
			marks[i] = false
			dst = append(dst, a[i])
		}
	}
	return dst, marks
}

// Homogeneous generates a homogeneous Poisson process with the given rate
// (events per second) over r. The result is sorted.
func Homogeneous(rng *rand.Rand, r logmodel.TimeRange, rate float64) []logmodel.Millis {
	if rate <= 0 || r.End <= r.Start {
		return nil
	}
	var out []logmodel.Millis
	t := float64(r.Start)
	for {
		t += rng.ExpFloat64() / rate * 1000 // rate is per second, t in ms
		if t >= float64(r.End) {
			return out
		}
		out = append(out, logmodel.Millis(t))
	}
}

// IntensityFunc maps a time to an instantaneous rate in events per second.
type IntensityFunc func(t logmodel.Millis) float64

// NonHomogeneous generates a non-homogeneous Poisson process over r with
// the given intensity function by thinning against maxRate (events per
// second), which must dominate the intensity everywhere on r; intensities
// above maxRate are clipped. The result is sorted.
func NonHomogeneous(rng *rand.Rand, r logmodel.TimeRange, intensity IntensityFunc, maxRate float64) []logmodel.Millis {
	if maxRate <= 0 || r.End <= r.Start {
		return nil
	}
	var out []logmodel.Millis
	t := float64(r.Start)
	for {
		t += rng.ExpFloat64() / maxRate * 1000
		if t >= float64(r.End) {
			return out
		}
		m := logmodel.Millis(t)
		if rng.Float64()*maxRate < intensity(m) {
			out = append(out, m)
		}
	}
}

// MergeSorted merges two sorted timestamp sequences into one sorted
// sequence.
func MergeSorted(a, b []logmodel.Millis) []logmodel.Millis {
	out := make([]logmodel.Millis, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
