package pointproc

import (
	"math"
	"math/rand"
	"sort"

	"logscape/internal/logmodel"
)

// DistNearest returns dist(t, A) as defined by equation (1) of the paper:
// the smallest absolute difference between t and any point of the sorted
// sequence a. It returns math.MaxInt64 (as Millis) for an empty sequence.
func DistNearest(t logmodel.Millis, a []logmodel.Millis) logmodel.Millis {
	n := len(a)
	if n == 0 {
		return logmodel.Millis(math.MaxInt64)
	}
	i := sort.Search(n, func(j int) bool { return a[j] >= t })
	best := logmodel.Millis(math.MaxInt64)
	if i < n {
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
	n := len(a)
	i := sort.Search(n, func(j int) bool { return a[j] >= t })
	if i == n {
		return logmodel.Millis(math.MaxInt64)
	}
	return a[i] - t
}

// DistanceSample computes dist(p, a) for every point p of points, using the
// given distance function (DistNearest or DistNext), and returns the
// distances as float64 seconds. Points whose distance is undefined
// (MaxInt64) are skipped.
func DistanceSample(points, a []logmodel.Millis,
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

// UniformPoints draws n independent uniform random points in [r.Start,
// r.End) — the random sample S_r of §3.1. The result is unsorted.
func UniformPoints(rng *rand.Rand, r logmodel.TimeRange, n int) []logmodel.Millis {
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

// Subsample returns at most n points of a chosen uniformly without
// replacement, preserving order — the subsampling of B in §3.1 that bounds
// the cost of the per-slot test. When len(a) ≤ n the original slice is
// returned unchanged.
func Subsample(rng *rand.Rand, a []logmodel.Millis, n int) []logmodel.Millis {
	if n <= 0 {
		return nil
	}
	if len(a) <= n {
		return a
	}
	// Floyd's algorithm for a sorted sample of indices.
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
