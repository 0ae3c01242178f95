package stats

import (
	"errors"
	"math"
	"sort"
)

// Common errors returned by the package.
var (
	// ErrEmpty indicates an empty input sample.
	ErrEmpty = errors.New("stats: empty sample")
	// ErrBadLevel indicates a confidence level outside (0, 1).
	ErrBadLevel = errors.New("stats: confidence level must be in (0, 1)")
	// ErrShortSample indicates a sample too small for the requested method.
	ErrShortSample = errors.New("stats: sample too small")
	// ErrMismatch indicates paired samples of different lengths.
	ErrMismatch = errors.New("stats: paired samples have different lengths")
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	// Kahan summation: the evaluation harness sums long series of small
	// per-slot values where naive summation loses precision.
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs. It returns 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 for samples of size < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SortedCopy returns a sorted copy of xs, leaving xs untouched.
func SortedCopy(xs []float64) []float64 {
	ys := make([]float64, len(xs))
	copy(ys, xs)
	sort.Float64s(ys)
	return ys
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of the sorted sample using
// linear interpolation between order statistics (type 7, the R default).
// The input must be sorted; Quantile panics on an empty sample.
func Quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: Quantile of empty sample")
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Median returns the median of the sorted sample.
func Median(sorted []float64) float64 { return Quantile(sorted, 0.5) }

// MedianOf sorts a copy of xs and returns its median.
func MedianOf(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: MedianOf empty sample")
	}
	return Median(SortedCopy(xs))
}

// FiveNum is the five-number summary backing a boxplot: the sample extremes,
// the quartiles and the median (figure 2 of the paper shows boxplots of the
// distance samples used by approach L1).
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summary returns the five-number summary of the sorted sample.
func Summary(sorted []float64) FiveNum {
	return FiveNum{
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Median(sorted),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
}
