package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of v by linear
// interpolation between closest ranks, 0 for an empty sample. p = 50 is
// the median; for an even count that is the mean of the two middle values.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

// median is percentile(v, 50).
func median(v []float64) float64 { return percentile(v, 50) }

// quartileSpread returns (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method: rank
// i·(n+1)/4, clamped to the sample) — the spread the driver holds each
// end-to-end metric's bound against. 0 for fewer than two values or a zero
// median.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1)) // 1-based lower rank, clamped to the sample
		d := float64(i*(n+1)-j*4) / 4    // beyond [0, 1] once clamped: Python extrapolates
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 { //lint:allow floateq guards the division below; an exactly-zero median only arises from all-zero samples
		return 0
	}
	return (q(3) - q(1)) / m
}

// ms converts a nanosecond duration to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// sec converts a nanosecond duration to seconds.
func sec(ns int64) float64 { return float64(ns) / 1e9 }

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
