package stats

import (
	"math"
	"sort"
)

// WilcoxonResult is the outcome of a Wilcoxon signed rank test.
type WilcoxonResult struct {
	// WPlus is the sum of the ranks of the positive differences.
	WPlus float64
	// WMinus is the sum of the ranks of the negative differences.
	WMinus float64
	// N is the number of non-zero differences actually ranked.
	N int
	// PValue is the two-sided p-value. For N ≤ exactWilcoxonLimit it is
	// computed exactly by enumerating all 2^N sign assignments (which
	// handles ties in the absolute values correctly); beyond that a normal
	// approximation with tie correction is used.
	PValue float64
	// Exact reports whether PValue came from the exact enumeration.
	Exact bool
}

// exactWilcoxonLimit is the largest number of non-zero differences for which
// the sign-flip distribution is enumerated exactly (2^20 ≈ 1M terms).
const exactWilcoxonLimit = 20

// WilcoxonSignedRankDiffs runs the test on a sample of paired differences.
// Zero differences are dropped; it returns ErrEmpty when none remain.
func WilcoxonSignedRankDiffs(diffs []float64) (WilcoxonResult, error) {
	type absDiff struct {
		abs float64
		pos bool
	}
	ads := make([]absDiff, 0, len(diffs))
	for _, d := range diffs {
		if d != 0 {
			ads = append(ads, absDiff{abs: math.Abs(d), pos: d > 0})
		}
	}
	n := len(ads)
	if n == 0 {
		return WilcoxonResult{}, ErrEmpty
	}
	sort.Slice(ads, func(i, j int) bool { return ads[i].abs < ads[j].abs })
	// Midranks for ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && ads[j].abs == ads[i].abs { //lint:allow floateq midrank tie grouping requires exact equality of stored values
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		i = j
	}
	var wPlus, wMinus float64
	for i, ad := range ads {
		if ad.pos {
			wPlus += ranks[i]
		} else {
			wMinus += ranks[i]
		}
	}
	res := WilcoxonResult{WPlus: wPlus, WMinus: wMinus, N: n}
	if n <= exactWilcoxonLimit {
		res.PValue = exactSignFlipP(ranks, math.Min(wPlus, wMinus))
		res.Exact = true
	} else {
		res.PValue = wilcoxonNormalP(ranks, wPlus)
	}
	return res, nil
}

// exactSignFlipP enumerates all 2^n assignments of signs to the ranked
// absolute differences and returns the two-sided p-value: the probability
// that min(W+, W−) is at most the observed wMin.
func exactSignFlipP(ranks []float64, wMin float64) float64 {
	n := len(ranks)
	total := Sum(ranks)
	count := 0
	limit := 1 << uint(n)
	const eps = 1e-9
	for mask := 0; mask < limit; mask++ {
		var wp float64
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				wp += ranks[i]
			}
		}
		wm := total - wp
		if math.Min(wp, wm) <= wMin+eps {
			count++
		}
	}
	return float64(count) / float64(limit)
}

// wilcoxonNormalP returns the two-sided normal-approximation p-value with
// tie correction and continuity correction.
func wilcoxonNormalP(ranks []float64, wPlus float64) float64 {
	n := float64(len(ranks))
	mean := n * (n + 1) / 4
	// Variance with tie correction: Var = Σ r_i² / 4 (midranks encode the
	// tie correction already, since Σ r_i² = n(n+1)(2n+1)/6 − Σ(t³−t)/12
	// scaled by 4).
	var sumSq float64
	for _, r := range ranks {
		sumSq += r * r
	}
	sd := math.Sqrt(sumSq / 4)
	if sd == 0 {
		return 1
	}
	z := wPlus - mean
	// Continuity correction toward the mean.
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= sd
	return 2 * NormalSF(math.Abs(z))
}
