package stats

import (
	"math"
	"sync"
)

// CI is a two-sided confidence interval at the given confidence level.
type CI struct {
	Low, High float64
	// Level is the nominal confidence level requested, e.g. 0.95. The
	// achieved coverage of an order-statistic interval is at least Level
	// (it is a conservative, distribution-free interval).
	Level float64
}

// Contains reports whether v lies inside the interval (inclusive).
func (ci CI) Contains(v float64) bool { return v >= ci.Low && v <= ci.High }

// StrictlyPositive reports whether the whole interval lies above zero.
func (ci CI) StrictlyPositive() bool { return ci.Low > 0 }

// StrictlyNegative reports whether the whole interval lies below zero.
func (ci CI) StrictlyNegative() bool { return ci.High < 0 }

// Below reports whether this interval lies entirely below other, i.e. its
// upper bound is smaller than other's lower bound. This is the comparison
// approach L1 performs between the distance sample of the candidate
// dependent application and the random-point sample (§3.1: "If the upper
// bound of CI_b is below the lower bound for CI_r ...").
func (ci CI) Below(other CI) bool { return ci.High < other.Low }

// QuantileCIIndices returns 1-based order-statistic indices (j, k) such
// that [x_(j), x_(k)] is a distribution-free confidence interval for the
// p-quantile with coverage ≥ level. The interval follows Le Boudec's
// construction (the order-statistics method cited as [9] in the paper):
// P(x_(j) ≤ q_p ≤ x_(k)) = P(j ≤ B < k) with B ~ Binomial(n, p), and (j, k)
// are chosen as the tightest symmetric pair around np achieving the level.
//
// For n up to exactSearchLimit the pair is found by exact binomial search;
// beyond that the normal approximation
//
//	j = ⌊np − z·√(np(1−p))⌋, k = ⌈np + z·√(np(1−p))⌉ + 1
//
// is used. It returns ErrShortSample when no valid pair exists (the sample
// is too small to support the requested level, e.g. n < 6 for the median at
// 95%).
func QuantileCIIndices(n int, p, level float64) (j, k int, err error) {
	if n <= 0 {
		return 0, 0, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return 0, 0, ErrBadLevel
	}
	if p <= 0 || p >= 1 {
		return 0, 0, ErrBadLevel
	}
	// Feasibility: the widest possible interval [x_(1), x_(n)] has coverage
	// P(1 ≤ B ≤ n−1) = 1 − p^n − (1−p)^n.
	maxCover := 1 - math.Pow(p, float64(n)) - math.Pow(1-p, float64(n))
	if maxCover < level {
		return 0, 0, ErrShortSample
	}
	if n > exactSearchLimit {
		z := NormalQuantile(1 - (1-level)/2)
		np := float64(n) * p
		sd := math.Sqrt(np * (1 - p))
		j = int(math.Floor(np - z*sd))
		k = int(math.Ceil(np+z*sd)) + 1
		if j < 1 {
			j = 1
		}
		if k > n {
			k = n
		}
		return j, k, nil
	}
	// Exact search: start from the symmetric pair around np and widen the
	// side that gains the most coverage until the level is reached.
	np := float64(n) * p
	j = int(math.Floor(np))
	if j < 1 {
		j = 1
	}
	if j > n {
		j = n
	}
	k = j + 1
	if k > n {
		k = n
		j = n - 1
		if j < 1 {
			return 0, 0, ErrShortSample
		}
	}
	cover := func(j, k int) float64 {
		// P(j ≤ B ≤ k−1) = CDF(k−1) − CDF(j−1)
		return BinomialCDF(n, k-1, p) - BinomialCDF(n, j-1, p)
	}
	for cover(j, k) < level {
		canLeft := j > 1
		canRight := k < n
		if !canLeft && !canRight {
			return 0, 0, ErrShortSample
		}
		gainLeft, gainRight := -1.0, -1.0
		if canLeft {
			gainLeft = BinomialPMF(n, j-1, p)
		}
		if canRight {
			gainRight = BinomialPMF(n, k-1, p)
		}
		if gainLeft >= gainRight {
			j--
		} else {
			k++
		}
	}
	return j, k, nil
}

// exactSearchLimit is the largest n QuantileCIIndices searches exactly.
const exactSearchLimit = 2000

// medianCIMemo holds what MedianCIIndices has computed: (n, level's bits)
// to (j, k), (0, 0) where QuantileCIIndices returns an error.
var (
	medianCIMu   sync.RWMutex
	medianCIMemo = make(map[[2]uint64][2]int)
)

// MedianCIIndices returns QuantileCIIndices(n, 0.5, level), with ok false
// where that returns an error. The pair is a pure function of (n, level), so
// over the exact-search range — a binomial search through the incomplete
// beta function per call — it is computed once and looked up after: the L1
// slot test asks four times per pair test, mostly for one n.
func MedianCIIndices(n int, level float64) (j, k int, ok bool) {
	if n <= 0 || n > exactSearchLimit { // an error or a closed form: nothing to save
		j, k, err := QuantileCIIndices(n, 0.5, level)
		return j, k, err == nil
	}
	key := [2]uint64{uint64(n), math.Float64bits(level)}
	medianCIMu.RLock()
	jk, hit := medianCIMemo[key]
	medianCIMu.RUnlock()
	if !hit {
		if j, k, err := QuantileCIIndices(n, 0.5, level); err == nil {
			jk = [2]int{j, k}
		}
		medianCIMu.Lock()
		medianCIMemo[key] = jk
		medianCIMu.Unlock()
	}
	return jk[0], jk[1], jk[0] > 0
}

// QuantileCI returns a distribution-free confidence interval for the
// p-quantile of the distribution underlying the sorted sample, with coverage
// at least level. The sample must be sorted in non-decreasing order.
func QuantileCI(sorted []float64, p, level float64) (CI, error) {
	j, k, err := QuantileCIIndices(len(sorted), p, level)
	if err != nil {
		return CI{}, err
	}
	return CI{Low: sorted[j-1], High: sorted[k-1], Level: level}, nil
}

// MedianCI returns a distribution-free confidence interval for the median of
// the distribution underlying the sorted sample, with coverage ≥ level.
// This is the "robust order statistics method" of the paper's approach L1.
func MedianCI(sorted []float64, level float64) (CI, error) {
	return QuantileCI(sorted, 0.5, level)
}

// MedianCIOf sorts a copy of xs and returns MedianCI of the result.
func MedianCIOf(xs []float64, level float64) (CI, error) {
	return MedianCI(SortedCopy(xs), level)
}
