package stats

import "math"

// MeanCI returns the Student-t confidence interval for the mean of xs at
// the given level. It backs the Li & Ma variant of the L1 slot test (their
// ICDM'04 algorithm tests a difference of means; the paper replaces it with
// the robust median test). It returns ErrShortSample for fewer than two
// points and ErrBadLevel for a level outside (0, 1).
func MeanCI(xs []float64, level float64) (CI, error) {
	if level <= 0 || level >= 1 {
		return CI{}, ErrBadLevel
	}
	n := len(xs)
	if n < 2 {
		return CI{}, ErrShortSample
	}
	m := Mean(xs)
	se := StdDev(xs) / math.Sqrt(float64(n))
	t := StudentTQuantile(1-(1-level)/2, n-1)
	return CI{Low: m - t*se, High: m + t*se, Level: level}, nil
}
