package stats

import "math"

// KSResult is the outcome of a Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two
	// empirical CDFs.
	D float64
	// PValue is the asymptotic p-value (Kolmogorov distribution with the
	// finite-n correction of Stephens).
	PValue float64
	// N is the sample size.
	N int
}

// KSTestTwoSample tests whether two sorted samples were drawn from the
// same distribution (two-sample Kolmogorov–Smirnov). D is the supremum
// distance between the two empirical CDFs; the p-value uses the Kolmogorov
// asymptotic with the effective sample size n·m/(n+m) and Stephens'
// finite-sample adjustment — the correction that makes the test honest
// when the reference CDF is itself estimated from a sample.
func KSTestTwoSample(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrEmpty
	}
	na, nb := float64(len(a)), float64(len(b))
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			if b[j] <= a[i] {
				// Tied value: advance both runs of it before comparing the
				// CDFs (a step shared by both samples is not a distance).
				x := a[i]
				for i < len(a) && a[i] <= x {
					i++
				}
				for j < len(b) && b[j] <= x {
					j++
				}
			} else {
				i++
			}
		} else {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	ne := na * nb / (na + nb)
	sqrtNe := math.Sqrt(ne)
	lambda := (sqrtNe + 0.12 + 0.11/sqrtNe) * d
	return KSResult{D: d, PValue: ksSurvival(lambda), N: int(ne)}, nil
}

// ksSurvival evaluates the Kolmogorov distribution tail
// Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²λ²).
func ksSurvival(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
