package stats

import "math"

// This file implements the special functions underlying the hypothesis
// tests: the standard normal distribution, the regularized incomplete gamma
// function (for chi-squared tail probabilities) and the regularized
// incomplete beta function (for Student's t).

// NormalCDF returns P(Z ≤ z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the survival function P(Z > z) for a standard normal Z.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// NormalQuantile returns the p-quantile of the standard normal distribution
// using Acklam's rational approximation refined by one Halley step, giving
// close to machine precision across (0, 1). It panics for p outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: NormalQuantile requires p in (0, 1)")
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One step of Halley's method against the exact CDF.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// GammaQ returns the regularized upper incomplete gamma function Q(a, x).
func GammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 {
		panic("stats: GammaQ requires a > 0 and x ≥ 0")
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

// gammaSeries evaluates P(a, x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a, x) by its continued fraction (modified Lentz),
// valid for x ≥ a+1.
func gammaCF(a, x float64) float64 {
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquaredSF returns the tail probability P(X > x) for a chi-squared
// variable with df degrees of freedom — the p-value of an observed statistic.
func ChiSquaredSF(x float64, df int) float64 {
	if x <= 0 {
		return 1
	}
	return GammaQ(float64(df)/2, x/2)
}

// BetaInc returns the regularized incomplete beta function I_x(a, b).
// It panics for a ≤ 0, b ≤ 0 or x outside [0, 1].
func BetaInc(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 {
		panic("stats: BetaInc requires a, b > 0 and x in [0, 1]")
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for BetaInc (modified Lentz).
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T ≤ t) for Student's t distribution with df degrees
// of freedom.
func StudentTCDF(t float64, df int) float64 {
	if df <= 0 {
		panic("stats: StudentTCDF requires df > 0")
	}
	v := float64(df)
	x := v / (v + t*t)
	p := 0.5 * BetaInc(v/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the p-quantile of Student's t distribution with
// df degrees of freedom, computed by bisection on the CDF.
func StudentTQuantile(p float64, df int) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: StudentTQuantile requires p in (0, 1)")
	}
	if p == 0.5 {
		return 0
	}
	// Bracket using the normal quantile scaled generously.
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentTCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(lo)) {
			break
		}
	}
	return (lo + hi) / 2
}

// LogChoose returns log(n choose k) using log-gamma, valid for large n.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	return math.Exp(LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// BinomialCDF returns P(X ≤ k) for X ~ Binomial(n, p), computed through the
// regularized incomplete beta function for numerical stability at large n.
func BinomialCDF(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	return BetaInc(float64(n-k), float64(k+1), 1-p)
}
