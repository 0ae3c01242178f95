package stats

import "math"

// Regression is the result of an ordinary least squares fit of the simple
// linear model y = Intercept + Slope·x. The paper uses this in §4.9 to
// regress the hourly detection percentages p1 and p2 of approaches L1 and
// L2 on the system load (number of logs) and inspects the confidence
// interval of the slope.
type Regression struct {
	Slope, Intercept float64
	// SlopeSE is the standard error of the slope estimate.
	SlopeSE float64
	// InterceptSE is the standard error of the intercept estimate.
	InterceptSE float64
	// R2 is the coefficient of determination.
	R2 float64
	// ResidualSD is the residual standard deviation (√(SSE/(n−2))).
	ResidualSD float64
	// N is the number of points fitted.
	N int
	// Residuals are y_i − ŷ_i in input order.
	Residuals []float64
}

// LinearRegression fits y = a + b·x by ordinary least squares. It returns
// ErrMismatch for samples of different length and ErrShortSample for fewer
// than three points (the slope CI needs n−2 ≥ 1 degrees of freedom).
func LinearRegression(x, y []float64) (Regression, error) {
	if len(x) != len(y) {
		return Regression{}, ErrMismatch
	}
	n := len(x)
	if n < 3 {
		return Regression{}, ErrShortSample
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy float64
	for i := range x {
		dx := x[i] - mx
		sxx += dx * dx
		sxy += dx * (y[i] - my)
	}
	if sxx == 0 {
		return Regression{}, ErrShortSample
	}
	b := sxy / sxx
	a := my - b*mx
	res := make([]float64, n)
	var sse, sst float64
	for i := range x {
		fit := a + b*x[i]
		r := y[i] - fit
		res[i] = r
		sse += r * r
		dy := y[i] - my
		sst += dy * dy
	}
	df := float64(n - 2)
	s := math.Sqrt(sse / df)
	r2 := 0.0
	if sst > 0 {
		r2 = 1 - sse/sst
	}
	return Regression{
		Slope:       b,
		Intercept:   a,
		SlopeSE:     s / math.Sqrt(sxx),
		InterceptSE: s * math.Sqrt(1/float64(n)+mx*mx/sxx),
		R2:          r2,
		ResidualSD:  s,
		N:           n,
		Residuals:   res,
	}, nil
}

// SlopeCI returns the confidence interval for the slope at the given level,
// using Student's t with n−2 degrees of freedom.
func (r Regression) SlopeCI(level float64) CI {
	t := StudentTQuantile(1-(1-level)/2, r.N-2)
	return CI{Low: r.Slope - t*r.SlopeSE, High: r.Slope + t*r.SlopeSE, Level: level}
}

// QQPoint is one point of a normal quantile-quantile plot.
type QQPoint struct {
	// Theoretical is the standard normal quantile for the plotting position.
	Theoretical float64
	// Sample is the corresponding standardized order statistic.
	Sample float64
}

// NormalQQ returns normal QQ-plot data for xs, standardized to zero mean and
// unit variance, using plotting positions (i − 0.5)/n. The paper verifies
// the §4.9 regression model "by the means of normal qqplots for the
// residuals"; eval reproduces that check numerically via QQCorrelation.
func NormalQQ(xs []float64) []QQPoint {
	n := len(xs)
	if n == 0 {
		return nil
	}
	sorted := SortedCopy(xs)
	m, sd := Mean(sorted), StdDev(sorted)
	if sd == 0 {
		sd = 1
	}
	pts := make([]QQPoint, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		pts[i] = QQPoint{
			Theoretical: NormalQuantile(p),
			Sample:      (sorted[i] - m) / sd,
		}
	}
	return pts
}

// QQCorrelation returns the Pearson correlation between the theoretical and
// sample quantiles of a normal QQ plot of xs — a scalar normality check
// (values near 1 indicate approximately normal residuals).
func QQCorrelation(xs []float64) float64 {
	pts := NormalQQ(xs)
	if len(pts) < 2 {
		return 0
	}
	tx := make([]float64, len(pts))
	sx := make([]float64, len(pts))
	for i, p := range pts {
		tx[i] = p.Theoretical
		sx[i] = p.Sample
	}
	return Correlation(tx, sx)
}

// Correlation returns the Pearson correlation coefficient of x and y. It
// returns 0 when either sample is constant or the lengths differ.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxx, syy, sxy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
