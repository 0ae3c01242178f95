package stats

// Histogram is a fixed-width binned count of a sample over [Low, High). It
// backs the Agrawal et al. delay-histogram baseline (§2.1 of the paper):
// delays between the activity of dependent components pile up in a few bins
// while delays of independent components are close to uniform.
type Histogram struct {
	Low, High float64
	Counts    []int64
	// Underflow and Overflow count observations outside [Low, High).
	Underflow, Overflow int64
}

// NewHistogram creates a histogram with the given number of bins covering
// [low, high). It panics for bins ≤ 0 or high ≤ low.
func NewHistogram(low, high float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	if high <= low {
		panic("stats: NewHistogram requires high > low")
	}
	return &Histogram{Low: low, High: high, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Low:
		h.Underflow++
	case x >= h.High:
		h.Overflow++
	default:
		i := int((x - h.Low) / (h.High - h.Low) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard against floating point edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// N returns the number of in-range observations.
func (h *Histogram) N() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// UniformityResult is the outcome of a chi-squared goodness-of-fit test of a
// histogram against the uniform distribution.
type UniformityResult struct {
	// X2 is the chi-squared statistic Σ (O−E)²/E.
	X2 float64
	// DF is the degrees of freedom (bins − 1).
	DF int
	// PValue is the tail probability of X2.
	PValue float64
	// N is the number of observations tested.
	N int64
}

// ChiSquaredUniformity tests the in-range counts of h against a uniform
// distribution over the bins. Bins are merged pairwise from the right when
// the expected count per bin would fall below 5 (the usual validity
// condition). It returns ErrShortSample when fewer than two effective bins
// or fewer than 10 observations remain.
func ChiSquaredUniformity(h *Histogram) (UniformityResult, error) {
	n := h.N()
	if n < 10 {
		return UniformityResult{}, ErrShortSample
	}
	counts := make([]int64, len(h.Counts))
	copy(counts, h.Counts)
	// Merge adjacent bins until expected ≥ 5.
	for len(counts) > 1 && float64(n)/float64(len(counts)) < 5 {
		merged := make([]int64, 0, (len(counts)+1)/2)
		for i := 0; i < len(counts); i += 2 {
			if i+1 < len(counts) {
				merged = append(merged, counts[i]+counts[i+1])
			} else {
				merged = append(merged, counts[i])
			}
		}
		counts = merged
	}
	k := len(counts)
	if k < 2 {
		return UniformityResult{}, ErrShortSample
	}
	e := float64(n) / float64(k)
	var x2 float64
	for _, c := range counts {
		d := float64(c) - e
		x2 += d * d / e
	}
	df := k - 1
	return UniformityResult{X2: x2, DF: df, PValue: ChiSquaredSF(x2, df), N: n}, nil
}

// NonUniform reports whether the test rejects uniformity at significance
// level alpha.
func (u UniformityResult) NonUniform(alpha float64) bool { return u.PValue < alpha }
