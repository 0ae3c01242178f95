package stats

import (
	"math/rand"
	"testing"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(10)
	h.Add(11)
	if h.N() != 10 {
		t.Errorf("N = %d", h.N())
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under/over = %d/%d", h.Underflow, h.Overflow)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d = %d", i, c)
		}
	}
}

func TestHistogramEdgeExactlyHigh(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0)           // first bin
	h.Add(0.999999999) // last bin, not overflow
	if h.Counts[0] != 1 || h.Counts[3] != 1 || h.Overflow != 0 {
		t.Errorf("counts = %v overflow = %d", h.Counts, h.Overflow)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 5) },
		func() { NewHistogram(2, 1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestChiSquaredUniformityUniformData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHistogram(0, 1, 20)
	for i := 0; i < 5000; i++ {
		h.Add(rng.Float64())
	}
	res, err := ChiSquaredUniformity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.NonUniform(0.001) {
		t.Errorf("uniform data rejected: %+v", res)
	}
	if res.DF != 19 {
		t.Errorf("DF = %d", res.DF)
	}
}

func TestChiSquaredUniformityPeakedData(t *testing.T) {
	// The Agrawal-baseline signal: dependent delays concentrate in few bins.
	rng := rand.New(rand.NewSource(4))
	h := NewHistogram(0, 1, 20)
	for i := 0; i < 5000; i++ {
		h.Add(0.1 + 0.01*rng.NormFloat64())
	}
	res, err := ChiSquaredUniformity(h)
	if err != nil {
		t.Fatal(err)
	}
	if !res.NonUniform(0.001) {
		t.Errorf("peaked data not rejected: %+v", res)
	}
}

func TestChiSquaredUniformityMergesSparseBins(t *testing.T) {
	h := NewHistogram(0, 1, 64)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ { // 100/64 < 5 per bin → merge
		h.Add(rng.Float64())
	}
	res, err := ChiSquaredUniformity(h)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF >= 63 {
		t.Errorf("DF = %d, expected merged bins", res.DF)
	}
	if res.N != 100 {
		t.Errorf("N = %d", res.N)
	}
}

func TestChiSquaredUniformityShortSample(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	for i := 0; i < 5; i++ {
		h.Add(0.5)
	}
	if _, err := ChiSquaredUniformity(h); err != ErrShortSample {
		t.Errorf("err = %v", err)
	}
}

func TestUniformityNullCalibration(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const trials = 500
	rejected := 0
	for i := 0; i < trials; i++ {
		h := NewHistogram(0, 1, 10)
		for j := 0; j < 500; j++ {
			h.Add(rng.Float64())
		}
		res, err := ChiSquaredUniformity(h)
		if err != nil {
			t.Fatal(err)
		}
		if res.NonUniform(0.05) {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	if rate > 0.09 {
		t.Errorf("null rejection rate = %.3f", rate)
	}
}
