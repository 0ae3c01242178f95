package stats

import (
	"math/rand"
	"sort"
	"testing"
)

func TestKSSurvivalBounds(t *testing.T) {
	if p := ksSurvival(0); p != 1 {
		t.Errorf("Q(0) = %v", p)
	}
	if p := ksSurvival(10); p > 1e-10 {
		t.Errorf("Q(10) = %v", p)
	}
	// Known value: Q(0.8276) ≈ 0.5 (the Kolmogorov distribution median).
	if p := ksSurvival(0.8276); p < 0.48 || p > 0.52 {
		t.Errorf("Q(median) = %v", p)
	}
}

func TestKSTestTwoSampleSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 200)
	b := make([]float64, 150)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sort.Float64s(a)
	sort.Float64s(b)
	res, err := KSTestTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.01 {
		t.Errorf("same-distribution samples rejected: %+v", res)
	}
}

func TestKSTestTwoSampleShiftRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64() + 2
	}
	sort.Float64s(a)
	sort.Float64s(b)
	res, err := KSTestTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue >= 0.001 {
		t.Errorf("2-sigma shift not rejected: %+v", res)
	}
	if res.D <= 0.3 {
		t.Errorf("D = %v, want a large distance", res.D)
	}
}

func TestKSTestTwoSampleTiesAndErrors(t *testing.T) {
	// Identical discrete samples: zero distance, p-value 1.
	a := []float64{1, 1, 2, 2, 3}
	res, err := KSTestTwoSample(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 {
		t.Errorf("identical samples: D = %v, want 0", res.D)
	}
	if _, err := KSTestTwoSample(nil, a); err == nil {
		t.Error("empty first sample accepted")
	}
	if _, err := KSTestTwoSample(a, nil); err == nil {
		t.Error("empty second sample accepted")
	}
}

func TestKSTestTwoSampleNullCalibration(t *testing.T) {
	// Under the null, P(p < 0.05) should be near 0.05 — the effective-n
	// correction is what keeps the small-sample two-sample form honest.
	rng := rand.New(rand.NewSource(13))
	reject := 0
	const trials = 400
	for tr := 0; tr < trials; tr++ {
		a := make([]float64, 12)
		b := make([]float64, 36)
		for i := range a {
			a[i] = rng.Float64()
		}
		for i := range b {
			b[i] = rng.Float64()
		}
		sort.Float64s(a)
		sort.Float64s(b)
		res, err := KSTestTwoSample(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.PValue < 0.05 {
			reject++
		}
	}
	rate := float64(reject) / trials
	if rate > 0.10 {
		t.Errorf("null rejection rate %.3f at alpha 0.05: anti-conservative", rate)
	}
}
