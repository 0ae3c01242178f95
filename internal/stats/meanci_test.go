package stats

import (
	"math/rand"
	"testing"
)

func TestMeanCIBasics(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err != ErrShortSample {
		t.Errorf("short err = %v", err)
	}
	for _, lvl := range []float64{0, 1} {
		if _, err := MeanCI([]float64{1, 2, 3}, lvl); err != ErrBadLevel {
			t.Errorf("level %v err = %v", lvl, err)
		}
	}
	ci, err := MeanCI([]float64{1, 2, 3, 4, 5}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ci.Contains(3) {
		t.Errorf("CI %+v does not contain the sample mean", ci)
	}
	if ci.Level != 0.95 {
		t.Errorf("Level = %v", ci.Level)
	}
}

func TestMeanCICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const trials = 2000
	hit := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 20)
		for j := range xs {
			xs[j] = 5 + 2*rng.NormFloat64()
		}
		ci, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(5) {
			hit++
		}
	}
	cov := float64(hit) / trials
	if cov < 0.93 || cov > 0.97 {
		t.Errorf("coverage = %.3f, want ≈ 0.95", cov)
	}
}

// TestMeanVsMedianRobustness demonstrates why the paper replaced Li & Ma's
// mean with the median: one extreme outlier blows up the mean interval but
// barely moves the median interval.
func TestMeanVsMedianRobustness(t *testing.T) {
	xs := make([]float64, 0, 41)
	for i := 0; i < 40; i++ {
		xs = append(xs, 1+float64(i%7)*0.1)
	}
	xs = append(xs, 1e6) // heavy-tailed contamination
	sorted := SortedCopy(xs)
	meanCI, err := MeanCI(sorted, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	medCI, err := MedianCI(sorted, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if meanW, medW := meanCI.High-meanCI.Low, medCI.High-medCI.Low; meanW < 100*medW {
		t.Errorf("mean CI width %v not blown up vs median %v", meanW, medW)
	}
	if medCI.High > 2 {
		t.Errorf("median CI %+v should ignore the outlier", medCI)
	}
}
