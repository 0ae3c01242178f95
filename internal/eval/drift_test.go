package eval

import (
	"fmt"
	"reflect"
	"testing"

	"logscape/internal/obs"
)

// TestStationaryWeekFlagsNothing is the false-alarm property: a stationary,
// incident-free week must raise zero alerts across ten seeds. The learning
// horizon is stretched to cover the whole stream so genuine novelty — a
// rare dependency first exercised mid-week — is absorbed as catch-up rather
// than announced as a birth; everything still armed (deaths of established
// keys, flicker births, delay shifts) must stay quiet on stationary traffic.
func TestStationaryWeekFlagsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("ten seven-day simulations")
	}
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel() // runDriftStream builds everything it uses per call
			opts := DefaultDriftOptions(seed)
			opts.Days = 7
			opts.Detector.LearnBuckets = opts.Days * 24
			alerts, truth, _, err := runDriftStream(opts, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(truth) != 0 {
				t.Fatalf("incident-free run has %d truth points", len(truth))
			}
			for _, a := range alerts {
				t.Errorf("false alarm: %s", a)
			}
		})
	}
}

// TestDriftExperimentScorecard asserts the detection-quality floors of the
// scored scripted-incident experiment, and that the alerts are identical
// at any worker count and with metrics on or off.
func TestDriftExperimentScorecard(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-day scripted-incident simulation")
	}
	base, err := RunDriftExperiment(DefaultDriftOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scorecard:\n%s", base)
	if base.Precision < 0.9 {
		t.Errorf("precision = %.3f, want >= 0.9", base.Precision)
	}
	if base.Recall < 0.8 {
		t.Errorf("recall = %.3f, want >= 0.8", base.Recall)
	}
	k := base.TruthPoints
	if len(k) == 0 {
		t.Fatal("no truth points scored")
	}
	// Median detection latency within K+2 buckets of the scripted onset.
	maxLatency := float64(DefaultDriftOptions(1).Detector.K + 2)
	if base.MedianLatency < 0 || base.MedianLatency > maxLatency {
		t.Errorf("median latency = %.1f buckets, want [0, %.0f]", base.MedianLatency, maxLatency)
	}

	// Same corpus with maximal scan parallelism and metrics collection on:
	// the scorecard (alerts included) must be identical.
	opts := DefaultDriftOptions(1)
	opts.Workers = 8
	opts.Detector.Metrics = obs.New()
	par, err := RunDriftExperiment(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, par) {
		t.Errorf("scorecard differs with Workers=8 + metrics:\n%s\nvs\n%s", base, par)
	}
	if par.String() != base.String() {
		t.Error("rendered scorecards differ across worker counts")
	}
}
