package stream

import (
	"reflect"
	"sort"
	"testing"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/logmodel"
	"logscape/internal/sessions"
)

func driftDir() *directory.Directory {
	return &directory.Directory{Version: 1, Groups: []directory.Group{
		{ID: "DPIREG", RootURL: "http://reg.hug/reg"},
	}}
}

func driftEntry(t logmodel.Millis, src, user, msg string) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: src, Host: "h", User: user,
		Severity: logmodel.SevInfo, Message: msg}
}

func TestL3DriftFeatures(t *testing.T) {
	wcfg := Config{BucketWidth: logmodel.MillisPerSecond, WindowBuckets: 4}
	m := NewL3(wcfg, l3.NewMiner(driftDir(), l3.DefaultConfig()))
	m.TrackDrift(true)
	b := Bucket{Index: 0, Range: logmodel.TimeRange{Start: 0, End: 1000}, Entries: []logmodel.Entry{
		driftEntry(100, "A", "u", "call DPIREG start"),
		driftEntry(400, "A", "u", "call DPIREG again"),
		driftEntry(900, "A", "u", "call DPIREG done"),
		driftEntry(950, "B", "u", "nothing cited"),
	}}
	m.Advance(b)
	f := m.DriftFeatures()
	if !reflect.DeepEqual(f.Active, []string{"A->DPIREG"}) {
		t.Fatalf("active = %v", f.Active)
	}
	if !reflect.DeepEqual(f.Delays["A->DPIREG"], []float64{300, 500}) {
		t.Fatalf("delays = %v", f.Delays)
	}
	// An empty bucket clears the features.
	m.Advance(Bucket{Index: 1, Range: logmodel.TimeRange{Start: 1000, End: 2000}})
	f = m.DriftFeatures()
	if len(f.Active) != 0 || len(f.Delays) != 0 {
		t.Fatalf("features after empty bucket: %+v", f)
	}
}

func TestL3DriftFeaturesOffByDefault(t *testing.T) {
	wcfg := Config{BucketWidth: logmodel.MillisPerSecond, WindowBuckets: 4}
	m := NewL3(wcfg, l3.NewMiner(driftDir(), l3.DefaultConfig()))
	m.Advance(Bucket{Index: 0, Range: logmodel.TimeRange{Start: 0, End: 1000},
		Entries: []logmodel.Entry{driftEntry(100, "A", "u", "call DPIREG start")}})
	f := m.DriftFeatures()
	if len(f.Active) != 0 || len(f.Delays) != 0 {
		t.Fatalf("features tracked while disabled: %+v", f)
	}
}

func TestL2DriftFeatures(t *testing.T) {
	wcfg := Config{BucketWidth: logmodel.MillisPerSecond, WindowBuckets: 4}
	m := NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2},
		l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2})
	m.TrackDrift(true)
	m.Advance(Bucket{Index: 0, Range: logmodel.TimeRange{Start: 0, End: 1000}, Entries: []logmodel.Entry{
		driftEntry(100, "A", "u1", "open"),
		driftEntry(200, "B", "u1", "answer"),
		driftEntry(300, "A", "u1", "close"),
	}})
	f := m.DriftFeatures()
	if !reflect.DeepEqual(f.Active, []string{"A--B"}) {
		t.Fatalf("active = %v", f.Active)
	}
	if len(f.Scores) == 0 {
		t.Fatal("no scores")
	}
	if _, ok := f.Scores["A--B"]; !ok {
		t.Fatalf("scores lack A--B: %v", f.Scores)
	}
}

// TestDriftFeaturesWorkerIndependent: every miner's features are the same
// for every worker count and whether they are read before or after
// Snapshot — L2's cached association tests depend on neither, and never
// outlive the bucket they were run for — and the two orders render the
// same documents.
func TestDriftFeaturesWorkerIndependent(t *testing.T) {
	// Each bucket holds twenty A→B calls one millisecond apart, split over
	// two users' sessions, every other one citing DPIREG, plus a few C logs.
	buckets := make([]Bucket, 2)
	for i := range buckets {
		start := logmodel.Millis(i) * logmodel.MillisPerSecond
		b := Bucket{Index: int64(i), Range: logmodel.TimeRange{Start: start, End: start + logmodel.MillisPerSecond}}
		for j := logmodel.Millis(0); j < 20; j++ {
			user, msg := []string{"u1", "u2"}[j%2], []string{"x", "call DPIREG"}[j%2]
			b.Entries = append(b.Entries, driftEntry(start+j*45+5, "A", user, msg), driftEntry(start+j*45+6, "B", user, "x"))
			if j%(4+logmodel.Millis(i)) == 0 {
				b.Entries = append(b.Entries, driftEntry(start+j*45+30, "C", user, msg))
			}
		}
		buckets[i] = b
	}
	wcfg := Config{BucketWidth: logmodel.MillisPerSecond, WindowBuckets: 4}
	type featureMiner interface {
		Miner
		FeatureSource
	}
	for _, tc := range []struct {
		name  string
		build func(workers int) featureMiner
	}{
		{"l1", func(workers int) featureMiner {
			cfg := l1.DefaultConfig()
			cfg.MinLogs = 2
			cfg.SampleSize = 8
			cfg.Workers = workers
			return NewL1(wcfg, cfg)
		}},
		{"l2", func(workers int) featureMiner {
			cfg := l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2, Workers: workers}
			return NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2}, cfg)
		}},
		{"l3", func(workers int) featureMiner {
			cfg := l3.DefaultConfig()
			cfg.Workers = workers
			return NewL3(wcfg, l3.NewMiner(driftDir(), cfg))
		}},
	} {
		type read struct {
			features []DriftFeatures
			docs     []core.ModelDocument
		}
		mine := func(workers int, featuresFirst bool) read {
			m := tc.build(workers)
			m.TrackDrift(true)
			var r read
			for _, b := range buckets {
				m.Advance(b)
				if featuresFirst {
					r.features = append(r.features, m.DriftFeatures())
					r.docs = append(r.docs, m.Snapshot())
				} else {
					r.docs = append(r.docs, m.Snapshot())
					r.features = append(r.features, m.DriftFeatures())
				}
			}
			return r
		}
		want := mine(1, true)
		if len(want.features[0].Active) == 0 {
			t.Fatalf("%s: no active keys in the first bucket; the test wants features", tc.name)
		}
		for _, f := range want.features {
			if !sort.StringsAreSorted(f.Active) {
				t.Errorf("%s: active keys not sorted: %v", tc.name, f.Active)
			}
		}
		// A miner read only after the last bucket has nothing cached from
		// earlier buckets: what the others read there must not be stale.
		fresh := tc.build(1)
		fresh.TrackDrift(true)
		for _, b := range buckets {
			fresh.Advance(b)
		}
		if got, last := fresh.DriftFeatures(), want.features[len(buckets)-1]; !reflect.DeepEqual(got, last) {
			t.Errorf("%s: features read every bucket end on %+v, read once %+v", tc.name, last, got)
		}
		for _, workers := range []int{1, 4} {
			for _, featuresFirst := range []bool{true, false} {
				if got := mine(workers, featuresFirst); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, workers %d, features first %v: features or documents differ:\n%+v\n%+v",
						tc.name, workers, featuresFirst, got, want)
				}
			}
		}
	}
}

// TestDriftFeaturesActiveSortedOnAnyNames: Active is documented sorted, and
// every miner must keep that when pair order and string order part. With
// sources a, a+b and c, L1's pair order is (a, a+b), (a, c), (a+b, c), but
// '+' sorts before '-', so the key a+b--c sorts before a--a+b. L2 and L3
// name the same sources.
func TestDriftFeaturesActiveSortedOnAnyNames(t *testing.T) {
	names := []string{"a", "a+b", "c"}
	b := Bucket{Index: 0, Range: logmodel.TimeRange{Start: 0, End: 1000}}
	for j := logmodel.Millis(0); j < 40; j++ {
		for k, src := range names {
			b.Entries = append(b.Entries, driftEntry(j*25+5+logmodel.Millis(k), src, "u", "call DPIREG"))
		}
	}
	wcfg := Config{BucketWidth: logmodel.MillisPerSecond, WindowBuckets: 4}
	l1cfg := l1.DefaultConfig()
	l1cfg.MinLogs = 2
	for _, tc := range []struct {
		name string
		m    interface {
			Miner
			FeatureSource
		}
		want []string
	}{
		{"l1", NewL1(wcfg, l1cfg), []string{"a+b--c", "a--a+b", "a--c"}},
		{"l2", NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2},
			l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2}), nil},
		{"l3", NewL3(wcfg, l3.NewMiner(driftDir(), l3.DefaultConfig())), []string{"a+b->DPIREG", "a->DPIREG", "c->DPIREG"}},
	} {
		tc.m.TrackDrift(true)
		tc.m.Advance(b)
		got := tc.m.DriftFeatures().Active
		if len(got) == 0 {
			t.Fatalf("%s: no active keys; the test wants features", tc.name)
		}
		if !sort.StringsAreSorted(got) {
			t.Errorf("%s: active keys not sorted: %q", tc.name, got)
		}
		if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: active = %q, want %q", tc.name, got, tc.want)
		}
	}
}
