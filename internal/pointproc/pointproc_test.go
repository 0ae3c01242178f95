package pointproc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"logscape/internal/logmodel"
)

func TestDistNearest(t *testing.T) {
	a := []logmodel.Millis{10, 20, 50}
	cases := []struct {
		t    logmodel.Millis
		want logmodel.Millis
	}{
		{0, 10}, {10, 0}, {14, 4}, {16, 4}, {20, 0}, {30, 10}, {40, 10}, {60, 10}, {1000, 950},
	}
	for _, c := range cases {
		if got := DistNearest(c.t, a); got != c.want {
			t.Errorf("DistNearest(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := DistNearest(5, nil); got != logmodel.Millis(math.MaxInt64) {
		t.Errorf("empty sequence: %d", got)
	}
}

func TestDistNext(t *testing.T) {
	a := []logmodel.Millis{10, 20, 50}
	cases := []struct {
		t    logmodel.Millis
		want logmodel.Millis
	}{
		{0, 10}, {10, 0}, {11, 9}, {21, 29}, {50, 0},
	}
	for _, c := range cases {
		if got := DistNext(c.t, a); got != c.want {
			t.Errorf("DistNext(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if got := DistNext(51, a); got != logmodel.Millis(math.MaxInt64) {
		t.Errorf("past end: %d", got)
	}
}

// TestDistNearestMatchesBruteForce is a property test against the O(n)
// definition in equation (1).
func TestDistNearestMatchesBruteForce(t *testing.T) {
	f := func(seed int64, tRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := make([]logmodel.Millis, n)
		for i := range a {
			a[i] = logmodel.Millis(rng.Intn(10000))
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		tt := logmodel.Millis(tRaw)
		want := logmodel.Millis(math.MaxInt64)
		for _, x := range a {
			d := x - tt
			if d < 0 {
				d = -d
			}
			if d < want {
				want = d
			}
		}
		return DistNearest(tt, a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDistanceSample(t *testing.T) {
	a := []logmodel.Millis{1000, 3000}
	pts := []logmodel.Millis{0, 2000, 5000}
	got := DistanceSample(nil, pts, a, DistNearest)
	want := []logmodel.Millis{1000, 1000, 2000}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// DistNext drops the last point (no later arrival), and the sample is
	// appended to what dst already holds.
	gotNext := DistanceSample(got[:1], pts, a, DistNext)
	if len(gotNext) != 3 || gotNext[1] != 1000 || gotNext[2] != 1000 {
		t.Errorf("next sample = %v", gotNext)
	}
}

func TestUniformPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := logmodel.TimeRange{Start: 100, End: 1100}
	pts := UniformPoints(nil, rng, r, 1000)
	if len(pts) != 1000 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %d outside range", p)
		}
	}
	// Rough uniformity: mean near the midpoint.
	var sum float64
	for _, p := range pts {
		sum += float64(p)
	}
	mean := sum / 1000
	if mean < 500 || mean > 700 {
		t.Errorf("mean = %v, want ≈ 600", mean)
	}
	if got := UniformPoints(nil, rng, logmodel.TimeRange{Start: 5, End: 5}, 10); got != nil {
		t.Error("empty range should yield nil")
	}
	if got := UniformPoints(nil, rng, r, 0); got != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestSubsample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]logmodel.Millis, 100)
	for i := range a {
		a[i] = logmodel.Millis(i)
	}
	got, marks := Subsample(nil, nil, rng, a, 10)
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("subsample not strictly increasing (duplicates or disorder)")
		}
	}
	for i, m := range marks {
		if m {
			t.Fatalf("marks[%d] left set", i)
		}
	}
	// n ≥ len(a): identity.
	same, _ := Subsample(nil, marks, rng, a, 200)
	if len(same) != 100 {
		t.Errorf("oversized subsample len = %d", len(same))
	}
	if got, _ := Subsample(nil, marks, rng, a, 0); got != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestSubsampleUnbiased(t *testing.T) {
	// Each element should be selected with probability ≈ n/len(a).
	rng := rand.New(rand.NewSource(3))
	a := make([]logmodel.Millis, 20)
	for i := range a {
		a[i] = logmodel.Millis(i)
	}
	counts := make([]int, 20)
	const trials = 5000
	var sub []logmodel.Millis
	var marks []bool
	for i := 0; i < trials; i++ {
		sub, marks = Subsample(sub[:0], marks, rng, a, 5)
		for _, p := range sub {
			counts[int(p)]++
		}
	}
	for i, c := range counts {
		p := float64(c) / trials
		if p < 0.20 || p > 0.30 {
			t.Errorf("element %d selected with p = %.3f, want ≈ 0.25", i, p)
		}
	}
}

func TestHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := logmodel.TimeRange{Start: 0, End: 1000 * logmodel.MillisPerSecond}
	pts := Homogeneous(rng, r, 5) // expect ≈ 5000 events
	if len(pts) < 4500 || len(pts) > 5500 {
		t.Errorf("event count = %d, want ≈ 5000", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] < pts[i-1] {
			t.Fatal("not sorted")
		}
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatal("point outside range")
		}
	}
	if got := Homogeneous(rng, r, 0); got != nil {
		t.Error("zero rate should yield nil")
	}
}

func TestNonHomogeneous(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := logmodel.TimeRange{Start: 0, End: 1000 * logmodel.MillisPerSecond}
	// Intensity 10/s in the first half, 0 in the second.
	intensity := func(t logmodel.Millis) float64 {
		if t < r.End/2 {
			return 10
		}
		return 0
	}
	pts := NonHomogeneous(rng, r, intensity, 10)
	if len(pts) < 4500 || len(pts) > 5500 {
		t.Errorf("event count = %d, want ≈ 5000", len(pts))
	}
	for _, p := range pts {
		if p >= r.End/2 {
			t.Fatalf("event at %d in zero-intensity half", p)
		}
	}
	if got := NonHomogeneous(rng, r, intensity, 0); got != nil {
		t.Error("zero maxRate should yield nil")
	}
}

func TestMergeSorted(t *testing.T) {
	a := []logmodel.Millis{1, 3, 5}
	b := []logmodel.Millis{2, 3, 6}
	got := MergeSorted(a, b)
	want := []logmodel.Millis{1, 2, 3, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %v", i, got[i])
		}
	}
	if got := MergeSorted(nil, b); len(got) != 3 {
		t.Error("merge with nil")
	}
}
