package pointproc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"logscape/internal/logmodel"
)

// walkKinds pairs each distance with the DistanceWalk flag that selects it.
var walkKinds = []struct {
	name string
	dist func(logmodel.Millis, []logmodel.Millis) logmodel.Millis
	next bool
}{
	{"nearest", DistNearest, false},
	{"next", DistNext, true},
}

// checkWalk requires DistanceWalk to append what DistanceSample appends, in
// the same order, after the same prefix, for both distances.
func checkWalk(t *testing.T, points, a []logmodel.Millis) {
	t.Helper()
	prefix := []logmodel.Millis{-7}
	for _, k := range walkKinds {
		want := DistanceSample(slices.Clone(prefix), points, a, k.dist)
		got := DistanceWalk(slices.Clone(prefix), points, a, k.next)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: points %v, a %v: walk %v, search %v", k.name, points, a, got, want)
		}
	}
}

// TestDistanceWalkMatchesSample is the differential test of the walk
// against the per-point search over the cases a merge gets wrong first.
func TestDistanceWalkMatchesSample(t *testing.T) {
	ms := func(v ...logmodel.Millis) []logmodel.Millis { return v }
	for _, c := range []struct {
		name      string
		points, a []logmodel.Millis
	}{
		{"ties", ms(10, 20, 30), ms(10, 20, 30)},
		{"duplicate points", ms(5, 5, 15, 15, 15, 40), ms(10, 20, 30)},
		{"duplicate arrivals", ms(5, 12, 20, 31), ms(10, 10, 20, 20, 20, 30)},
		{"duplicates in both", ms(10, 10, 20, 20, 25), ms(10, 10, 20, 20, 30, 30)},
		{"before the first", ms(-100, 0, 1, 2), ms(3, 9)},
		{"after the last", ms(50, 60, 1000), ms(3, 9, 40)},
		{"both sides", ms(-5, 4, 6, 100), ms(3, 9)},
		{"single arrival", ms(-1, 0, 7, 7, 8, 90), ms(7)},
		{"empty a", ms(1, 2, 3), nil},
		{"empty points", nil, ms(1, 2, 3)},
		{"equidistant", ms(15, 25), ms(10, 20, 30)},
		{"extremes", ms(math.MinInt64, 0, math.MaxInt64), ms(0, math.MaxInt64)},
	} {
		t.Run(c.name, func(t *testing.T) { checkWalk(t, c.points, c.a) })
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		points, a := randomSorted(rng, rng.Intn(40)), randomSorted(rng, rng.Intn(40))
		checkWalk(t, points, a)
	}
}

// randomSorted returns n sorted points on a narrow grid, so ties and
// duplicates are common.
func randomSorted(rng *rand.Rand, n int) []logmodel.Millis {
	out := make([]logmodel.Millis, n)
	for i := range out {
		out[i] = logmodel.Millis(rng.Intn(60))
	}
	slices.Sort(out)
	return out
}

// FuzzDistanceWalk: for any two sorted sequences — each byte b becomes
// origin + b·step, wrapping, then sorted — the walk equals the search.
func FuzzDistanceWalk(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 9}, []byte{1, 1, 5}, int64(0), int64(1))
	f.Add([]byte{0, 255}, []byte{7}, int64(-1000), int64(3600000))
	f.Add([]byte{3, 3, 3}, []byte{}, int64(5), int64(2))
	f.Add([]byte{0, 1}, []byte{0, 1}, int64(math.MaxInt64-1), int64(1))
	f.Fuzz(func(t *testing.T, rawPoints, rawA []byte, origin, step int64) {
		seq := func(raw []byte) []logmodel.Millis {
			out := make([]logmodel.Millis, len(raw))
			for i, b := range raw {
				out[i] = logmodel.Millis(origin + int64(b)*step)
			}
			slices.Sort(out)
			return out
		}
		checkWalk(t, seq(rawPoints), seq(rawA))
	})
}

// BenchmarkDistanceSample measures phase 2's distance sample for one
// simulated slot: the sorted 400-point subsample of an hour of one source
// against an hour of another's logs, by the merge walk and by a binary
// search per point.
func BenchmarkDistanceSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hour := logmodel.TimeRange{Start: 0, End: logmodel.MillisPerHour}
	a := Homogeneous(rng, hour, 0.5)
	sub, _ := Subsample(nil, nil, rng, Homogeneous(rng, hour, 1), 400)
	dst := make([]logmodel.Millis, 0, len(sub))
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = DistanceWalk(dst[:0], sub, a, false)
		}
	})
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = DistanceSample(dst[:0], sub, a, DistNearest)
		}
	})
}
