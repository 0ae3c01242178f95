package logmodel

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// stableByTime is the reference TimeSorter must reproduce: the stable sort
// by time both sort sites used before the keyed sort. A stable sort's output
// is unique, so equality with it is the whole contract.
func stableByTime(es []Entry) {
	slices.SortStableFunc(es, func(a, b Entry) int {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		}
		return 0
	})
}

// checkSortByTime sorts a copy of es with ts and one with the reference and
// fails unless they agree entry for entry. Each entry's Message is unique,
// so tie order is visible.
func checkSortByTime(t *testing.T, ts *TimeSorter, es []Entry) {
	t.Helper()
	got, want := slices.Clone(es), slices.Clone(es)
	ts.Sort(got)
	stableByTime(want)
	if !slices.Equal(got, want) {
		t.Fatalf("TimeSorter.Sort differs from the stable sort on %d entries:\n got %v\nwant %v",
			len(es), got, want)
	}
}

// numbered returns entries with the given times, each carrying its input
// position as Message.
func numbered(times ...Millis) []Entry {
	es := make([]Entry, len(times))
	for i, tm := range times {
		es[i] = Entry{Time: tm, Source: "S", Message: strconv.Itoa(i)}
	}
	return es
}

func TestTimeSorterMatchesStableSort(t *testing.T) {
	var ts TimeSorter // one sorter throughout: reuse must not leak state
	for _, c := range []struct {
		name  string
		times []Millis
	}{
		{"empty", nil},
		{"single", []Millis{7}},
		{"sorted", []Millis{1, 2, 2, 3, 5, 8}},
		{"reversed", []Millis{9, 7, 5, 5, 3, 1}},
		{"all-equal", []Millis{4, 4, 4, 4, 4}},
		{"negative", []Millis{3, -2, 0, -2, -9}},
	} {
		t.Run(c.name, func(t *testing.T) { checkSortByTime(t, &ts, numbered(c.times...)) })
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		n := rng.Intn(200)
		distinct := 1 + rng.Intn(8) // heavy ties: at most eight distinct times
		times := make([]Millis, n)
		for i := range times {
			times[i] = Millis(rng.Intn(distinct))
		}
		checkSortByTime(t, &ts, numbered(times...))
	}
}

// TestTimeSorterWarmAllocFree pins DESIGN §12's steady state: once a sorter
// has sorted a bucket, sorting another of the same size allocates nothing.
func TestTimeSorterWarmAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(3))
	src := make([]Entry, 4096)
	for i := range src {
		src[i] = Entry{Time: Millis(rng.Intn(3600_000))}
	}
	es := make([]Entry, len(src))
	var ts TimeSorter
	ts.Sort(slices.Clone(src)) // warm the key buffer
	n := testing.AllocsPerRun(20, func() {
		copy(es, src)
		ts.Sort(es)
	})
	if n != 0 {
		t.Fatalf("a warm TimeSorter allocates %v/op, want 0", n)
	}
}

// FuzzSortByTime decodes the input as a sequence of one-byte times (few
// distinct values, so ties dominate) and checks the sorter against the
// stable sort.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 1, 3, 0})
	f.Add([]byte{5, 5, 5, 5})
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0})
	var ts TimeSorter
	f.Fuzz(func(t *testing.T, data []byte) {
		times := make([]Millis, len(data))
		for i, b := range data {
			times[i] = Millis(b%16) - 8
		}
		checkSortByTime(t, &ts, numbered(times...))
	})
}

// BenchmarkSortByTime sorts one simulated-scale day (a diurnal load of
// ~80k entries, hosts skewed by up to ±1 s) whose hour buckets each arrive
// shuffled, the way the ingester sees a skewed stream. The keyed sorter
// runs warm, as the ingester's does; the stable sort is the reference it
// replaced.
func BenchmarkSortByTime(b *testing.B) {
	day := skewedDay(rand.New(rand.NewSource(2005)))
	es := make([]Entry, len(day))
	for _, arm := range []struct {
		name string
		sort func([]Entry)
	}{
		{"keyed", new(TimeSorter).Sort},
		{"stable", stableByTime},
	} {
		b.Run(arm.name, func(b *testing.B) {
			copy(es, day)
			arm.sort(es)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(es, day)
				arm.sort(es)
			}
		})
	}
}

// skewedDay builds the benchmark's day: entries timed along a diurnal curve
// from 120 hosts with fixed clock offsets, time-ordered overall but shuffled
// within each hour.
func skewedDay(rng *rand.Rand) []Entry {
	const hosts = 120
	skew := make([]Millis, hosts)
	for h := range skew {
		skew[h] = Millis(rng.Intn(2001) - 1000)
	}
	var day []Entry
	for hour := Millis(0); hour < 24; hour++ {
		lo := len(day)
		// A weekday curve: quiet at night, ~6k entries an hour by day.
		n := 600 + 5400*int(min(hour, 23-hour))/11
		for i := 0; i < n; i++ {
			h := rng.Intn(hosts)
			t := hour*MillisPerHour + Millis(rng.Int63n(int64(MillisPerHour))) + skew[h]
			day = append(day, Entry{Time: t, Source: "S", Host: strconv.Itoa(h), Message: "m"})
		}
		rng.Shuffle(len(day)-lo, func(i, j int) { day[lo+i], day[lo+j] = day[lo+j], day[lo+i] })
	}
	return day
}
