package logmodel

import "slices"

// timeKey is one entry's sort key: its time, then its position in the
// input. The position breaks ties, so keys are totally ordered and their
// one sorted order is the stable order by time.
type timeKey struct {
	t Millis
	i int
}

// TimeSorter orders entries by time, keeping simultaneous entries in input
// order — exactly the order a stable sort by time yields. It sorts 16-byte
// keys instead of moving 80-byte entries through a merge, then moves each
// entry once, in place. The key slice is kept between calls, so a warm
// sorter allocates nothing for a slice no longer than one it sorted before.
// The zero value is ready to use; a TimeSorter is not safe for concurrent
// use.
type TimeSorter struct {
	keys []timeKey
}

// Sort orders es by time, stably. Already ordered input returns after one
// scan.
func (ts *TimeSorter) Sort(es []Entry) {
	if timeOrdered(es) {
		return
	}
	keys := slices.Grow(ts.keys[:0], len(es))
	for i := range es {
		keys = append(keys, timeKey{t: es[i].Time, i: i})
	}
	slices.SortFunc(keys, func(a, b timeKey) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		}
		return a.i - b.i
	})
	// Position p takes the entry now at keys[p].i. Follow each cycle of
	// that permutation from its first position, holding one entry aside;
	// a position already filled is marked by pointing its key at itself.
	for p := range keys {
		if keys[p].i == p {
			continue
		}
		held := es[p]
		q := p
		for {
			src := keys[q].i
			keys[q].i = q
			if src == p {
				es[q] = held
				break
			}
			es[q] = es[src]
			q = src
		}
	}
	ts.keys = keys
}

// timeOrdered reports whether es is non-decreasing in time.
func timeOrdered(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if es[i].Time < es[i-1].Time {
			return false
		}
	}
	return true
}
