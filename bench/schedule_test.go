package main

import (
	"bytes"
	"testing"

	"logscape/internal/logmodel"
)

// testPacing compresses 300 s buckets to 250 ms of wall time in 10 ms ticks.
func testPacing(offset int64) pacing {
	return pacing{Start: 1_000_000_200_000, Width: 300_000, BucketWall: 250e6, Tick: 10e6, Offset: offset}
}

func entryAt(t logmodel.Millis) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: "App", Host: "host", User: "user", Message: "m"}
}

func TestDueTick(t *testing.T) {
	p := testPacing(0)
	cases := []struct {
		at   logmodel.Millis // offset from Start
		tick int
	}{
		{0, 0},
		{1, 1},        // 833 ns of wall time: due at the next tick boundary
		{12_000, 1},   // exactly 10 ms
		{12_001, 2},   // just past it
		{300_000, 25}, // one bucket = 250 ms = 25 ticks
		{3_000_000, 250},
	}
	for _, c := range cases {
		if got := p.dueTick(p.Start + c.at); got != c.tick {
			t.Errorf("dueTick(start+%d) = %d, want %d", c.at, got, c.tick)
		}
	}
	if got := testPacing(62_500_000).dueTick(p.Start); got != 7 {
		t.Errorf("a 62.5 ms stagger puts the first line at tick %d, want 7", got)
	}
}

func TestPlanTenant(t *testing.T) {
	p := testPacing(0)
	// Three buckets: two lines in the first, one in the second, none in the
	// third, two in the fourth.
	offsets := []logmodel.Millis{0, 150_000, 300_000 + 6_000, 900_000, 900_000 + 24_000}
	var entries []logmodel.Entry
	for _, o := range offsets {
		entries = append(entries, entryAt(p.Start+o))
	}
	pl := planTenant(entries, p)

	if pl.Entries != 5 || pl.Buckets != 3 {
		t.Fatalf("planned %d entries in %d buckets, want 5 in 3", pl.Entries, pl.Buckets)
	}
	// A bucket becomes closable when the first line beyond it is due; the
	// last bucket has no such line.
	want := []closing{
		{Due: 260e6, End: p.Start + 300_000}, // closed by the line at 306 s → 255 ms → tick 26
		{Due: 750e6, End: p.Start + 600_000}, // closed by the line at 900 s → 750 ms → tick 75
	}
	if len(pl.Closes) != len(want) {
		t.Fatalf("%d closings, want %d: %+v", len(pl.Closes), len(want), pl.Closes)
	}
	for i, w := range want {
		if pl.Closes[i] != w {
			t.Errorf("closing %d = %+v, want %+v", i, pl.Closes[i], w)
		}
	}
	// The ticks, concatenated, are the input in order, one line per entry.
	var all []byte
	for _, chunk := range pl.Ticks {
		all = append(all, chunk...)
	}
	var wantAll []byte
	for _, e := range entries {
		wantAll = append(logmodel.AppendEntry(wantAll, e), '\n')
	}
	if !bytes.Equal(all, wantAll) {
		t.Errorf("ticks hold\n%s\nwant\n%s", all, wantAll)
	}
	for tick, n := range map[int]int{0: 1, 13: 1, 26: 1, 75: 1, 77: 1} { // 150 s → 125 ms → tick 13
		if got := bytes.Count(pl.Ticks[tick], []byte{'\n'}); got != n {
			t.Errorf("tick %d holds %d lines, want %d", tick, got, n)
		}
	}
	if len(pl.Ticks) != 78 {
		t.Errorf("%d ticks, want 78", len(pl.Ticks))
	}
}

// The same entries always give the same schedule: the generator and the
// prober are built from it independently.
func TestPlanTenantDeterministic(t *testing.T) {
	p := testPacing(125_000_000)
	var entries []logmodel.Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, entryAt(p.Start+logmodel.Millis(i*i*7%1_500_000)))
	}
	// planTenant wants time order.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Time < entries[j-1].Time; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	a, b := planTenant(entries, p), planTenant(entries, p)
	if len(a.Ticks) != len(b.Ticks) || len(a.Closes) != len(b.Closes) {
		t.Fatalf("two plans of the same entries differ in shape")
	}
	for i := range a.Ticks {
		if !bytes.Equal(a.Ticks[i], b.Ticks[i]) {
			t.Fatalf("tick %d differs between two plans of the same entries", i)
		}
	}
	for i := 1; i < len(a.Closes); i++ {
		if a.Closes[i].Due < a.Closes[i-1].Due || a.Closes[i].End <= a.Closes[i-1].End {
			t.Fatalf("closings out of order: %+v then %+v", a.Closes[i-1], a.Closes[i])
		}
	}
}
