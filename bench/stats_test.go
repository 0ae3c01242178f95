package main

import (
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	cases := []struct {
		v    []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
		{[]float64{10, 20}, 25, 12.5},
	}
	for _, c := range cases {
		if got := percentile(c.v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.v, c.p, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 { //lint:allow floateq exact copies of literals
		t.Errorf("percentile reordered its argument: %v", in)
	}
}

// The expected values are Python's, the arithmetic the driver runs:
//
//	q = statistics.quantiles(v, n=4); (q[2]-q[0]) / statistics.median(v)
func TestQuartileSpreadMatchesPython(t *testing.T) {
	cases := []struct {
		v    []float64
		want float64
	}{
		{[]float64{5}, 0},
		{[]float64{10, 10, 10, 10}, 0},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5 / 5.5},
		{[]float64{100, 102, 98, 101, 99, 103, 97, 100, 100, 101}, 2.5 / 100},
		{[]float64{1, 2}, 1.5 / 1.5}, // ranks clamp, Python extrapolates: q1 = 0.75, q3 = 2.25
		{[]float64{3, 1, 2}, 2.0 / 2},
	}
	for _, c := range cases {
		if got := quartileSpread(c.v); !near(got, c.want) {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestRecorderSelfTime(t *testing.T) {
	var now int64
	rec := newRecorder(func() int64 { return now })
	at := func(t int64) { now = t }

	at(0)
	outer := rec.begin("outer", 1)
	at(10)
	inner := rec.begin("inner", 1)
	at(30)
	deep := rec.begin("deep", 1)
	at(35)
	rec.end(deep)
	at(40)
	rec.end(inner)
	at(100)
	rec.end(outer)
	at(150)
	next := rec.begin("outer", 2)
	at(170)
	rec.end(next)

	self := rec.selfTimes()
	if self["outer"] != 70+20 || self["inner"] != 25 || self["deep"] != 5 {
		t.Errorf("self times %v, want outer 90, inner 25, deep 5", self)
	}
	if got := rec.topLevel(); got != 120 {
		t.Errorf("top-level sum %d, want 120", got)
	}
	if d := rec.durations("outer"); len(d) != 2 || !near(d[0], 100) || !near(d[1], 20) {
		t.Errorf("durations(outer) = %v, want [100 20]", d)
	}
	if rec.spans[deep].Parent != inner || rec.spans[inner].Parent != outer || rec.spans[next].Parent != -1 {
		t.Errorf("parents not recorded: %+v", rec.spans)
	}
}

func TestDocScanner(t *testing.T) {
	docs := []string{
		"{\n  \"technique\": \"l2\"\n}\n",
		"{\n  \"technique\": \"l2\",\n  \"pairs\": [\n    {\n      \"a\": \"A}\",\n      \"b\": \"B\"\n    }\n  ]\n}\n",
		"{\n  \"technique\": \"l3\"\n}\n",
	}
	stream := docs[0] + docs[1] + docs[2]
	lastByte := []int{len(docs[0]), len(docs[0]) + len(docs[1]), len(stream)}
	// Every split of the stream into two reads must find the same documents.
	for cut := 0; cut <= len(stream); cut++ {
		sc := &docScanner{lineStart: true}
		sc.feed([]byte(stream[:cut]), 1)
		sc.feed([]byte(stream[cut:]), 2)
		if len(sc.ends) != len(docs) {
			t.Fatalf("cut %d: %d documents, want %d", cut, len(sc.ends), len(docs))
		}
		if string(sc.last) != docs[2] {
			t.Fatalf("cut %d: last document %q, want %q", cut, sc.last, docs[2])
		}
		// A document is stamped with the read that delivered its last byte.
		for i, end := range sc.ends {
			want := int64(2)
			if lastByte[i] <= cut {
				want = 1
			}
			if end != want {
				t.Fatalf("cut %d: document %d stamped %d, want %d", cut, i, end, want)
			}
		}
	}
}

func TestPeakRSSReadsThisProcess(t *testing.T) {
	mb, err := peakRSS(os.Getpid())
	if err != nil {
		t.Skipf("no /proc on this platform: %v", err)
	}
	if mb < 1 || mb > 1<<20 {
		t.Errorf("peak RSS of the test process reads %v MB", mb)
	}
}
