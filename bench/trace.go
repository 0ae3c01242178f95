package main

import (
	"bufio"
	"encoding/json"
	"os"
)

// span is one timed interval at a layer boundary. Spans of one bucket share
// its Trace id; Parent is the index of the enclosing span in the recorder's
// list, or -1 for a top-level span. Start and End are clock readings (ns).
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one traced pass in memory; nothing is written
// until dump. It is single-goroutine: the follow loop it instruments is
// sequential, so begin/end nest like a call stack.
type recorder struct {
	clock func() int64
	spans []span
	open  []int // indexes of the spans begun and not yet ended, innermost last
}

func newRecorder(clock func() int64) *recorder {
	// Sized for the largest workload (≈ 15 spans per bucket, 2 per read
	// batch) so the span list does not reallocate inside a timed region.
	return &recorder{clock: clock, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string, trace int64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Trace: trace, Parent: parent})
	r.open = append(r.open, id)
	r.spans[id].Start = r.clock()
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	now := r.clock()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic("bench: span ended out of order") // a bug in the staged driver, never input
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = now
}

// durations returns the duration (ns) of every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time (ns): a span's
// duration minus the part of it its direct children cover.
func (r *recorder) selfTimes() map[string]int64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// topLevel returns the summed duration (ns) of the spans without a parent.
func (r *recorder) topLevel() int64 {
	var sum int64
	for _, s := range r.spans {
		if s.Parent < 0 {
			sum += s.End - s.Start
		}
	}
	return sum
}

// dump writes the spans as JSON lines, one span per line in begin order.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
