package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// HistogramSnapshot is the immutable form of one histogram. Buckets maps
// the *upper bound* of each occupied power-of-two bucket (as a decimal
// string, "1", "2", "4", …) to its count; empty buckets are omitted so the
// document stays small. Min/Max are meaningful only when Count > 0.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot is the full metrics document of a registry at one instant: every
// counter, gauge and histogram. Its JSON encoding is stable — encoding/json
// emits map keys in sorted order, and all other fields are scalars — so two
// snapshots with equal contents serialize byte-identically.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. On a nil registry it
// returns an empty (but fully initialized) document, so callers can always
// serialize the result.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		out.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		out.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		out.Histograms[k] = h.snapshot()
	}
	return out
}

// CounterDocument returns just the counters and gauges as sorted JSON —
// the part of the document that must be identical across worker counts.
func (r *Registry) CounterDocument() ([]byte, error) {
	s := r.Snapshot()
	return json.MarshalIndent(struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}{s.Counters, s.Gauges}, "", "  ")
}

// WriteJSON writes the snapshot as indented JSON with a trailing newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Min:     h.min.Load(),
		Max:     h.max.Load(),
		Buckets: map[string]int64{},
	}
	if out.Count == 0 {
		out.Min, out.Max = 0, 0
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			out.Buckets[bucketLabel(i)] = n
		}
	}
	return out
}

// bucketLabel renders bucket i's upper bound 2^i as a decimal string
// (bucket 0 holds only v <= 0 and is labelled "0").
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return strconv.FormatUint(uint64(1)<<uint(i), 10)
}
