package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds the named instruments of one run. The zero value is not
// usable; construct with New or NewWithClock. A nil *Registry is the
// sanctioned "metrics off" collector: every method on it (and on the nil
// instruments it hands out) is a no-op, so instrumented code never needs a
// nil check.
//
// All instruments are safe for concurrent use; lookups are create-on-first-
// use and return the same instrument for the same name thereafter.
type Registry struct {
	clock func() int64 // monotonic nanoseconds; nil = timings disabled

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns a registry without a clock: counters and gauges collect
// normally, every duration observes as zero. This is the configuration the
// equivalence tests use — with no clock, even histogram contents are a pure
// function of the input.
func New() *Registry {
	return NewWithClock(nil)
}

// NewWithClock returns a registry whose timings are read from clock
// (monotonic nanoseconds). Pass SystemClock at a process edge for real
// measurements; pass nil to disable timings.
func NewWithClock(clock func() int64) *Registry {
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// now reads the registry clock (0 without one).
func (r *Registry) now() int64 {
	if r == nil || r.clock == nil {
		return 0
	}
	return r.clock()
}

// Counter returns the named counter, creating it on first use. Nil registry
// yields a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry
// yields a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Nil
// registry yields a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Timer starts timing a section and returns the function that stops it,
// recording the elapsed nanoseconds into the named histogram:
//
//	defer reg.Timer("l2.mine_ns")()
//
// Without a clock the observation is recorded with a zero duration, so
// histogram counts stay meaningful either way.
func (r *Registry) Timer(name string) func() {
	if r == nil {
		return func() {}
	}
	h := r.Histogram(name)
	start := r.now()
	return func() { h.Observe(r.now() - start) }
}

// Counter is a monotonically increasing count of work done. Counter values
// are part of the determinism contract: for a fixed input and configuration
// they must be identical at every worker count, which holds as long as
// increments count input-determined work (entries, pairs, tests), never
// scheduling artifacts (shards, retries, queue depths — put those in
// histograms).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (no-op on nil).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level (live sessions, window occupancy). Like
// counters, gauge values must be input-determined at snapshot points.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value (no-op on nil).
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n, which may be negative (no-op on nil).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover every non-negative int64; negative observations clamp
// into bucket 0.
const histBuckets = 64

// Histogram aggregates a distribution of int64 observations (typically
// durations in nanoseconds) into power-of-two buckets with count, sum, min
// and max. Histograms are the one instrument allowed to hold
// scheduling-dependent values (per-shard busy time, queue waits), so they
// are excluded from the cross-worker-count equality the counters must
// satisfy.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// bucketOf returns the bucket index of v: the bit length of v, clamping
// negatives to 0.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	n := 0
	for v > 0 {
		v >>= 1
		n++
	}
	if n >= histBuckets {
		n = histBuckets - 1
	}
	return n
}

// Meter instruments the body of an index fan-out (parallel.Map) for one
// named stage: it counts items into "<stage>.items", and records per-item
// busy time into "<stage>.busy_ns" and the queue wait from fan-out creation
// to item start into "<stage>.wait_ns". The item count equals the fan-out size, so the counter
// is worker-count independent; the timings are not and live in histograms.
// With a nil registry the body is returned unchanged (zero overhead).
func Meter[T any](r *Registry, stage string, fn func(i int) T) func(i int) T {
	if r == nil {
		return fn
	}
	items := r.Counter(stage + ".items")
	busy := r.Histogram(stage + ".busy_ns")
	wait := r.Histogram(stage + ".wait_ns")
	created := r.now()
	return func(i int) T {
		t0 := r.now()
		out := fn(i)
		busy.Observe(r.now() - t0)
		wait.Observe(t0 - created)
		items.Inc()
		return out
	}
}

// Classes returns one counter per class name under a shared prefix, keyed
// by class for direct indexing — the per-fault-class drop accounting of the
// hardened ingest path: Classes(r, "ingest.lines_", "malformed", ...) maps
// "malformed" to the counter "ingest.lines_malformed". Class counts must
// stay input-determined, like every counter. A nil registry yields a map of
// nil (no-op) counters, so callers index and increment unconditionally.
func Classes(r *Registry, prefix string, names ...string) map[string]*Counter {
	out := make(map[string]*Counter, len(names))
	for _, name := range names {
		out[name] = r.Counter(prefix + name)
	}
	return out
}

// MeterShards instruments the body of a shard fan-out (parallel.MapShards)
// for one named stage, recording per-shard busy time into
// "<stage>.busy_ns". Unlike Meter it deliberately keeps no counter: the
// number of shards depends on the Workers setting, and counters must not.
func MeterShards[T any](r *Registry, stage string, fn func(lo, hi int) T) func(lo, hi int) T {
	if r == nil {
		return fn
	}
	busy := r.Histogram(stage + ".busy_ns")
	return func(lo, hi int) T {
		t0 := r.now()
		out := fn(lo, hi)
		busy.Observe(r.now() - t0)
		return out
	}
}
