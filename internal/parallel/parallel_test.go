package parallel

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got := Map(workers, 10, func(i int) int { return i * i })
		want := []int{0, 1, 4, 9, 16, 25, 36, 49, 64, 81}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: Map = %v", workers, got)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Errorf("Map over empty input = %v, want nil", got)
	}
	if got := Map(4, -1, func(i int) int { return i }); got != nil {
		t.Errorf("Map over negative n = %v, want nil", got)
	}
}

func TestMapCallsEachIndexOnce(t *testing.T) {
	const n = 1000
	var calls [n]int32
	Map(8, n, func(i int) struct{} {
		atomic.AddInt32(&calls[i], 1)
		return struct{}{}
	})
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestShards(t *testing.T) {
	tests := []struct {
		workers, n int
		want       []Shard
	}{
		{1, 5, []Shard{{0, 5}}},
		{2, 5, []Shard{{0, 3}, {3, 5}}},
		{3, 7, []Shard{{0, 3}, {3, 5}, {5, 7}}},
		{4, 4, []Shard{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{8, 3, []Shard{{0, 1}, {1, 2}, {2, 3}}},
		{0, 4, []Shard{{0, 4}}},
		{3, 0, nil},
	}
	for _, tc := range tests {
		got := Shards(tc.workers, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Shards(%d, %d) = %v, want %v", tc.workers, tc.n, got, tc.want)
		}
	}
}

func TestShardsPartition(t *testing.T) {
	for workers := 1; workers <= 10; workers++ {
		for n := 1; n <= 40; n++ {
			shards := Shards(workers, n)
			next := 0
			for _, sh := range shards {
				if sh.Lo != next {
					t.Fatalf("Shards(%d,%d): gap at %d", workers, n, next)
				}
				if sh.Len() < 1 {
					t.Fatalf("Shards(%d,%d): empty shard %v", workers, n, sh)
				}
				next = sh.Hi
			}
			if next != n {
				t.Fatalf("Shards(%d,%d): covers [0,%d), want [0,%d)", workers, n, next, n)
			}
			if len(shards) > workers && workers >= 1 {
				t.Fatalf("Shards(%d,%d): %d shards", workers, n, len(shards))
			}
		}
	}
}

func TestMapShardsOrderedMerge(t *testing.T) {
	// Summing contiguous shard ranges in order must reproduce the
	// sequential prefix structure regardless of worker count.
	const n = 237
	want := Map(1, n, func(i int) int { return i })
	for _, workers := range []int{1, 2, 5, 16} {
		parts := MapShards(workers, n, func(lo, hi int) []int {
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out
		})
		var merged []int
		for _, p := range parts {
			merged = append(merged, p...)
		}
		if !reflect.DeepEqual(merged, want) {
			t.Errorf("workers=%d: ordered merge differs", workers)
		}
	}
}

func TestMapShardsEmpty(t *testing.T) {
	if got := MapShards(4, 0, func(lo, hi int) int { return 1 }); got != nil {
		t.Errorf("MapShards over empty input = %v, want nil", got)
	}
}

func TestMapShardsSingleShardInline(t *testing.T) {
	// The single-shard path must run fn exactly once over the whole range.
	calls := 0
	got := MapShards(1, 9, func(lo, hi int) [2]int {
		calls++
		return [2]int{lo, hi}
	})
	if calls != 1 || len(got) != 1 || got[0] != [2]int{0, 9} {
		t.Errorf("single shard: calls=%d got=%v", calls, got)
	}
}

func TestMapMoreWorkersThanItems(t *testing.T) {
	// Workers far above the item count must neither deadlock nor call any
	// index more than once; clampWorkers caps the pool at n.
	var calls [3]int32
	got := Map(64, len(calls), func(i int) int {
		atomic.AddInt32(&calls[i], 1)
		return i * 10
	})
	if want := []int{0, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("Map(64, 3) = %v, want %v", got, want)
	}
	for i, c := range calls {
		if c != 1 {
			t.Errorf("index %d called %d times", i, c)
		}
	}
	if parts := MapShards(64, 3, func(lo, hi int) int { return hi - lo }); len(parts) > 3 {
		t.Errorf("MapShards(64, 3) produced %d shards", len(parts))
	}
}

func TestMapShardsZeroItemsMergeSafe(t *testing.T) {
	// Zero items yield nil partials; folding them with a non-nil merge must
	// be a no-op, not a panic — miners always fold whatever comes back.
	parts := MapShards(4, 0, func(lo, hi int) map[string]int {
		return map[string]int{"x": hi - lo}
	})
	if parts != nil {
		t.Fatalf("MapShards over zero items = %v, want nil", parts)
	}
	merged := map[string]int{}
	for _, p := range parts {
		for k, v := range p {
			merged[k] += v
		}
	}
	if len(merged) != 0 {
		t.Errorf("merge over zero partials = %v, want empty", merged)
	}
}

func TestMapPanicPropagation(t *testing.T) {
	// A panic in a worker must surface on the calling goroutine, carry the
	// original value, and be the lowest-index panic (what the sequential
	// path would raise) — on both the inline and the parallel path.
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if r != "boom 3" {
					t.Errorf("workers=%d: recovered %v, want \"boom 3\"", workers, r)
				}
			}()
			Map(workers, 10, func(i int) int {
				if i >= 3 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i
			})
		}()
	}
}

func TestMapShardsPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			MapShards(workers, 8, func(lo, hi int) int {
				panic("shard boom")
			})
		}()
	}
}
