package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Config-style worker knob: n ≥ 1 is used as given;
// n ≤ 0 selects runtime.GOMAXPROCS(0), i.e. "as many as the hardware
// allows".
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// clampWorkers bounds the worker count by the amount of work.
func clampWorkers(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// firstPanic collects worker panics and keeps the one with the lowest item
// index, so the value re-raised on the caller is the same one the
// sequential path would have raised — panic identity is part of the
// determinism contract, not just results.
type firstPanic struct {
	mu    sync.Mutex
	set   bool
	index int
	value any
}

func (p *firstPanic) record(i int, v any) {
	p.mu.Lock()
	if !p.set || i < p.index {
		p.set, p.index, p.value = true, i, v
	}
	p.mu.Unlock()
}

func (p *firstPanic) repanic() {
	if p.set {
		panic(p.value)
	}
}

// Map computes out[i] = fn(i) for every i in [0, n) using the calling
// goroutine plus at most workers−1 helpers recruited from the shared
// process pool (see pool.go), and returns the results in index order.
// Work items are handed out dynamically (an atomic cursor), so uneven
// per-item cost balances across workers; determinism is unaffected
// because each result is stored at its input index — how many helpers
// actually joined changes timing only, never output. workers ≤ 1 (or
// n ≤ 1) runs inline on the calling goroutine. n ≤ 0 yields nil. If fn
// panics, every remaining item still runs and the panic with the lowest
// item index is re-raised on the calling goroutine — exactly what the
// sequential path would raise.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var fp firstPanic
	var next atomic.Int64
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						fp.record(i, r)
					}
				}()
				out[i] = fn(i)
			}()
		}
	}
	helpers := sharedPool().recruit(workers-1, loop)
	loop()
	helpers.Wait()
	fp.repanic()
	return out
}

// Shard is a contiguous index range [Lo, Hi) of some indexed input.
type Shard struct{ Lo, Hi int }

// Len returns the number of indices in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Shards partitions [0, n) into at most workers near-equal contiguous
// shards, in ascending index order. Every index belongs to exactly one
// shard; shard sizes differ by at most one. n ≤ 0 yields nil.
func Shards(workers, n int) []Shard {
	if n <= 0 {
		return nil
	}
	workers = clampWorkers(workers, n)
	out := make([]Shard, 0, workers)
	per, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < rem {
			hi++
		}
		out = append(out, Shard{Lo: lo, Hi: hi})
		lo = hi
	}
	return out
}

// MapShards partitions [0, n) into at most workers contiguous shards,
// computes one partial result per shard concurrently (the calling
// goroutine plus idle helpers recruited from the shared pool), and
// returns the partials in shard order (ascending Lo). The caller folds
// the partials left to right, which makes the merged output a function of
// the input alone — the ordered-merge half of the determinism contract.
// Shard geometry derives from the workers knob alone, never from how many
// helpers actually joined, so the partials are identical at any pool
// occupancy. A single shard (workers ≤ 1 or n small) runs fn(0, n)
// inline, which is exactly the sequential path. n ≤ 0 yields nil. If fn
// panics, the remaining shards still run and the panic with the lowest
// shard index is re-raised on the calling goroutine.
func MapShards[T any](workers, n int, fn func(lo, hi int) T) []T {
	shards := Shards(workers, n)
	if len(shards) == 0 {
		return nil
	}
	if len(shards) == 1 {
		return []T{fn(0, n)}
	}
	var fp firstPanic
	out := make([]T, len(shards))
	var next atomic.Int64
	loop := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shards) {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						fp.record(i, r)
					}
				}()
				out[i] = fn(shards[i].Lo, shards[i].Hi)
			}()
		}
	}
	helpers := sharedPool().recruit(len(shards)-1, loop)
	loop()
	helpers.Wait()
	fp.repanic()
	return out
}
