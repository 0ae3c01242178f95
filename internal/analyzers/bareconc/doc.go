// Package bareconc defines an analyzer that forbids hand-rolled
// concurrency outside internal/parallel.
//
// The miners' determinism contract (bit-identical results for every
// Workers setting) holds because all fan-out goes through the shared
// engine, which fixes output positions by input index or shard order. A
// raw `go` statement, a sync.WaitGroup or an ad-hoc channel fan-out
// anywhere else reintroduces scheduling order into results, so the
// analyzer flags them all and steers to parallel.Map / parallel.MapShards.
// internal/parallel itself — the engine, and the only exemption — is
// skipped by package path.
//
// See DESIGN.md §8 (Static invariants).
package bareconc
