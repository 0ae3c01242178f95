// Package stream implements bounded-memory incremental mining over a
// sliding window of log buckets — the "moving" half of mapping a moving
// landscape. Where cmd/depmine loads a finished corpus and mines it once,
// this package consumes a live, append-mostly log stream: an Ingester cuts
// the stream into fixed-width time buckets, and per-technique stream miners
// (L1Stream, L2Stream, L3Stream) maintain just enough state to answer "what
// is the dependency model of the last W buckets" at any time.
//
// The package's contract is batch equivalence: after every Advance, a
// miner's Snapshot is byte-identical (as a serialized core.ModelDocument)
// to running the corresponding batch miner over a store holding exactly the
// window's entries. The per-technique state is chosen so that Advance costs
// O(bucket), not O(window):
//
//   - L1 keeps the per-slot test outcomes of each window bucket. Slot
//     outcomes depend only on the slot's entries and its absolute time
//     range (the RNG seed hashes the slot start, not the slot index), so a
//     bucket's outcomes are computed once when it enters the window, added
//     to an exact per-pair (support, positive) l1.Tally, and removed from
//     it when the bucket retires; Snapshot just decides the tallied pairs.
//   - L2 keeps a sessions.Tracker (incremental per-user session runs that
//     span bucket boundaries) and an l2.Counts bigram aggregation updated
//     from the tracker's session deltas. Snapshot re-runs only the per-type
//     association tests.
//   - L3 keeps the per-bucket citation evidence maps; Snapshot folds them
//     in time order with l3.MergeEvidence.
//
// All snapshots are deterministic and worker-count independent, like the
// batch miners (see DESIGN.md §9).
package stream
