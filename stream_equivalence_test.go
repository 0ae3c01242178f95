package logscape_test

// Golden batch-vs-stream equivalence harness: the streaming miners'
// contract (internal/stream) is that after every window advance, Snapshot
// serializes byte-identically to the corresponding batch miner run over a
// store holding exactly the window's entries. The harness drives a
// simulated testbed day through the ingester bucket by bucket and checks
// the contract on every prefix window, for Workers: 1 and Workers: 8, with
// bucket recycling off and on, for all three techniques at once. It extends the worker-equivalence suite of
// determinism_test.go into the time dimension: not just "same result for
// any worker count" but "same result no matter how the window got there".

import (
	"bytes"
	"testing"

	"logscape"
	"logscape/internal/core"
)

// serializeDoc renders a model document canonically.
func serializeDoc(t *testing.T, d core.ModelDocument) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteModel(&buf, d); err != nil {
		t.Fatalf("serialize %s document: %v", d.Technique, err)
	}
	return buf.Bytes()
}

// streamRun holds the per-advance snapshots of one full ingestion run.
type streamRun struct {
	buckets   []int64
	snapshots map[string][][]byte // technique → snapshot bytes per advance
}

// runStreamDay streams one testbed day through all three miners and
// records, per advance, the snapshot bytes and — when checkBatch — compares
// them against the batch reference over the ingester's window store.
func runStreamDay(t *testing.T, workers int, recycle, checkBatch bool) streamRun {
	t.Helper()
	tb := logscape.NewTestbed(11, 0.1, 1)
	store := tb.Day(0)

	wcfg := logscape.StreamConfig{
		BucketWidth:    logscape.Millis(3600_000),
		WindowBuckets:  6,
		Workers:        workers,
		RecycleBuckets: recycle,
	}
	miners := map[string]logscape.StreamMiner{
		"l1": logscape.NewL1Stream(wcfg, logscape.L1Config{MinLogs: 8, Seed: 11, Workers: workers}),
		"l2": logscape.NewL2Stream(wcfg, logscape.SessionConfig{}, logscape.L2Config{Workers: workers}), //lint:allow cfgzero stream-equivalence test exercises package defaults
		"l3": logscape.NewL3Stream(wcfg, logscape.NewL3Miner(tb.Directory(), logscape.L3Config{
			Stops:        tb.StopPatterns(),
			MinCitations: 1,
			Owner:        tb.GroupOwners(),
			Workers:      workers,
		})),
	}
	order := []string{"l1", "l2", "l3"}

	run := streamRun{snapshots: map[string][][]byte{}}
	ing := logscape.NewIngester(wcfg, miners["l1"], miners["l2"], miners["l3"])
	ing.OnAdvance = func(b logscape.StreamBucket) {
		run.buckets = append(run.buckets, b.Index)
		win := ing.WindowStore()
		r := ing.WindowRange()
		for _, tech := range order {
			snap := serializeDoc(t, miners[tech].Snapshot())
			run.snapshots[tech] = append(run.snapshots[tech], snap)
			if checkBatch {
				batch := serializeDoc(t, miners[tech].Batch(win, r))
				if !bytes.Equal(snap, batch) {
					t.Errorf("workers=%d %s: snapshot after bucket %d differs from batch over the same window\nstream: %s\nbatch:  %s",
						workers, tech, b.Index, snap, batch)
				}
			}
		}
	}
	ing.AddBatch(store.Entries())
	ing.Flush()

	if got := len(run.buckets); got < 20 {
		t.Fatalf("workers=%d: expected ~24 bucket advances over a day, got %d", workers, got)
	}
	if s := ing.Stats(); s.Late != 0 || s.Corrupt != 0 {
		t.Errorf("workers=%d: simulator stream should ingest losslessly, got %+v", workers, s)
	}
	return run
}

// TestStreamBatchEquivalence checks the byte-equivalence contract on every
// prefix window of a simulated day, sequentially and sharded.
func TestStreamBatchEquivalence(t *testing.T) {
	seq := runStreamDay(t, 1, false, true)

	// The advance sequences and every per-advance snapshot must also agree
	// across worker counts (the determinism contract, extended to
	// streaming) and with bucket recycling on: the ingester zeroes each
	// slice it recycles, so a miner that kept one would diverge here.
	for _, arm := range []struct {
		workers int
		recycle bool
	}{{8, false}, {1, true}, {8, true}} {
		other := runStreamDay(t, arm.workers, arm.recycle, false)
		if len(seq.buckets) != len(other.buckets) {
			t.Fatalf("%+v: advance counts differ: %d vs %d", arm, len(seq.buckets), len(other.buckets))
		}
		for _, tech := range []string{"l1", "l2", "l3"} {
			a, b := seq.snapshots[tech], other.snapshots[tech]
			if len(a) != len(b) {
				t.Fatalf("%+v %s: snapshot counts differ: %d vs %d", arm, tech, len(a), len(b))
			}
			for i := range a {
				requireSameBytes(t, tech, a[i], b[i])
			}
		}
	}

	// The mined window models must not be degenerate for the whole day:
	// at least one advance has to produce a non-empty L1/L2 model and L3
	// must find citations (otherwise the harness proves nothing).
	for _, tech := range []string{"l1", "l2", "l3"} {
		some := false
		for _, snap := range seq.snapshots[tech] {
			if bytes.Contains(snap, []byte(`"pairs"`)) || bytes.Contains(snap, []byte(`"deps"`)) {
				some = true
				break
			}
		}
		if !some {
			t.Errorf("%s: every window snapshot of the day is empty; harness is vacuous", tech)
		}
	}
}
