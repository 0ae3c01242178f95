package chaos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzChaosIngest drives the hardened pipeline with fuzzer-chosen input
// lines under a fuzzer-seeded fault schedule. Invariants: nothing panics,
// the streaming snapshot equals the batch reference over the window at
// Workers 1 and 8, the two worker counts agree byte for byte, and — when the
// stream closed at least two buckets on a resumable (non-gzip) transport —
// a simulated kill + resume lands on the same snapshots as the
// uninterrupted run.
func FuzzChaosIngest(f *testing.F) {
	clean := strings.Join(corpusLines(40), "\n")
	f.Add(uint64(1), clean)
	f.Add(uint64(2), "not a log line\n"+clean)
	f.Add(uint64(3), clean+"\n2005-12-06T08:00:00.000Z\tA\th\tu\tINFO\ttail")
	f.Add(uint64(99), "")

	f.Fuzz(func(t *testing.T, seed uint64, data string) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		lines := strings.Split(data, "\n")
		if len(lines) > 200 {
			lines = lines[:200]
		}
		// Derive a moderate fault mix from the seed; every class can arm.
		r := newRNG(seed)
		s := Schedule{
			Seed:              seed,
			TruncatePerMille:  r.intn(300),
			CorruptPerMille:   r.intn(300),
			DuplicatePerMille: r.intn(300),
			ReorderWindow:     r.intn(5),
			SkewMaxMillis:     int64(r.intn(2500)),
			RotateEveryLines:  r.intn(9),
			StallPerMille:     r.intn(250),
			Gzip:              seed%3 == 0,
			TornTail:          seed%9 == 0,
		}
		sc := Inject(lines, s)

		r1 := runScript(t, sc, 1)
		r8 := runScript(t, sc, 8)
		checkRun(t, "workers=1", r1)
		checkRun(t, "workers=8", r8)
		if !reflect.DeepEqual(r1.snaps, r8.snaps) || r1.stats != r8.stats {
			t.Fatalf("worker counts disagree: %+v vs %+v", r1.stats, r8.stats)
		}

		if sc.Gzip || r1.stats.Buckets < 2 {
			return
		}
		// Kill + resume: checkpoint at the first bucket close, replay the
		// rest of the fault stream from the recorded offset.
		got, ok := killResume(t, sc, 1, 1)
		if !ok {
			return // a pre-epoch stream: the store refuses it, so nothing resumes it
		}
		for i := range got.snaps {
			if !bytes.Equal(got.snaps[i], r1.snaps[i]) {
				t.Fatalf("miner %d: resumed snapshot diverges from uninterrupted run\nresumed: %s\nref:     %s",
					i, got.snaps[i], r1.snaps[i])
			}
		}
		if got.stats != r1.stats {
			t.Fatalf("resumed stats = %+v, want %+v", got.stats, r1.stats)
		}
	})
}
