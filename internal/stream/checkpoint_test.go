package stream_test

// The checkpoint tests resume the way a restarted follower does: the
// delivered buckets were appended to a model store as they closed, the
// checkpoint file is read back, its window is hydrated from the reopened
// store, and only then restored — so they live outside the package, beside
// modelstore.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/sessions"
	"logscape/internal/stream"
)

// ckptMiners builds a fresh miner stack for checkpoint tests.
func ckptMiners(wcfg stream.Config) []stream.Miner {
	l1cfg := l1.DefaultConfig()
	l1cfg.MinLogs = 2
	l1cfg.SampleSize = 8
	return []stream.Miner{
		stream.NewL1(wcfg, l1cfg),
		stream.NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2},
			l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2}),
	}
}

// snapshots serializes every miner's snapshot.
func snapshots(t *testing.T, miners []stream.Miner) [][]byte {
	t.Helper()
	out := make([][]byte, len(miners))
	for i, m := range miners {
		var buf bytes.Buffer
		if err := core.WriteModel(&buf, m.Snapshot()); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// ckptEntries is a deterministic multi-bucket, multi-user entry sequence.
func ckptEntries() []logmodel.Entry {
	var es []logmodel.Entry
	srcs := []string{"A", "B", "C"}
	users := []string{"u1", "u2", ""}
	for i := 0; i < 120; i++ {
		es = append(es, logmodel.Entry{
			Time:    logmodel.Millis(1000 + i*137),
			Source:  srcs[i%len(srcs)],
			Host:    "h",
			User:    users[i%len(users)],
			Message: "step",
		})
	}
	return es
}

// storeConfig is the store geometry matching wcfg's window.
func storeConfig(wcfg stream.Config) modelstore.Config {
	return modelstore.Config{BucketWidth: wcfg.BucketWidth, WindowBuckets: wcfg.WindowBuckets}
}

// storeBuckets opens a store in a fresh directory and returns it with an
// OnAdvance hook that appends each delivered bucket's entries to it as
// evidence — the part of the follow engine's store stage resume reads back.
func storeBuckets(t *testing.T, wcfg stream.Config) (*modelstore.Store, func(stream.Bucket)) {
	t.Helper()
	s, err := modelstore.Open(t.TempDir(), storeConfig(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	return s, func(b stream.Bucket) {
		rec := modelstore.Record{Bucket: b.Index, Range: b.Range, Model: []byte("{}\n")}
		for _, e := range b.Entries {
			rec.Evidence = append(rec.Evidence, logmodel.AppendEntry(nil, e))
		}
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// resume persists cp, reads it back, hydrates its window from the reopened
// store in dir and restores the given fresh miners from it.
func resume(t *testing.T, dir string, wcfg stream.Config, cp *stream.Checkpoint, miners ...stream.Miner) (*stream.Ingester, *stream.Checkpoint) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "follow.ckpt")
	if err := stream.WriteCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	loaded, err := stream.ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := modelstore.Open(dir, storeConfig(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hydrate(loaded); err != nil {
		t.Fatal(err)
	}
	in, err := loaded.Restore(wcfg, miners...)
	if err != nil {
		t.Fatal(err)
	}
	return in, loaded
}

func windowBytes(t *testing.T, in *stream.Ingester) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := logmodel.WriteAll(&buf, in.WindowStore()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4}
	es := ckptEntries()

	// Reference: one uninterrupted run.
	refMiners := ckptMiners(wcfg)
	ref := stream.NewIngester(wcfg, refMiners...)
	ref.AddBatch(es)
	ref.Flush()

	// Interrupted run: store every bucket, checkpoint at the 3rd closed
	// bucket, drop everything, restore, continue with the remaining entries.
	preMiners := ckptMiners(wcfg)
	pre := stream.NewIngester(wcfg, preMiners...)
	s, store := storeBuckets(t, wcfg)
	var cp *stream.Checkpoint
	closed := 0
	pre.OnAdvance = func(b stream.Bucket) {
		store(b)
		if closed++; closed == 3 {
			cp = pre.CheckpointLight(0, 0)
		}
	}
	cut := -1
	for i, e := range es {
		pre.Add(e)
		if cp != nil {
			cut = i
			break
		}
	}
	if cp == nil {
		t.Fatal("checkpoint never taken; entry sequence too short")
	}

	postMiners := ckptMiners(wcfg)
	resumed, _ := resume(t, s.Dir(), wcfg, cp, postMiners...)
	// The entry that closed bucket 3 is in the checkpoint's pending set;
	// resume strictly after it.
	resumed.AddBatch(es[cut+1:])
	resumed.Flush()

	if got, want := snapshots(t, postMiners), snapshots(t, refMiners); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed snapshots diverge from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if got, want := resumed.Stats(), ref.Stats(); got != want {
		t.Errorf("resumed stats = %+v, want %+v", got, want)
	}
	if !bytes.Equal(windowBytes(t, resumed), windowBytes(t, ref)) {
		t.Error("resumed window store differs from the uninterrupted run")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4}
	in := stream.NewIngester(wcfg)
	s, store := storeBuckets(t, wcfg)
	in.OnAdvance = store
	// Messages that are not valid UTF-8 must survive both round trips: the
	// delivered one through the store, the pending one through the file
	// (encoding/json would mangle it in a plain string field).
	raw, pend := string([]byte{0xff, 0xfe, 'x'}), string([]byte{'y', 0xc3})
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h", Message: raw})
	in.Add(logmodel.Entry{Time: 2500, Source: "B", Host: "h", Message: pend})

	restored, cp := resume(t, s.Dir(), wcfg, in.CheckpointLight(42, 1))
	if cp.Offset != 42 || cp.Rotations != 1 {
		t.Errorf("offset/rotations = %d/%d, want 42/1", cp.Offset, cp.Rotations)
	}
	if win := restored.WindowStore().Entries(); len(win) != 1 || win[0].Message != raw {
		t.Errorf("restored window = %+v; non-UTF-8 message must round-trip exactly", win)
	}
	restored.Flush()
	if win := restored.WindowStore().Entries(); len(win) != 2 || win[1].Message != pend {
		t.Errorf("window after flushing the restored open bucket = %+v, want the pending entry last", win)
	}

	if cp2, err := stream.ReadCheckpointFile(filepath.Join(t.TempDir(), "absent")); cp2 != nil || err != nil {
		t.Errorf("missing checkpoint = %v, %v; want nil, nil", cp2, err)
	}
}

func TestCheckpointRestoreValidation(t *testing.T) {
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4}
	in := stream.NewIngester(wcfg)
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	s, err := modelstore.Open(t.TempDir(), storeConfig(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	cp := in.CheckpointLight(0, 0)
	if err := s.Hydrate(cp); err != nil {
		t.Fatal(err)
	}

	if _, err := cp.Restore(stream.Config{BucketWidth: 2000, WindowBuckets: 4}); err == nil ||
		!strings.Contains(err.Error(), "geometry") {
		t.Errorf("geometry mismatch = %v, want refusal", err)
	}
	bad := *cp
	bad.Version = 99
	if _, err := bad.Restore(wcfg); err == nil {
		t.Error("version mismatch accepted")
	}
	bad = *cp
	bad.Pending = [][]byte{[]byte("not a wire line")}
	if _, err := bad.Restore(wcfg); err == nil {
		t.Error("corrupt pending line accepted")
	}
	bad = *cp
	bad.Buckets = []stream.CheckpointBucket{{Index: 5}, {Index: 3}}
	if _, err := bad.Restore(wcfg); err == nil {
		t.Error("out-of-order buckets accepted")
	}
}

// TestCheckpointLight pins the one checkpoint form: no window buckets
// inside, the WindowInStore marker set, pending entries still carried — and
// a refusal from Restore until the store has put the window back.
func TestCheckpointLight(t *testing.T) {
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4}
	in := stream.NewIngester(wcfg)
	s, store := storeBuckets(t, wcfg)
	in.OnAdvance = store
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h", Message: "windowed"})
	in.Add(logmodel.Entry{Time: 2500, Source: "B", Host: "h", Message: "pending"})

	light := in.CheckpointLight(42, 0)
	if !light.WindowInStore {
		t.Fatal("checkpoint not marked WindowInStore")
	}
	if light.Buckets != nil {
		t.Fatalf("checkpoint carries %d window buckets", len(light.Buckets))
	}
	if len(light.Pending) != 1 {
		t.Fatalf("checkpoint pending = %d entries, want 1", len(light.Pending))
	}
	if _, err := light.Restore(wcfg); err == nil ||
		!strings.Contains(err.Error(), "hydrate") {
		t.Errorf("un-hydrated checkpoint restore = %v, want refusal", err)
	}

	restored, _ := resume(t, s.Dir(), wcfg, light)
	if !bytes.Equal(windowBytes(t, restored), windowBytes(t, in)) {
		t.Error("the window hydrated from the store differs from the checkpointed ingester's")
	}
}

func TestCheckpointBeforeFirstEntry(t *testing.T) {
	wcfg := stream.Config{BucketWidth: 1000, WindowBuckets: 4}
	in := stream.NewIngester(wcfg)
	s, store := storeBuckets(t, wcfg)
	in.OnAdvance = store
	in.Add(logmodel.Entry{Time: stream.MaxAbsTime, Source: "A", Host: "h"}) // corrupt, not accepted
	restored, _ := resume(t, s.Dir(), wcfg, in.CheckpointLight(7, 0))
	if cur := restored.CheckpointLight(0, 0).Cur; cur != -1 {
		t.Errorf("restored ingester claims a fixed origin (cursor %d) before any accepted entry", cur)
	}
	if restored.Stats().Corrupt != 1 {
		t.Errorf("stats = %+v, want the corrupt drop carried over", restored.Stats())
	}
	restored.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	if cur := restored.CheckpointLight(0, 0).Cur; cur != 0 {
		t.Errorf("restored ingester's cursor after the first accepted entry = %d, want 0", cur)
	}
}

// TestReadCheckpointFileRefusesOldVersion: a version-1 file — drift state
// as a JSON object where version 2 holds base64 bytes — is refused by its
// version, before the field whose type changed is decoded.
func TestReadCheckpointFileRefusesOldVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follow.ckpt")
	v1 := `{"version":1,"offset":42,"rotations":0,"bucket_width":1000,"window_buckets":4,` +
		`"origin":0,"cur":3,"open":true,"stats":{},"drift":{"version":1,"seq":7}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := stream.ReadCheckpointFile(path)
	want := "stream: checkpoint " + path + " has format version 1, want 2 — remove it and point -store at a fresh directory to start fresh"
	if cp != nil || err == nil || err.Error() != want {
		t.Fatalf("version-1 checkpoint read = %v, %v\nwant the refusal %q", cp, err, want)
	}

	// What is written today reads back, drift bytes included.
	in := stream.NewIngester(stream.Config{BucketWidth: 1000, WindowBuckets: 4})
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	out := in.CheckpointLight(42, 0)
	out.Drift = []byte{2, 0, 0xff, 0x00}
	if err := stream.WriteCheckpointFile(path, out); err != nil {
		t.Fatal(err)
	}
	if cp, err = stream.ReadCheckpointFile(path); err != nil || !bytes.Equal(cp.Drift, out.Drift) {
		t.Fatalf("version-2 round trip = %+v, %v; want drift bytes %x", cp, err, out.Drift)
	}
}
