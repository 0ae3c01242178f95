package stream

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
	"logscape/internal/sessions"
)

// ckptMiners builds a fresh miner stack for checkpoint tests.
func ckptMiners(wcfg Config) []Miner {
	l1cfg := l1.DefaultConfig()
	l1cfg.MinLogs = 2
	l1cfg.SampleSize = 8
	return []Miner{
		NewL1(wcfg, l1cfg),
		NewL2(wcfg, sessions.Config{MaxGap: 500, MinEntries: 2, MinSources: 2},
			l2.Config{MinJoint: 1, Alpha: 0.05, Timeout: 500, Measure: l2.MeasureG2}),
	}
}

// snapshots serializes every miner's snapshot.
func snapshots(t *testing.T, miners []Miner) [][]byte {
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

func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	wcfg := Config{BucketWidth: 1000, WindowBuckets: 4}
	es := ckptEntries()

	// Reference: one uninterrupted run.
	refMiners := ckptMiners(wcfg)
	ref := NewIngester(wcfg, refMiners...)
	ref.AddBatch(es)
	ref.Flush()

	// Interrupted run: checkpoint at the 3rd closed bucket, drop everything,
	// restore, continue with the remaining entries.
	preMiners := ckptMiners(wcfg)
	pre := NewIngester(wcfg, preMiners...)
	var cp *Checkpoint
	closed := 0
	pre.OnAdvance = func(Bucket) {
		closed++
		if closed == 3 {
			cp = pre.Checkpoint(0, 0)
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
	resumed, err := cp.Restore(wcfg, postMiners...)
	if err != nil {
		t.Fatal(err)
	}
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
	var a, b bytes.Buffer
	if err := logmodel.WriteAll(&a, resumed.WindowStore()); err != nil {
		t.Fatal(err)
	}
	if err := logmodel.WriteAll(&b, ref.WindowStore()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("resumed window store differs from the uninterrupted run")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	wcfg := Config{BucketWidth: 1000, WindowBuckets: 4}
	in := NewIngester(wcfg)
	// A message that is not valid UTF-8 must survive the file round trip
	// (encoding/json would mangle it in a plain string field).
	raw := string([]byte{0xff, 0xfe, 'x'})
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h", Message: raw})
	in.Add(logmodel.Entry{Time: 2500, Source: "B", Host: "h", Message: "closes bucket"})

	path := filepath.Join(t.TempDir(), "follow.ckpt")
	if err := WriteCheckpointFile(path, in.Checkpoint(42, 1)); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Offset != 42 || cp.Rotations != 1 {
		t.Errorf("offset/rotations = %d/%d, want 42/1", cp.Offset, cp.Rotations)
	}
	restored, err := cp.Restore(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	win := restored.WindowStore().Entries()
	if len(win) != 1 || win[0].Message != raw {
		t.Errorf("restored window = %+v; non-UTF-8 message must round-trip exactly", win)
	}
	if len(restored.pending) != 1 || restored.pending[0].Message != "closes bucket" {
		t.Errorf("restored pending = %+v, want the open-bucket entry", restored.pending)
	}

	if cp2, err := ReadCheckpointFile(filepath.Join(t.TempDir(), "absent")); cp2 != nil || err != nil {
		t.Errorf("missing checkpoint = %v, %v; want nil, nil", cp2, err)
	}
}

func TestCheckpointRestoreValidation(t *testing.T) {
	wcfg := Config{BucketWidth: 1000, WindowBuckets: 4}
	in := NewIngester(wcfg)
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	cp := in.Checkpoint(0, 0)

	if _, err := cp.Restore(Config{BucketWidth: 2000, WindowBuckets: 4}); err == nil ||
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
	bad.Buckets = []CheckpointBucket{{Index: 5}, {Index: 3}}
	if _, err := bad.Restore(wcfg); err == nil {
		t.Error("out-of-order buckets accepted")
	}
}

// TestCheckpointLight pins the store-backed checkpoint form: no window
// buckets inside, the WindowInStore marker set, pending entries still
// carried — and a refusal from Restore until a hydrator has put the
// window back.
func TestCheckpointLight(t *testing.T) {
	wcfg := Config{BucketWidth: 1000, WindowBuckets: 4}
	in := NewIngester(wcfg)
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h", Message: "windowed"})
	in.Add(logmodel.Entry{Time: 2500, Source: "B", Host: "h", Message: "pending"})

	full := in.Checkpoint(42, 0)
	light := in.CheckpointLight(42, 0)
	if !light.WindowInStore {
		t.Fatal("light checkpoint not marked WindowInStore")
	}
	if light.Buckets != nil {
		t.Fatalf("light checkpoint carries %d window buckets", len(light.Buckets))
	}
	if len(light.Pending) != 1 {
		t.Fatalf("light checkpoint pending = %d entries, want 1", len(light.Pending))
	}
	if light.Cur != full.Cur || light.Open != full.Open || light.Origin != full.Origin ||
		light.Stats != full.Stats || light.Offset != full.Offset {
		t.Errorf("light checkpoint cursor state diverges from the full form:\nlight %+v\nfull  %+v", light, full)
	}

	if _, err := light.Restore(wcfg); err == nil ||
		!strings.Contains(err.Error(), "hydrate") {
		t.Errorf("un-hydrated light checkpoint restore = %v, want refusal", err)
	}

	// Hand-hydrating with the full checkpoint's buckets makes it restorable
	// and equivalent.
	light.Buckets = full.Buckets
	light.WindowInStore = false
	a, err := light.Restore(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.Restore(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var wa, wb bytes.Buffer
	if err := logmodel.WriteAll(&wa, a.WindowStore()); err != nil {
		t.Fatal(err)
	}
	if err := logmodel.WriteAll(&wb, b.WindowStore()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Error("hydrated light restore differs from the full restore")
	}
}

func TestCheckpointBeforeFirstEntry(t *testing.T) {
	wcfg := Config{BucketWidth: 1000, WindowBuckets: 4}
	in := NewIngester(wcfg)
	in.Add(logmodel.Entry{Time: MaxAbsTime, Source: "A", Host: "h"}) // corrupt, not accepted
	cp := in.Checkpoint(7, 0)
	restored, err := cp.Restore(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.started {
		t.Error("restored ingester claims a fixed origin before any accepted entry")
	}
	if restored.Stats().Corrupt != 1 {
		t.Errorf("stats = %+v, want the corrupt drop carried over", restored.Stats())
	}
	restored.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	if !restored.started {
		t.Error("restored ingester did not start on the first accepted entry")
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
	cp, err := ReadCheckpointFile(path)
	want := "stream: checkpoint " + path + " has format version 1, want 2 — remove it to start fresh"
	if cp != nil || err == nil || err.Error() != want {
		t.Fatalf("version-1 checkpoint read = %v, %v\nwant the refusal %q", cp, err, want)
	}

	// What is written today reads back, drift bytes included.
	in := NewIngester(Config{BucketWidth: 1000, WindowBuckets: 4})
	in.Add(logmodel.Entry{Time: 1500, Source: "A", Host: "h"})
	out := in.Checkpoint(42, 0)
	out.Drift = []byte{2, 0, 0xff, 0x00}
	if err := WriteCheckpointFile(path, out); err != nil {
		t.Fatal(err)
	}
	if cp, err = ReadCheckpointFile(path); err != nil || !bytes.Equal(cp.Drift, out.Drift) {
		t.Fatalf("version-2 round trip = %+v, %v; want drift bytes %x", cp, err, out.Drift)
	}
}
