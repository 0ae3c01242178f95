package main

// Integration tests for `-follow -store` and the time-travel subcommands.
// The headline contract pinned here: the segment store's round trip is
// byte-identical to the live model stream — at Workers 1 and 8, before
// and after compaction, and across a kill + compact + resume restart —
// and a store-backed resume replays the window from local segments
// without re-reading the source logs.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/stream"
)

// bucketCorpus emits a stream of n buckets of the given width: sources
// AppA and AppB tick together in every bucket, AppC joins for alternating
// stretches of eight buckets (so the mined pair set, the diffs and the
// trajectories all move over time). A final out-of-window line closes the
// last bucket.
func bucketCorpus(n int, width time.Duration) []string {
	var lines []string
	for b := 0; b < n; b++ {
		srcs := []string{"AppA", "AppB"}
		if (b/8)%2 == 1 {
			srcs = append(srcs, "AppC")
		}
		for i := 0; i < 6; i++ {
			at := ts(time.Duration(b)*width + time.Duration(i*37)*time.Millisecond)
			for _, s := range srcs {
				lines = append(lines, line(at, s, fmt.Sprintf("tick %d", i)))
			}
		}
	}
	lines = append(lines, line(ts(time.Duration(n)*width), "AppA", "done"))
	return lines
}

// storeOpts is followOpts plus a fresh store directory: 15-minute buckets
// and a 4-bucket window, so the default hour/day/week ladder packs four
// records per raw granule and a two-day corpus crosses the raw→hour→day
// compaction thresholds inside the test.
func storeOpts(t *testing.T, file string) options {
	t.Helper()
	o := followOpts(file)
	o.spec.BucketSec = 900
	o.spec.WindowBuckets = 4
	o.storePath = filepath.Join(t.TempDir(), "store")
	return o
}

// splitDocs cuts a follow run's stdout into one byte slice per emitted
// model document (each document is indented JSON whose closing brace is
// the only text at column zero).
func splitDocs(t *testing.T, out []byte) [][]byte {
	t.Helper()
	var docs [][]byte
	start := 0
	for _, lineEnd := range docBoundaries(out) {
		docs = append(docs, out[start:lineEnd])
		start = lineEnd
	}
	if start != len(out) {
		t.Fatalf("%d trailing stdout bytes after the last document", len(out)-start)
	}
	return docs
}

// docBoundaries returns the offsets just past each "}\n" document close.
func docBoundaries(out []byte) []int {
	var ends []int
	for i := 0; i+1 < len(out); i++ {
		atLineStart := i == 0 || out[i-1] == '\n'
		if atLineStart && out[i] == '}' && out[i+1] == '\n' {
			ends = append(ends, i+2)
		}
	}
	return ends
}

// TestFollowStoreByteIdentity is the headline round-trip contract: every
// record the store retains — raw tier and compacted tiers alike — holds
// the exact bytes the follower emitted live for that bucket, at Workers 1
// and at Workers 8 (where the two runs' stdout and store directories must
// also be identical to each other).
func TestFollowStoreByteIdentity(t *testing.T) {
	lines := writeLog(t, bucketCorpus(200, 15*time.Minute)) // 50 hours of stream
	var streams [2][]byte
	var stores [2]string
	for i, workers := range []int{1, 8} {
		o := storeOpts(t, lines)
		o.spec.Workers = workers
		var stdout, stderr bytes.Buffer
		if err := followStream(o, &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		streams[i] = stdout.Bytes()
		stores[i] = o.storePath

		// 200 full buckets plus the final flushed partial one.
		docs := splitDocs(t, stdout.Bytes())
		if len(docs) != 201 {
			t.Fatalf("workers=%d: %d documents emitted, want 201", workers, len(docs))
		}
		st, err := modelstore.OpenRead(o.storePath)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || len(recs) >= 201 {
			t.Fatalf("workers=%d: %d records retained, want a compacted subset", workers, len(recs))
		}
		for _, r := range recs {
			// The corpus has no empty buckets, so bucket index == emission
			// ordinal.
			if !bytes.Equal(r.Model, docs[r.Bucket]) {
				t.Fatalf("workers=%d: bucket %d: stored model differs from the live document", workers, r.Bucket)
			}
			got, ok, err := st.ModelAt(r.Range.End)
			if err != nil || !ok {
				t.Fatalf("workers=%d: ModelAt(%d) = (%v, %v)", workers, r.Range.End, ok, err)
			}
			if !bytes.Equal(got.Model, docs[r.Bucket]) {
				t.Fatalf("workers=%d: query at bucket %d's close returns different bytes", workers, r.Bucket)
			}
		}
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Error("stdout differs between Workers 1 and 8")
	}
	d0, d1 := storeDirBytes(t, stores[0]), storeDirBytes(t, stores[1])
	if len(d0) != len(d1) {
		t.Fatalf("store file sets differ between worker counts: %d vs %d files", len(d0), len(d1))
	}
	for name, data := range d0 {
		if !bytes.Equal(d1[name], data) {
			t.Errorf("store file %s differs between Workers 1 and 8", name)
		}
	}
}

// storeDirBytes snapshots a store directory's segment files by name.
func storeDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestFollowStoreKillCompactResume kills the follower mid-stream (after
// compaction has already folded early granules) and resumes from the
// light checkpoint: the concatenated stdout and the final store directory
// must be byte-identical to an uninterrupted run's.
func TestFollowStoreKillCompactResume(t *testing.T) {
	lines := bucketCorpus(200, 15*time.Minute)
	full := writeLog(t, lines)

	oref := storeOpts(t, full)
	var refOut, refErr bytes.Buffer
	if err := followStream(oref, &refOut, &refErr); err != nil {
		t.Fatal(err)
	}

	// Cut at the bucket-120 boundary (30 hours in: the day-0 fold has
	// already run by then).
	cut := 0
	for i, l := range lines {
		e, err := logmodel.ParseEntry(l)
		if err != nil {
			t.Fatal(err)
		}
		if e.Time < ts(120*15*time.Minute) {
			cut = i + 1
		}
	}
	prefix := writeLog(t, lines[:cut])
	ckpt := filepath.Join(t.TempDir(), "follow.ckpt")

	o1 := storeOpts(t, prefix)
	o1.resumePath = ckpt
	var out1, err1 bytes.Buffer
	if err := followStream(o1, &out1, &err1); err != nil {
		t.Fatal(err)
	}

	// The light checkpoint must not carry the window: that is the claim
	// that resume's window comes from segments, not from the checkpoint.
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"window_in_store":true`)) || bytes.Contains(raw, []byte(`"buckets"`)) {
		t.Fatalf("checkpoint is not a light checkpoint: %s", raw)
	}

	o2 := storeOpts(t, full)
	o2.storePath = o1.storePath // same store lineage
	o2.resumePath = ckpt
	var out2, err2 bytes.Buffer
	if err := followStream(o2, &out2, &err2); err != nil {
		t.Fatal(err)
	}

	got := append(append([]byte{}, out1.Bytes()...), out2.Bytes()...)
	if !bytes.Equal(got, refOut.Bytes()) {
		t.Error("kill+resume stdout differs from the uninterrupted run")
	}
	dref, dgot := storeDirBytes(t, oref.storePath), storeDirBytes(t, o2.storePath)
	if len(dref) != len(dgot) {
		t.Fatalf("store file sets differ: %d (reference) vs %d (resumed)", len(dref), len(dgot))
	}
	for name, data := range dref {
		if !bytes.Equal(dgot[name], data) {
			t.Errorf("store file %s differs after kill+compact+resume", name)
		}
	}
}

// TestFollowStoreResumeDoesNotRereadSource replaces everything the first
// run consumed with garbage of the same length before resuming: if the
// resumed process re-read any consumed byte — for the window or otherwise
// — it would ingest garbage and diverge. It must instead seek past the
// wreckage and continue byte-identically, with zero malformed lines.
func TestFollowStoreResumeDoesNotRereadSource(t *testing.T) {
	lines := bucketCorpus(40, time.Second)
	fullContent := []byte(strings.Join(lines, "\n") + "\n")
	full := writeLog(t, lines)

	o := storeOpts(t, full)
	o.spec.BucketSec = 1
	var refOut, refErr bytes.Buffer
	if err := followStream(o, &refOut, &refErr); err != nil {
		t.Fatal(err)
	}

	cut := 0
	for i, l := range lines {
		e, err := logmodel.ParseEntry(l)
		if err != nil {
			t.Fatal(err)
		}
		if e.Time < ts(20*time.Second) {
			cut = i + 1
		}
	}
	prefix := writeLog(t, lines[:cut])
	ckpt := filepath.Join(t.TempDir(), "follow.ckpt")
	o1 := storeOpts(t, prefix)
	o1.spec.BucketSec = 1
	o1.resumePath = ckpt
	var out1, err1 bytes.Buffer
	if err := followStream(o1, &out1, &err1); err != nil {
		t.Fatal(err)
	}

	cp, err := stream.ReadCheckpointFile(ckpt)
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint after the first run: %v", err)
	}
	// The tail that refuses reads: every consumed byte becomes 'x'.
	mangled := append([]byte{}, fullContent...)
	for i := int64(0); i < cp.Offset; i++ {
		mangled[i] = 'x'
	}
	mangledPath := filepath.Join(t.TempDir(), "mangled.log")
	if err := os.WriteFile(mangledPath, mangled, 0o644); err != nil {
		t.Fatal(err)
	}

	o2 := storeOpts(t, mangledPath)
	o2.spec.BucketSec = 1
	o2.storePath = o1.storePath
	o2.resumePath = ckpt
	var out2, err2 bytes.Buffer
	if err := followStream(o2, &out2, &err2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(err2.String(), " 0 malformed,") {
		t.Errorf("resumed run read garbage:\n%s", err2.String())
	}
	got := append(append([]byte{}, out1.Bytes()...), out2.Bytes()...)
	if !bytes.Equal(got, refOut.Bytes()) {
		t.Error("resumed-run stdout differs from the uninterrupted run")
	}
}

func TestFollowStoreRefusals(t *testing.T) {
	lines := writeLog(t, bucketCorpus(6, time.Second))

	// A second fresh run over a populated store must refuse: its origin
	// would not match the stored bucket indexes.
	o := storeOpts(t, lines)
	o.spec.BucketSec = 1
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	o2 := storeOpts(t, lines)
	o2.spec.BucketSec = 1
	o2.storePath = o.storePath
	if err := followStream(o2, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "already holds segments") {
		t.Errorf("fresh run over a populated store: err = %v", err)
	}

	// A checkpoint without a store must refuse.
	lines2 := writeLog(t, bucketCorpus(6, time.Second))
	ckpt := filepath.Join(t.TempDir(), "follow.ckpt")
	o3 := storeOpts(t, lines2)
	o3.spec.BucketSec = 1
	o3.resumePath = ckpt
	if err := followStream(o3, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	o4 := followOpts(lines2)
	o4.resumePath = ckpt
	if err := followStream(o4, &stdout, &stderr); err == nil ||
		!strings.Contains(err.Error(), "rerun with -store DIR") {
		t.Errorf("checkpoint without -store: err = %v", err)
	}
}

// TestStoreSubcommands drives query, diff and trajectory over a store a
// follow run just wrote.
func TestStoreSubcommands(t *testing.T) {
	lines := writeLog(t, bucketCorpus(20, time.Second))
	o := storeOpts(t, lines)
	o.spec.BucketSec = 1
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	docs := splitDocs(t, stdout.Bytes())

	// query -at the close of bucket 9 (AppC active: buckets 8..15) must
	// print that bucket's document byte-for-byte.
	at := ts(10 * time.Second)
	var q bytes.Buffer
	err := runStoreCommand("query", []string{
		"-store", o.storePath, "-at", fmt.Sprintf("%d", int64(at))}, &q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Bytes(), docs[9]) {
		t.Errorf("query output differs from the live document:\n got %s\nwant %s", q.Bytes(), docs[9])
	}

	// The same instant in the zone-less UTC form must parse identically.
	q.Reset()
	err = runStoreCommand("query", []string{
		"-store", o.storePath, "-at", at.Time().Format("2006-01-02T15:04:05")}, &q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Bytes(), docs[9]) {
		t.Error("query with a formatted timestamp returned different bytes")
	}

	// diff across AppC's arrival must show its pairs appearing.
	var d bytes.Buffer
	err = runStoreCommand("diff", []string{
		"-store", o.storePath,
		"-from", fmt.Sprintf("%d", int64(ts(4*time.Second))),
		"-to", fmt.Sprintf("%d", int64(ts(12*time.Second)))}, &d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "+ AppA--AppC") {
		t.Errorf("diff output lacks AppC's arrival:\n%s", d.String())
	}

	// trajectory of AppA--AppC flips absent → present.
	var tr bytes.Buffer
	err = runStoreCommand("trajectory", []string{
		"-store", o.storePath, "-key", "AppA--AppC"}, &tr)
	if err != nil {
		t.Fatal(err)
	}
	out := tr.String()
	if !strings.Contains(out, "\tabsent\t") || !strings.Contains(out, "\tpresent\t") {
		t.Errorf("trajectory lacks the absent→present transition:\n%s", out)
	}

	// Unknown flags and missing arguments fail loudly.
	if err := runStoreCommand("query", []string{"-store", o.storePath}, &q); err == nil {
		t.Error("query without -at accepted")
	}
	if err := runStoreCommand("diff", []string{"-store", o.storePath, "-from", "nonsense", "-to", "0"}, &d); err == nil {
		t.Error("unparseable -from accepted")
	}
	if err := runStoreCommand("trajectory", []string{}, &tr); err == nil {
		t.Error("trajectory without -store accepted")
	}
}

// TestFollowStoreDriftSegmentAnnotation: with both -drift and -store, the
// DRIFT lines carry a segment=… locator pointing at a raw segment record;
// without a store the lines keep their historical form (pinned by the
// follow_drift golden elsewhere).
func TestFollowStoreDriftSegmentAnnotation(t *testing.T) {
	o := followOpts(writeLog(t, driftCorpus()))
	o.spec.Method = "l3"
	o.spec.Directory = writeDirXML(t)
	o.spec.Drift = true
	o.storePath = filepath.Join(t.TempDir(), "store")
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	alerts := driftLines(stderr.String())
	if len(alerts) == 0 {
		t.Fatal("no DRIFT lines")
	}
	for _, a := range alerts {
		if !strings.Contains(a, " segment=raw-") || !strings.Contains(a, ".seg#") {
			t.Errorf("alert lacks a segment locator: %s", a)
		}
	}
}
