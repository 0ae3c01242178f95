package modelstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/stream"
)

// testCfg is a miniature geometry that exercises the whole compaction
// ladder with second-scale corpora: 1s buckets, a 2-bucket window, 4s
// "hours", 16s "days", 64s "weeks".
func testCfg() Config {
	return Config{
		BucketWidth:   1000,
		WindowBuckets: 2,
		Hour:          4_000,
		Day:           16_000,
		Week:          64_000,
	}
}

// rec builds a record for bucket i with a deterministic unique model
// document (valid JSON, so Trajectory can parse it) and one evidence line.
func rec(i int64) Record {
	start := logmodel.Millis(i * 1000)
	model := fmt.Sprintf("{\n  \"technique\": \"l1\",\n  \"pairs\": [{\"a\": \"app%d\", \"b\": \"db\"}]\n}\n", i)
	return Record{
		Bucket: i,
		Range:  logmodel.TimeRange{Start: start, End: start + 1000},
		Model:  []byte(model),
		Scores: []Score{{Key: fmt.Sprintf("app%d--db", i), Value: float64(i)}},
		Evidence: [][]byte{
			logmodel.AppendEntry(nil, logmodel.Entry{Time: start, Source: fmt.Sprintf("app%d", i), Host: "h", Message: "m"}),
		},
	}
}

func TestModelAtReturnsExactBytes(t *testing.T) {
	// A wide ladder: nothing compacts, every bucket's instant stays
	// retained and must come back byte-exact.
	cfg := testCfg()
	cfg.Hour, cfg.Day, cfg.Week = 1_000_000, 1_000_000, 1_000_000
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 6; i++ {
		// Query exactly at close time, and just before the next close.
		for _, at := range []logmodel.Millis{logmodel.Millis(i*1000 + 1000), logmodel.Millis(i*1000 + 1999)} {
			got, ok, err := s.ModelAt(at)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("no model at %d", at)
			}
			if !bytes.Equal(got.Model, rec(i).Model) {
				t.Fatalf("model at %d: got bucket %d's doc, want bucket %d's", at, got.Bucket, i)
			}
		}
	}
	if _, ok, err := s.ModelAt(999); err != nil || ok {
		t.Fatalf("ModelAt before first close = (%v, %v), want absent", ok, err)
	}
}

func TestCompactionLadderAndRetention(t *testing.T) {
	reg := obs.New()
	cfg := testCfg()
	cfg.Metrics = reg
	dir := t.TempDir()
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 160 // 160s of stream: two full "weeks" plus change
	for i := int64(0); i < n; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Counter("store.compactions").Value() == 0 {
		t.Fatal("no compactions ran over a two-week stream")
	}

	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	// Every retained record's model bytes must be the exact appended bytes:
	// compaction selects records, it never rewrites them.
	for _, r := range recs {
		if !bytes.Equal(r.Model, rec(r.Bucket).Model) {
			t.Fatalf("bucket %d: model bytes changed across compaction", r.Bucket)
		}
	}
	// The window's raw evidence must survive: the last WindowBuckets
	// closed buckets are what a resume replays.
	byBucket := map[int64]Record{}
	for _, r := range recs {
		byBucket[r.Bucket] = r
	}
	for i := int64(n - int64(cfg.WindowBuckets)); i < n; i++ {
		r, ok := byBucket[i]
		if !ok {
			t.Fatalf("window bucket %d not retained", i)
		}
		if len(r.Evidence) == 0 {
			t.Fatalf("window bucket %d lost its evidence", i)
		}
	}
	// Old tiers must have shed evidence (that is the point of thinning).
	for _, r := range recs {
		if r.Bucket < n-64 && len(r.Evidence) != 0 {
			t.Fatalf("ancient bucket %d still carries evidence", r.Bucket)
		}
	}
	// The directory must hold coarse tiers for the old range.
	names := dirNames(t, dir)
	if !strings.Contains(names, "week-") || !strings.Contains(names, "day-") || !strings.Contains(names, "hour-") {
		t.Fatalf("expected all ladder tiers on disk, got: %s", names)
	}
}

// dirNames returns the sorted space-joined segment file names of dir.
func dirNames(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// dirBytes snapshots every segment file's content, keyed by name.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
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

// TestKillReopenIsByteDeterministic pins compaction determinism across a
// process death: a store built in one run and a store built with a
// close+reopen in the middle end up file-for-file byte-identical.
func TestKillReopenIsByteDeterministic(t *testing.T) {
	const n = 100
	oneRun := t.TempDir()
	s1, err := Open(oneRun, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := s1.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}

	twoRuns := t.TempDir()
	s2, err := Open(twoRuns, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n/2; i++ {
		if err := s2.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// "Kill": drop the handle, reopen cold, replay the crash-window bucket
	// (the last appended one) again, then continue.
	s2, err = Open(twoRuns, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(n/2 - 1); i < n; i++ {
		if err := s2.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}

	a, b := dirBytes(t, oneRun), dirBytes(t, twoRuns)
	if len(a) != len(b) {
		t.Fatalf("file sets differ:\n one run: %s\n reopened: %s", dirNames(t, oneRun), dirNames(t, twoRuns))
	}
	for name, data := range a {
		if !bytes.Equal(b[name], data) {
			t.Errorf("%s differs between one-run and reopened store", name)
		}
	}
}

func TestOpenRefusesGeometryMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testCfg()); err != nil {
		t.Fatal(err)
	}
	bad := testCfg()
	bad.WindowBuckets = 5
	if _, err := Open(dir, bad); err == nil {
		t.Fatal("reopen with different geometry accepted")
	}
}

func TestOpenReadIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.cfg; got.BucketWidth != 1000 || got.WindowBuckets != 2 {
		t.Fatalf("geometry not recovered from sidecar: %+v", got)
	}
	if err := r.Append(rec(1)); err == nil {
		t.Fatal("append on a read-only store accepted")
	}
	if _, err := OpenRead(t.TempDir()); err == nil {
		t.Fatal("OpenRead on a non-store directory accepted")
	}
}

func TestAppendRefusals(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(rec(2)); err == nil {
		t.Fatal("rewind past sealed segments accepted")
	}
	bad := rec(20)
	bad.Range.Start, bad.Range.End = -5, 5
	if err := s.Append(bad); err == nil {
		t.Fatal("pre-epoch record accepted")
	}
	bad = rec(20)
	bad.Model = nil
	if err := s.Append(bad); err == nil {
		t.Fatal("record without model accepted")
	}
	bad = rec(20)
	bad.Scores = []Score{{Key: "z"}, {Key: "a"}}
	if err := s.Append(bad); err == nil {
		t.Fatal("unsorted scores accepted")
	}
}

func TestRewindWithinActiveGranuleReplacesTail(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-append bucket 2 (the crash window of a killed follower).
	if err := s.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Bucket != 2 {
		t.Fatalf("got %d records, want 3 ending at bucket 2", len(recs))
	}
}

func TestTrajectory(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	points, err := s.Trajectory("app2--db")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for i, p := range points {
		wantPresent := i == 2
		if p.Present != wantPresent {
			t.Errorf("point %d: present = %v, want %v", i, p.Present, wantPresent)
		}
		if (i == 2) != (p.HasScore && p.Score == 2) {
			t.Errorf("point %d: score = (%v, %v)", i, p.Score, p.HasScore)
		}
	}
}

func TestDiffAt(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := s.DiffAt(1000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.PairsGone) != 1 || d.PairsGone[0].A != "app0" {
		t.Fatalf("pairs gone = %+v", d.PairsGone)
	}
	if len(d.PairsNew) != 1 || d.PairsNew[0].A != "app3" {
		t.Fatalf("pairs new = %+v", d.PairsNew)
	}
	if _, err := s.DiffAt(10, 4000); err == nil {
		t.Fatal("diff with unretained from-instant accepted")
	}
}

func TestLocate(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	ref, ok, err := s.Locate(5500)
	if err != nil || !ok {
		t.Fatalf("Locate = (%v, %v)", ok, err)
	}
	if !strings.HasPrefix(ref.File, "raw-") || ref.Record != 1 {
		t.Fatalf("ref = %+v", ref)
	}
	if _, ok, _ := s.Locate(999_999); ok {
		t.Fatal("Locate far in the future reported a record")
	}
}

// TestLocateMemoryEqualsDisk: the writer answers every read of its active
// granule from memory (records, the one accessor); a reader opened on the
// directory decodes the files. With several records per granule (ordinals
// above 0, as on a sub-hour bucket width) Locate and ModelAt agree at every
// instant, and Records as a whole, after every Append — in the active
// granule, a sealed raw one, a compacted segment, and where nothing covers —
// after a bucket index is re-appended, which is what a resume does when the
// kill fell between the append and the checkpoint, and after an Append whose
// write failed — a frame write torn halfway, and a whole-granule write —
// memory never runs ahead of the disk. A torn frame that could not be cut
// back refuses every later Append, a reader skips it, and reopening the
// directory repairs it.
func TestLocateMemoryEqualsDisk(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	cfg := testCfg()
	cfg.Metrics = reg
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(label string, last int64) {
		t.Helper()
		disk, err := OpenRead(dir)
		if err != nil {
			t.Fatal(err)
		}
		mine, err := s.Records()
		if err != nil {
			t.Fatal(err)
		}
		theirs, err := disk.Records()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSegment(levelRaw, mine), encodeSegment(levelRaw, theirs)) {
			t.Fatalf("%s: the writer holds %d records, the files %d, or they differ", label, len(mine), len(theirs))
		}
		for at := logmodel.Millis(0); at < logmodel.Millis(last+2)*1000; at += 500 {
			m1, ok1, err1 := s.ModelAt(at)
			m2, ok2, err2 := disk.ModelAt(at)
			if err1 != nil || err2 != nil || ok1 != ok2 || m1.Bucket != m2.Bucket || !bytes.Equal(m1.Model, m2.Model) {
				t.Fatalf("%s: ModelAt(%d) = bucket %d, %v, %v from the writer; bucket %d, %v, %v from the files", label, at, m1.Bucket, ok1, err1, m2.Bucket, ok2, err2)
			}
			got, gotOK, err := s.Locate(at)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, err := disk.Locate(at)
			if err != nil {
				t.Fatal(err)
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: Locate(%d) = %v, %v from the writer; %v, %v from the files", label, at, got, gotOK, want, wantOK)
			}
			switch {
			case !gotOK:
				seen["uncovered"] = true
			case got.File == segName(levelRaw, s.activeStart):
				seen["active"] = true
				seen["ordinal above 0"] = seen["ordinal above 0"] || got.Record > 0
			default:
				seen[got.File[:strings.IndexByte(got.File, '-')]] = true
			}
		}
	}
	const n = 27 // buckets 24..26 share the last granule
	for i := int64(0); i < n; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after bucket %d", i), i)
	}
	for _, kind := range []string{"uncovered", "active", "ordinal above 0", "raw", "hour"} {
		if !seen[kind] {
			t.Errorf("the sequence never located an instant of kind %q", kind)
		}
	}
	for _, i := range []int64{n - 1, n - 2} { // the second drops bucket n-1 with it
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after re-appending bucket %d", i), n)
	}
	// A frame write that fails halfway through, for a record joining the
	// granule: the file is cut back and the append refused.
	granule := filepath.Join(dir, segName(levelRaw, s.activeStart))
	before, err := os.ReadFile(granule)
	if err != nil {
		t.Fatal(err)
	}
	s.openFrame = tornFrames(false)
	if err := s.Append(rec(n - 1)); err == nil {
		t.Fatalf("Append of bucket %d through a failing frame write succeeded", n-1)
	}
	if after, err := os.ReadFile(granule); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed frame append left %d bytes in the granule, want its %d (%v)", len(after), len(before), err)
	}
	check(fmt.Sprintf("after the failed frame append of bucket %d", n-1), n)
	s.openFrame = openAppend
	// A non-empty directory where the granule's temp file goes makes a
	// whole-granule write fail: a record replacing the granule's tail.
	block := granule + ".tmp"
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(n - 3)); err == nil {
		t.Fatalf("Append of bucket %d over a blocked temp file succeeded", n-3)
	}
	check(fmt.Sprintf("after the failed append of bucket %d", n-3), n)
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(n - 1)); err != nil {
		t.Fatalf("Append after the failed ones: %v", err)
	}
	check("after the append that followed the failed ones", n)

	// A torn frame that cannot be cut back: this Append and every later one
	// are refused, naming the file; a reader stops at the last complete frame.
	s.openFrame = tornFrames(true)
	if err := s.Append(rec(n)); err == nil || !strings.Contains(err.Error(), granule) {
		t.Fatalf("Append of bucket %d over an uncuttable torn frame = %v; want a refusal naming %s", n, err, granule)
	}
	s.openFrame = openAppend
	if err := s.Append(rec(n)); err == nil || !strings.Contains(err.Error(), granule) {
		t.Fatalf("Append after the torn frame = %v; want a refusal naming %s", err, granule)
	}
	check("with a torn frame on disk", n)
	torn, err := os.ReadFile(granule)
	if err != nil {
		t.Fatal(err)
	}
	whole := torn[:s.activeLen] // the writer's memory never took the torn frame
	// A restarted writer repairs the tail.
	if s, err = Open(dir, cfg); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(granule); err != nil || !bytes.Equal(got, whole) {
		t.Fatalf("reopening left the torn granule at %d bytes, want %d (%v)", len(got), len(whole), err)
	}
	if got, want := reg.Counter("store.torn_tail_bytes").Value(), int64(len(torn)-len(whole)); got != want {
		t.Errorf("store.torn_tail_bytes = %d after the repair, want %d", got, want)
	}
	check("after reopening a torn tail", n)
	if err := s.Append(rec(n)); err != nil {
		t.Fatalf("Append after the repair: %v", err)
	}
	check("after the append that followed the repair", n+1)
	if s, err = Open(dir, cfg); err != nil { // a restarted writer holds the granule as read
		t.Fatal(err)
	}
	check("after reopening", n+1)
}

// tornFile writes half of every frame and fails; its Truncate fails too
// when truncateFails is set.
type tornFile struct {
	*os.File
	truncateFails bool
}

var errTorn = errors.New("torn write")

func (f tornFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p[:len(p)/2])
	if err == nil {
		err = errTorn
	}
	return n, err
}

func (f tornFile) Truncate(size int64) error {
	if f.truncateFails {
		return errTorn
	}
	return f.File.Truncate(size)
}

// tornFrames is an openFrame whose files tear every frame.
func tornFrames(truncateFails bool) func(string) (frameFile, error) {
	return func(path string) (frameFile, error) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, err
		}
		return tornFile{f, truncateFails}, nil
	}
}

// TestHydrateFillsWindowFromSegments pins the segment-backed resume path:
// a checkpoint gets its window back from raw-segment evidence, bounded by
// its own cursor, and without what compaction already took.
func TestHydrateFillsWindowFromSegments(t *testing.T) {
	s, err := Open(t.TempDir(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	cp := &stream.Checkpoint{
		Version:       1,
		BucketWidth:   1000,
		WindowBuckets: 2,
		Cur:           5,
		Open:          true,
		WindowInStore: true,
	}
	if err := s.Hydrate(cp); err != nil {
		t.Fatal(err)
	}
	if cp.WindowInStore {
		t.Fatal("flag not cleared")
	}
	if len(cp.Buckets) != 2 || cp.Buckets[0].Index != 3 || cp.Buckets[1].Index != 4 {
		t.Fatalf("hydrated window = %+v, want buckets 3,4", cp.Buckets)
	}
	want := rec(3).Evidence[0]
	if !bytes.Equal(cp.Buckets[0].Entries[0], want) {
		t.Fatal("hydrated entries differ from appended evidence")
	}

	// A crash-window record newer than the checkpoint cursor is excluded.
	cp2 := &stream.Checkpoint{
		Version: 1, BucketWidth: 1000, WindowBuckets: 2,
		Cur: 4, Open: true, WindowInStore: true,
	}
	if err := s.Hydrate(cp2); err != nil {
		t.Fatal(err)
	}
	if len(cp2.Buckets) != 2 || cp2.Buckets[1].Index != 3 {
		t.Fatalf("hydrated window = %+v, want buckets 2,3", cp2.Buckets)
	}

	// Rolled back one bucket: the store holds record 5, and its append
	// compacted the granule of bucket 3 = 5 − W, the oldest of checkpoint
	// 4's window. Exactly the raw buckets that remain come back.
	if err := s.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, s.Dir()); !strings.Contains(names, segName(levelHour, 0)) {
		t.Fatalf("record 5 compacted nothing: %s", names)
	}
	cp4 := &stream.Checkpoint{
		Version: 1, BucketWidth: 1000, WindowBuckets: 2,
		Cur: 5, Open: true, WindowInStore: true,
	}
	if err := s.Hydrate(cp4); err != nil {
		t.Fatal(err)
	}
	if len(cp4.Buckets) != 1 || cp4.Buckets[0].Index != 4 {
		t.Fatalf("rolled-back window = %+v, want bucket 4 alone", cp4.Buckets)
	}

	// Geometry mismatch refuses.
	cp3 := &stream.Checkpoint{
		Version: 1, BucketWidth: 500, WindowBuckets: 2,
		Cur: 4, Open: true, WindowInStore: true,
	}
	if err := s.Hydrate(cp3); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestCrashBetweenCompactionRenames pins the supersede recovery: if both
// the promoted coarse file and its raw source survive a crash, reopening
// keeps the coarse one and deletes the raw one.
func TestCrashBetweenCompactionRenames(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Fabricate the crash: re-create a raw file that a coarse tier already
	// covers.
	names := dirNames(t, dir)
	if !strings.Contains(names, "hour-") {
		t.Skipf("no hour tier yet in %s", names)
	}
	stale := filepath.Join(dir, segName(levelRaw, 0))
	if _, err := writeSegment(stale, levelRaw, []Record{rec(0)}); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	delete(before, filepath.Base(stale))
	if _, err := Open(dir, testCfg()); err != nil {
		t.Fatal(err)
	}
	after := dirBytes(t, dir)
	if _, still := after[filepath.Base(stale)]; still {
		t.Fatal("superseded raw segment survived reopen")
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Errorf("%s changed during supersede cleanup", name)
		}
	}
}

// tornStore appends buckets 0..last to a fresh store and returns its
// directory, the newest raw granule's path, its bytes, and where its last
// frame starts. testCfg's granule holds four buckets, so bucket 10 is the
// third record of granule [8, 12): its frame was appended, not rewritten.
func tornStore(t *testing.T, last int64) (dir, granule string, data []byte, frame int) {
	t.Helper()
	dir = t.TempDir()
	s, err := Open(dir, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= last; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	granule = filepath.Join(dir, segName(levelRaw, s.activeStart))
	if data, err = os.ReadFile(granule); err != nil {
		t.Fatal(err)
	}
	if len(s.active) < 3 {
		t.Fatalf("the newest granule holds %d records; the test wants an appended frame behind another", len(s.active))
	}
	return dir, granule, data, len(encodeSegment(levelRaw, s.active[:len(s.active)-1]))
}

// TestTornTailRepairedOnOpen: a writer killed inside a frame append leaves
// the newest raw granule ending in an incomplete frame. At every cut inside
// that last frame, Open truncates the file to the frame boundary and counts
// the bytes cut, and the store then continues into exactly the directory an
// uninterrupted run writes. Every other damage is still refused: a cut inside
// the granule's first frame (no complete record would remain), a byte taken
// out of an earlier frame, a flipped byte in a complete last frame, and a
// cut in a file that is not the newest raw granule.
func TestTornTailRepairedOnOpen(t *testing.T) {
	const last, more = 10, 30
	ref := t.TempDir()
	s, err := Open(ref, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= more; i++ {
		if err := s.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dirBytes(t, ref)

	dir, granule, data, frame := tornStore(t, last)
	for cut := frame + 1; cut < len(data); cut++ {
		if err := os.WriteFile(granule, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		cfg := testCfg()
		cfg.Metrics = reg
		s, err := Open(dir, cfg)
		if err != nil {
			t.Fatalf("cut at %d of %d: Open refused a torn last frame: %v", cut, len(data), err)
		}
		if got, err := os.ReadFile(granule); err != nil || !bytes.Equal(got, data[:frame]) {
			t.Fatalf("cut at %d: Open left %d bytes, want the %d before the torn frame (%v)", cut, len(got), frame, err)
		}
		if got := reg.Counter("store.torn_tail_bytes").Value(); got != int64(cut-frame) {
			t.Fatalf("cut at %d: store.torn_tail_bytes = %d, want %d", cut, got, cut-frame)
		}
		for i := int64(last); i <= more; i++ {
			if err := s.Append(rec(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := dirBytes(t, dir)
		if len(got) != len(want) {
			t.Fatalf("cut at %d: the continued store holds %s, the uninterrupted one %s", cut, dirNames(t, dir), dirNames(t, ref))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("cut at %d: %s differs from the uninterrupted store's", cut, name)
			}
		}
		// Back to the torn state for the next cut.
		for name := range got {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		dir, granule, data, frame = tornStore(t, last)
	}

	first := len(encodeSegment(levelRaw, nil)) + recordLen(rec(8))
	for _, tc := range []struct {
		name   string
		damage func() error
	}{
		{"a cut inside the granule's first frame", func() error {
			return os.WriteFile(granule, data[:first-3], 0o644)
		}},
		{"a byte taken out of an earlier frame", func() error {
			return os.WriteFile(granule, append(append([]byte{}, data[:first+20]...), data[first+21:]...), 0o644)
		}},
		{"a flipped byte in the complete last frame", func() error {
			flipped := append([]byte{}, data...)
			flipped[len(flipped)-2] ^= 0x10
			return os.WriteFile(granule, flipped, 0o644)
		}},
		{"a cut in an older file", func() error {
			older := filepath.Join(dir, segName(levelHour, 4_000))
			b, err := os.ReadFile(older)
			if err != nil {
				return err
			}
			return os.WriteFile(older, b[:len(b)-5], 0o644)
		}},
	} {
		dir, granule, data, _ = tornStore(t, last)
		if err := tc.damage(); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		if _, err := Open(dir, testCfg()); err == nil {
			t.Errorf("%s: Open accepted the store", tc.name)
		}
		after := dirBytes(t, dir)
		for file, b := range before {
			if !bytes.Equal(after[file], b) {
				t.Errorf("%s: the refused Open changed %s", tc.name, file)
			}
		}
	}
}

// TestOpenReadSkipsTornTail: a reader meeting a granule that ends in an
// incomplete frame — a follower appending to it — answers up to the last
// complete frame, and the directory's bytes do not change.
func TestOpenReadSkipsTornTail(t *testing.T) {
	dir, granule, data, frame := tornStore(t, 10)
	if err := os.WriteFile(granule, data[:frame+len(data[frame:])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, dir)
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatalf("OpenRead refused a torn last frame: %v", err)
	}
	recs, err := r.Records()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recs); n == 0 || recs[n-1].Bucket != 9 {
		t.Fatalf("the reader holds %d records; want them to end at bucket 9, the last complete frame", n)
	}
	got, ok, err := r.ModelAt(1 << 40)
	if err != nil || !ok || !bytes.Equal(got.Model, rec(9).Model) {
		t.Fatalf("the latest model is bucket %d's (%v, %v); want bucket 9's", got.Bucket, ok, err)
	}
	after := dirBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the reader changed the file set: %s", dirNames(t, dir))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Errorf("the reader changed %s", name)
		}
	}
}
