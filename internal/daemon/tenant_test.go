package daemon_test

// One description, one validation, one open store: the documents the parent
// binary wrote still round-trip, what follow.Spec refuses is refused with no
// state left behind — by a 400 and by a failed launch alike — queries read
// the store handle the engine writes through and agree with the files, and
// /alerts reads events.log whatever the length of its lines.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logscape/internal/daemon"
	"logscape/internal/follow"
	"logscape/internal/modelstore"
)

// TestParentDocumentsRoundTrip: a stream.json (every field set) and a status
// body (a finished run over a torn .gz) written by the binary of the commit
// before StreamConfig became {follow.Spec; Live} and Totals became
// follow.Result decode and re-encode to the same bytes.
func TestParentDocumentsRoundTrip(t *testing.T) {
	indent := func(v any) []byte {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	want, err := os.ReadFile("testdata/parent_stream.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := daemon.DecodeStreamConfig(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Live || !cfg.Drift || cfg.Directory == "" || cfg.Workers == 0 {
		t.Fatalf("parent_stream.json decodes to %+v; the fixture sets every field", cfg)
	}
	if got := indent(cfg); !bytes.Equal(got, want) {
		t.Errorf("stream.json re-encodes to:\n%s\nwant the parent's bytes:\n%s", got, want)
	}

	want, err = os.ReadFile("testdata/parent_status.json")
	if err != nil {
		t.Fatal(err)
	}
	var st daemon.Status
	dec := json.NewDecoder(bytes.NewReader(want))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Totals == nil || !st.Totals.TornGzip || st.Totals.Entries == 0 || st.Totals.Quarantined == 0 {
		t.Fatalf("parent_status.json decodes to totals %+v; the fixture is a finished torn-gzip run", st.Totals)
	}
	if got := indent(st); !bytes.Equal(got, want) {
		t.Errorf("the status body re-encodes to:\n%s\nwant the parent's bytes:\n%s", got, want)
	}
}

// put drives one PUT through the control API.
func put(d *daemon.Daemon, name string, cfg daemon.StreamConfig) *httptest.ResponseRecorder {
	body, _ := json.Marshal(cfg)
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest("PUT", "/streams/"+name, bytes.NewReader(body)))
	return w
}

// get drives one GET and returns the status code and body.
func get(d *daemon.Daemon, path string) (int, []byte) {
	w := httptest.NewRecorder()
	d.Handler().ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w.Code, w.Body.Bytes()
}

// TestBadSpecsAreRefused drives the list cmd/depmine's TestFollowRefusesBadSpecs
// drives through the flags (internal/follow/testdata/bad_specs.json) through a
// PUT: each is a 400 that leaves no stream and no state directory.
func TestBadSpecsAreRefused(t *testing.T) {
	data, err := os.ReadFile("../follow/testdata/bad_specs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string
		Set  json.RawMessage
	}
	if err := json.Unmarshal(data, &cases); err != nil || len(cases) < 11 {
		t.Fatalf("the shared list holds %d cases (%v); want the issue's eleven", len(cases), err)
	}
	state := t.TempDir()
	d, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l2", Source: "day.log", TimeoutSec: 1, BucketSec: 1, WindowBuckets: 2}}
		if err := json.Unmarshal(c.Set, &cfg); err != nil {
			t.Fatal(err)
		}
		if w := put(d, "probe", cfg); w.Code != http.StatusBadRequest {
			t.Errorf("%s: PUT = %d %s; want 400", c.Name, w.Code, w.Body)
		}
		if _, err := os.Stat(filepath.Join(state, "probe")); !os.IsNotExist(err) || len(d.List()) != 0 {
			t.Errorf("%s: the refused PUT left a state directory (%v) or a stream", c.Name, err)
		}
	}
}

// TestRejectedPutNeverPoisonsRestart: a bucket width below one millisecond
// used to pass the daemon's check, fail in the store (500) and leave its
// stream.json behind, after which no daemon started on that state directory
// again — for any tenant. Now it is a 400 with no state; a launch that does
// fail persists no stream.json either and removes the directory it created;
// and the next daemon starts, rehydrating the healthy neighbor.
func TestRejectedPutNeverPoisonsRestart(t *testing.T) {
	state := t.TempDir()
	d1, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	good := daemon.StreamConfig{Spec: follow.Spec{Method: "l1", Source: writeLog(t, pairCorpus()), MinLogs: 2, BucketSec: 1, WindowBuckets: 2}}
	if _, err := d1.Upsert("good", good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BucketSec = 0.0001
	if w := put(d1, "bad", bad); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "at least one millisecond") {
		t.Fatalf("PUT bucket_sec 0.0001 = %d %s; want 400 naming the millisecond floor", w.Code, w.Body)
	}

	// A launch that fails after validation: "orphan" holds a store of another
	// geometry and no stream.json, "dangling" is a symlink to nowhere, so the
	// tenant directory does not exist and cannot be created.
	if _, err := modelstore.Open(filepath.Join(state, "orphan", "store"), modelstore.Config{BucketWidth: 5000, WindowBuckets: 9}); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(state, "nowhere"), filepath.Join(state, "dangling")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"orphan", "dangling"} {
		if w := put(d1, name, good); w.Code != http.StatusInternalServerError {
			t.Fatalf("PUT %s = %d %s; want the launch to fail with 500", name, w.Code, w.Body)
		}
		if _, err := os.Stat(filepath.Join(state, name, "stream.json")); !os.IsNotExist(err) {
			t.Errorf("the failed launch of %s left a stream.json (%v)", name, err)
		}
	}
	if _, err := os.Lstat(filepath.Join(state, "dangling")); !os.IsNotExist(err) {
		t.Errorf("the failed launch left the tenant directory it could not fill (%v)", err)
	}
	if _, err := os.Stat(filepath.Join(state, "bad")); !os.IsNotExist(err) || len(d1.List()) != 1 {
		t.Errorf("the refused PUT left state behind (%v) or the roster is not just the good stream: %d", err, len(d1.List()))
	}
	d1.Kill()

	d2, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("the next daemon does not start: %v", err)
	}
	if st, err := d2.Wait("good"); err != nil || st.State != "done" {
		t.Fatalf("the neighbor after the restart: %+v, %v; want done", st, err)
	}
}

// TestAlertsSurviveLongDeltaLine: one window that turns tens of thousands of
// pairs over writes a delta line of megabytes; /alerts must skip it like any
// other non-DRIFT line and still serve the alert behind it.
func TestAlertsSurviveLongDeltaLine(t *testing.T) {
	state := t.TempDir()
	d, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Source: writeLog(t, driftCorpus()), Directory: writeDirXML(t), Drift: true, BucketSec: 1, WindowBuckets: 2}}
	if _, err := d.Upsert("incident", cfg); err != nil {
		t.Fatal(err)
	}
	if st, err := d.Wait("incident"); err != nil || st.State != "done" {
		t.Fatalf("stream: %+v, %v", st, err)
	}
	_, before := get(d, "/streams/incident/alerts")
	if !bytes.HasPrefix(before, []byte("DRIFT ")) {
		t.Fatalf("the run raised no alert:\n%s", before)
	}
	long := "window [2005-12-06T08:00:00 .. 2005-12-06T08:00:02): 70000 deps" + strings.Repeat(" +SomeApplication->SOMEGROUP", 2<<20/28+1)
	const late = "DRIFT [2005-12-06T09:00:00] birth Late->ALERT (onset bucket 99, score 3)"
	if len(long) <= 2<<20 {
		t.Fatalf("the delta line is %d bytes; the test wants more than 2 MiB", len(long))
	}
	appendLines(t, filepath.Join(state, "incident", "events.log"), []string{long, late})
	code, after := get(d, "/streams/incident/alerts")
	if want := string(before) + late + "\n"; code != http.StatusOK || string(after) != want {
		t.Errorf("GET /alerts behind a %d-byte delta line = %d:\n%.400s\nwant the run's alerts and the late one", len(long), code, after)
	}
}

// TestQueriesReadTheOpenStore: a live tenant answers /model, /diff and
// /trajectory from the store handle its engine appends through. After every
// closed bucket each answer is, byte for byte, what a fresh read-only open of
// the same directory gives — memory ≡ disk — and asking for the latest model
// again and again reads no segment back.
func TestQueriesReadTheOpenStore(t *testing.T) {
	lines := driftCorpus()
	src := filepath.Join(t.TempDir(), "live.log")
	writeLines(t, src, lines[:1])
	state := t.TempDir()
	d, err := daemon.New(daemon.Config{StateDir: state, PollMillis: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	cfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Source: src, Directory: writeDirXML(t), Drift: true, BucketSec: 1, WindowBuckets: 2}, Live: true}
	if _, err := d.Upsert("live", cfg); err != nil {
		t.Fatal(err)
	}
	segmentsRead := func() int64 {
		_, body := get(d, "/streams/live/metrics")
		var doc struct{ Counters map[string]int64 }
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Counters["store.segments_read"]
	}
	const key = "App1->REG"
	// A second client never stops asking while the engine appends: whatever
	// it catches, the store answers (or has nothing retained yet), and the
	// race detector sees reader and writer on the one handle.
	stop, stopped := make(chan struct{}), make(chan struct{}) //lint:allow bareconc stop signal and exit barrier of the probing client below
	go func() {                                               //lint:allow bareconc a concurrent HTTP client is what the test is about; nothing is mined here
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			path := []string{"/streams/live/model", "/streams/live/trajectory?key=" + url.QueryEscape(key), "/streams/live/alerts"}[i%3]
			if code, body := get(d, path); code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("concurrent GET %s = %d %s", path, code, body)
				return
			}
		}
	}()
	defer func() { close(stop); <-stopped }()
	checked := 0
	for next := 1; next < len(lines); next++ {
		// One line at a time: most close a bucket (the corpus has one or two
		// lines per one-second bucket).
		appendLines(t, src, lines[next:next+1])
		if err := d.WaitIdle("live", 2); err != nil {
			t.Fatal(err)
		}
		disk, err := modelstore.OpenRead(filepath.Join(state, "live", "store"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := disk.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == checked {
			continue // no bucket closed on this line
		}
		checked = len(recs)
		for _, rec := range recs {
			code, body := get(d, fmt.Sprintf("/streams/live/model?at=%d", rec.Range.End))
			if code != http.StatusOK || !bytes.Equal(body, rec.Model) {
				t.Fatalf("after %d records: /model at bucket %d = %d, %d bytes; the files hold %d bytes", checked, rec.Bucket, code, len(body), len(rec.Model))
			}
		}
		first, last := recs[0].Range.End, recs[len(recs)-1].Range.End
		var want bytes.Buffer
		diff, err := disk.DiffAt(first, last)
		if err != nil {
			t.Fatal(err)
		}
		if err := modelstore.WriteDiff(&want, diff); err != nil {
			t.Fatal(err)
		}
		if code, body := get(d, fmt.Sprintf("/streams/live/diff?from=%d&to=%d", first, last)); code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("after %d records: /diff = %d\n%s\nthe files give\n%s", checked, code, body, want.Bytes())
		}
		want.Reset()
		points, err := disk.Trajectory(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := modelstore.WriteTrajectory(&want, points); err != nil {
			t.Fatal(err)
		}
		if code, body := get(d, "/streams/live/trajectory?key="+url.QueryEscape(key)); code != http.StatusOK || !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("after %d records: /trajectory = %d\n%s\nthe files give\n%s", checked, code, body, want.Bytes())
		}

		before := segmentsRead()
		for i := 0; i < 3; i++ {
			if code, body := get(d, "/streams/live/model"); code != http.StatusOK || !bytes.Equal(body, recs[len(recs)-1].Model) {
				t.Fatalf("after %d records: the latest /model = %d, %d bytes", checked, code, len(body))
			}
		}
		if after := segmentsRead(); after != before {
			t.Fatalf("after %d records: three GETs of the latest model read %d segments back", checked, after-before)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d buckets closed; the corpus holds 33", checked)
	}
}
