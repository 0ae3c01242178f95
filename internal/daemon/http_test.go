package daemon_test

// Golden-file tests for the control API: every response — status
// documents, query bodies, error bodies — is pinned byte-for-byte in
// testdata/depmined_*.golden. Regenerate with `go test -update` after an
// intentional API change. Temp-dir paths inside response bodies are
// normalized to stable placeholders before comparison.

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logscape/internal/daemon"
	"logscape/internal/follow"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response transcript diverges from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// transcript drives the handler and records "METHOD PATH → code + body"
// blocks, normalizing volatile temp paths to placeholders.
type transcript struct {
	h     http.Handler
	buf   bytes.Buffer
	scrub *strings.Replacer
}

func (tr *transcript) do(t *testing.T, method, path, body string) {
	t.Helper()
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	tr.h.ServeHTTP(w, r)
	fmt.Fprintf(&tr.buf, "### %s %s\nHTTP %d\n%s\n", method, path, w.Code, tr.scrub.Replace(w.Body.String()))
}

// TestHTTPGolden scripts the full API surface over two completed tenant
// streams and pins every response: CRUD, status and list documents,
// model/diff/trajectory/alerts queries, and the error bodies for unknown
// tenants, malformed configs, geometry mismatches and bad parameters.
func TestHTTPGolden(t *testing.T) {
	dirXML := writeDirXML(t)
	pairSrc := writeLog(t, pairCorpus())
	incidentSrc := writeLog(t, driftCorpus())

	d, err := daemon.New(daemon.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	tr := &transcript{h: d.Handler(), scrub: strings.NewReplacer(
		pairSrc, "PAIR.LOG",
		incidentSrc, "INCIDENT.LOG",
		dirXML, "DIR.XML",
	)}

	pairCfg := fmt.Sprintf(`{"method":"l1","source":%q,"min_logs":2,"bucket_sec":1,"window_buckets":2}`, pairSrc)
	driftCfg := fmt.Sprintf(`{"method":"l3","source":%q,"directory":%q,"drift":true,"bucket_sec":1,"window_buckets":2}`, incidentSrc, dirXML)

	// CRUD: create both streams (deterministic zero-progress responses),
	// wait for completion off-API, then read back status and list.
	tr.do(t, "PUT", "/streams/pairs", pairCfg)
	tr.do(t, "PUT", "/streams/incident", driftCfg)
	for _, name := range []string{"pairs", "incident"} {
		if st, err := d.Wait(name); err != nil || st.State != "done" {
			t.Fatalf("stream %s: state=%v err=%v", name, st.State, err)
		}
	}
	tr.do(t, "GET", "/streams/pairs", "")
	tr.do(t, "GET", "/streams", "")
	checkGolden(t, "depmined_crud", tr.buf.Bytes())
	tr.buf.Reset()

	// Queries: models at an instant and at the default (latest), a diff
	// across the source switch, a trajectory, and the DRIFT alert lines.
	tr.do(t, "GET", "/streams/pairs/model?at=2005-12-06T08:00:02", "")
	tr.do(t, "GET", "/streams/pairs/model", "")
	tr.do(t, "GET", "/streams/pairs/diff?from=2005-12-06T08:00:02&to=2005-12-06T08:00:05", "")
	tr.do(t, "GET", "/streams/pairs/trajectory?key=AppA--AppB", "")
	tr.do(t, "GET", "/streams/incident/trajectory?key=App1-%3EREG", "")
	tr.do(t, "GET", "/streams/incident/alerts", "")
	checkGolden(t, "depmined_queries", tr.buf.Bytes())
	tr.buf.Reset()

	// Errors: unknown tenants, malformed and rejected configs, geometry
	// mismatches, bad query parameters, unretained instants.
	tr.do(t, "GET", "/streams/ghost", "")
	tr.do(t, "DELETE", "/streams/ghost", "")
	tr.do(t, "GET", "/streams/ghost/model", "")
	tr.do(t, "PUT", "/streams/bad%20name", pairCfg)
	tr.do(t, "PUT", "/streams/bad", `{"method":"l9","source":"x.log","bucket_sec":1,"window_buckets":2}`)
	tr.do(t, "PUT", "/streams/bad", `{"method":"l1","source":"x.log","bucket_sec":1,"window_buckets":2,"mystery":1}`)
	tr.do(t, "PUT", "/streams/bad", `{"method":"l1","source":"-","bucket_sec":1,"window_buckets":2}`)
	tr.do(t, "PUT", "/streams/bad", `{"method":"l1","source":"x.log.gz","bucket_sec":1,"window_buckets":2,"live":true}`)
	tr.do(t, "PUT", "/streams/bad", `not json`)
	tr.do(t, "PUT", "/streams/pairs", fmt.Sprintf(`{"method":"l1","source":%q,"min_logs":2,"bucket_sec":5,"window_buckets":9}`, pairSrc))
	tr.do(t, "GET", "/streams/pairs/model?at=bogus", "")
	tr.do(t, "GET", "/streams/pairs/model?at=2001-01-01T00:00:00", "")
	tr.do(t, "GET", "/streams/pairs/diff?from=2005-12-06T08:00:02", "")
	tr.do(t, "GET", "/streams/pairs/trajectory", "")
	checkGolden(t, "depmined_errors", tr.buf.Bytes())
	tr.buf.Reset()

	// Rejected configs never mutate state: the list still holds exactly
	// the two streams, and no "bad" tenant directory appeared.
	if got := len(d.List()); got != 2 {
		t.Fatalf("after rejected PUTs: %d streams, want 2", got)
	}

	// DELETE: remove a stream, then confirm it is gone from the API.
	tr.do(t, "DELETE", "/streams/pairs", "")
	tr.do(t, "GET", "/streams/pairs", "")
	tr.do(t, "GET", "/streams", "")
	checkGolden(t, "depmined_delete", tr.buf.Bytes())
}

// TestHTTPMetricsEndpoints smoke-checks the metrics surfaces (their
// bodies carry timing-dependent values, so they are asserted
// structurally, not pinned).
func TestHTTPMetricsEndpoints(t *testing.T) {
	d, err := daemon.New(daemon.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upsert("pairs", daemon.StreamConfig{Spec: follow.Spec{
		Method: "l1", Source: writeLog(t, pairCorpus()), MinLogs: 2, BucketSec: 1, WindowBuckets: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Wait("pairs"); err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	for _, path := range []string{"/metrics", "/streams/pairs/metrics"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body)
		}
		if !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
			t.Fatalf("GET %s content type = %q", path, w.Header().Get("Content-Type"))
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/streams/ghost/metrics", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("GET unknown tenant metrics = %d, want 404", w.Code)
	}
}
