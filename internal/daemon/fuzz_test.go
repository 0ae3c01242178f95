package daemon_test

// FuzzStreamConfig hardens the daemon's one untrusted input surface: the
// stream-config JSON a PUT carries. The decoder must never panic, and a
// rejected document must leave the daemon untouched — no stream in the
// roster, no tenant directory on disk.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logscape/internal/daemon"
)

func FuzzStreamConfig(f *testing.F) {
	f.Add(`{"method":"l1","source":"x.log","bucket_sec":1,"window_buckets":2}`)
	f.Add(`{"method":"l2","source":"x.log","timeout_sec":1.5,"workers":8,"bucket_sec":0.5,"window_buckets":4,"live":true}`)
	f.Add(`{"method":"l3","source":"x.log","directory":"d.xml","drift":true,"no_stops":true,"bucket_sec":2,"window_buckets":3}`)
	f.Add(`{"method":"l1","source":"-","bucket_sec":1,"window_buckets":2}`)
	f.Add(`{"method":"l1","source":"x.log.gz","bucket_sec":1,"window_buckets":2,"live":true}`)
	f.Add(`{"method":"l9","source":"x.log","bucket_sec":1e308,"window_buckets":-3}`)
	f.Add(`{"method":"l1","source":"x.log","bucket_sec":1,"window_buckets":2,"mystery":true}`)
	f.Add(`{"method":"l1","source":"x.log","bucket_sec":1,"window_buckets":2} trailing`)
	f.Add(`[]`)
	f.Add(`nul`)
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		// The decoder alone: no panic, and accepted documents re-validate
		// cleanly (decode and validate agree on what is well-formed).
		cfg, err := daemon.DecodeStreamConfig(strings.NewReader(data))
		if err == nil {
			if verr := cfg.Validate(); verr != nil {
				t.Fatalf("accepted config fails Validate: %v\ninput: %q", verr, data)
			}
		}

		// The full PUT path against a fresh daemon: a non-200 response must
		// leave zero streams and zero tenant state on disk.
		state := t.TempDir()
		d, derr := daemon.New(daemon.Config{StateDir: state, PollMillis: 1})
		if derr != nil {
			t.Fatal(derr)
		}
		w := httptest.NewRecorder()
		r := httptest.NewRequest("PUT", "/streams/probe", strings.NewReader(data))
		d.Handler().ServeHTTP(w, r)
		if (w.Code == http.StatusOK) != (err == nil) {
			t.Fatalf("decoder and PUT disagree: decode err=%v, HTTP %d\ninput: %q", err, w.Code, data)
		}
		if w.Code != http.StatusOK {
			if n := len(d.List()); n != 0 {
				t.Fatalf("rejected config created %d stream(s)\ninput: %q", n, data)
			}
			if _, serr := os.Stat(filepath.Join(state, "probe")); !os.IsNotExist(serr) {
				t.Fatalf("rejected config left tenant state on disk (%v)\ninput: %q", serr, data)
			}
		}
		// Accepted configs may start an engine over a nonexistent source;
		// stop it so fuzzing never accumulates live tailers.
		d.Kill()
	})
}
