package daemon_test

// The tenant-isolation contract, tested at the byte level: every stream a
// daemon hosts must produce exactly the artifacts a solo `depmine -follow`
// run over the same source and geometry produces — same model documents,
// same delta/DRIFT events, same checkpoint, same store segments — at any
// worker count, beside any set of neighbor tenants, and across a hard
// kill + restart.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logscape/internal/daemon"
	"logscape/internal/directory"
	"logscape/internal/follow"
	"logscape/internal/logmodel"
)

// ts renders a millisecond timestamp for 2005-12-06 08:00:00 UTC + off.
func ts(off time.Duration) logmodel.Millis {
	base := time.Date(2005, 12, 6, 8, 0, 0, 0, time.UTC)
	return logmodel.Millis(base.Add(off).UnixMilli())
}

// wline renders one wire-format line.
func wline(at logmodel.Millis, src, msg string) string {
	return logmodel.FormatEntry(logmodel.Entry{
		Time: at, Source: src, Host: "h", User: "u", Severity: logmodel.SevInfo, Message: msg,
	})
}

// writeLog writes lines to a fresh temp file and returns its path.
func writeLog(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.log")
	writeLines(t, path, lines)
	return path
}

func writeLines(t *testing.T, path string, lines []string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendLines(t *testing.T, path string, lines []string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(strings.Join(lines, "\n") + "\n"); err != nil {
		t.Fatal(err)
	}
}

// pairCorpus: sources A and B log in lockstep, then C replaces B — the
// sliding window's pair set changes twice.
func pairCorpus() []string {
	var lines []string
	emit := func(bucket int, srcs ...string) {
		for i := 0; i < 25; i++ {
			at := ts(time.Duration(bucket)*time.Second + time.Duration(i*37)*time.Millisecond)
			for _, s := range srcs {
				lines = append(lines, wline(at, s, fmt.Sprintf("tick %d", i)))
			}
		}
	}
	for b := 0; b < 3; b++ {
		emit(b, "AppA", "AppB")
	}
	for b := 3; b < 6; b++ {
		emit(b, "AppA", "AppC")
	}
	lines = append(lines, wline(ts(6*time.Second), "AppA", "done"))
	return lines
}

// depCorpus: App1 cites the REG group early, then switches to STORE (l3).
func depCorpus() []string {
	var lines []string
	for b := 0; b < 3; b++ {
		at := ts(time.Duration(b) * time.Second)
		lines = append(lines, wline(at, "App1", "GET http://reg.hug/reg/list"))
		lines = append(lines, wline(at+100, "App1", "reply ok"))
	}
	for b := 3; b < 6; b++ {
		at := ts(time.Duration(b) * time.Second)
		lines = append(lines, wline(at, "App1", "PUT http://store.hug/store/save"))
		lines = append(lines, wline(at+100, "App1", "reply ok"))
	}
	lines = append(lines, wline(ts(6*time.Second), "App1", "done"))
	return lines
}

// driftCorpus: a scripted incident — App1 adopts STORE at bucket 5 (a
// birth) and abandons REG at bucket 24 (a death), each confirmed by the
// detector a few buckets later.
func driftCorpus() []string {
	var lines []string
	for b := 0; b <= 32; b++ {
		at := ts(time.Duration(b) * time.Second)
		if b < 24 {
			lines = append(lines, wline(at, "App1", "GET http://reg.hug/reg/list"))
		}
		if b >= 5 {
			lines = append(lines, wline(at+200, "App1", "PUT http://store.hug/store/save"))
		}
	}
	lines = append(lines, wline(ts(33*time.Second), "App1", "done"))
	return lines
}

// writeDirXML persists the test service directory (REG and STORE groups).
func writeDirXML(t *testing.T) string {
	t.Helper()
	d := &directory.Directory{Version: 1, Groups: []directory.Group{
		{ID: "REG", RootURL: "http://reg.hug/reg", Services: []directory.Service{{Name: "list"}}},
		{ID: "STORE", RootURL: "http://store.hug/store", Services: []directory.Service{{Name: "save"}}},
	}}
	path := filepath.Join(t.TempDir(), "dir.xml")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// artifacts is everything a stream run writes: the byte-identity surface.
type artifacts struct {
	out, events, ckpt, quarantine []byte
	store                         map[string][]byte // rel path -> content
}

func readFileOrEmpty(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return b
}

// readTree reads every regular file under root, keyed by relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// soloRef runs the reference: one engine, alone in a fresh directory, at
// Workers 1, over the stream's full source. A live configuration's reference
// stops at its first quiescent EOF without a flush — what a live tenant has
// written once it has drained its source and been killed.
func soloRef(t *testing.T, cfg daemon.StreamConfig) artifacts {
	t.Helper()
	dir := t.TempDir()
	var out, events bytes.Buffer
	store, err := cfg.OpenStore(filepath.Join(dir, "store"), nil)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := follow.Config{
		Spec:           cfg.Spec,
		ResumePath:     filepath.Join(dir, "follow.ckpt"),
		QuarantinePath: filepath.Join(dir, "quarantine.log"),
		Store:          store,
	}
	fcfg.Workers = 1
	if cfg.Live {
		eof := false
		fcfg.Wait = func() bool { eof = true; return true }
		fcfg.Stop = func() bool { return eof }
	}
	if _, err := follow.Run(fcfg, &out, &events); err != nil {
		t.Fatal(err)
	}
	return artifacts{
		out:        out.Bytes(),
		events:     events.Bytes(),
		ckpt:       readFileOrEmpty(t, fcfg.ResumePath),
		quarantine: readFileOrEmpty(t, fcfg.QuarantinePath),
		store:      readTree(t, store.Dir()),
	}
}

// tenantArtifacts reads a daemon tenant's artifacts from its state dir.
func tenantArtifacts(t *testing.T, stateDir, name string) artifacts {
	t.Helper()
	dir := filepath.Join(stateDir, name)
	return artifacts{
		out:        readFileOrEmpty(t, filepath.Join(dir, "out.log")),
		events:     readFileOrEmpty(t, filepath.Join(dir, "events.log")),
		ckpt:       readFileOrEmpty(t, filepath.Join(dir, "follow.ckpt")),
		quarantine: readFileOrEmpty(t, filepath.Join(dir, "quarantine.log")),
		store:      readTree(t, filepath.Join(dir, "store")),
	}
}

// mustEqual asserts got's every artifact is byte-identical to want's.
func mustEqual(t *testing.T, label string, got, want artifacts) {
	t.Helper()
	diff := func(kind string, g, w []byte) {
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s differs from the solo reference (%d vs %d bytes)", label, kind, len(g), len(w))
		}
	}
	diff("model documents (out.log)", got.out, want.out)
	diff("events.log", got.events, want.events)
	diff("checkpoint", got.ckpt, want.ckpt)
	diff("quarantine", got.quarantine, want.quarantine)
	for rel, w := range want.store {
		g, ok := got.store[rel]
		if !ok {
			t.Errorf("%s: store file %s missing", label, rel)
			continue
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s: store file %s differs (%d vs %d bytes)", label, rel, len(g), len(w))
		}
	}
	for rel := range got.store {
		if _, ok := want.store[rel]; !ok {
			t.Errorf("%s: store holds extra file %s", label, rel)
		}
	}
}

// scenario is one hospital stream shape the multi-tenant tests host.
type scenario struct {
	name   string
	cfg    daemon.StreamConfig // Source filled in by the test
	corpus []string
}

// scenarios returns the mixed-workload roster: three miners, distinct
// geometries, with and without drift detection.
func scenarios(dirXML string) []scenario {
	return []scenario{
		{"pairs", daemon.StreamConfig{Spec: follow.Spec{Method: "l1", MinLogs: 2, BucketSec: 1, WindowBuckets: 2}}, pairCorpus()},
		{"pairs-wide", daemon.StreamConfig{Spec: follow.Spec{Method: "l1", MinLogs: 2, BucketSec: 2, WindowBuckets: 3}}, pairCorpus()},
		{"sessions", daemon.StreamConfig{Spec: follow.Spec{Method: "l2", TimeoutSec: 1, BucketSec: 1, WindowBuckets: 2}}, pairCorpus()},
		{"deps", daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Directory: dirXML, BucketSec: 1, WindowBuckets: 2}}, depCorpus()},
		{"drift", daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Directory: dirXML, Drift: true, BucketSec: 1, WindowBuckets: 2}}, driftCorpus()},
	}
}

// TestTenantIsolationEquivalence runs every scenario twice — Workers 1
// and Workers 8 — as ten concurrent tenants of one daemon, and compares
// each tenant's complete artifact set byte-for-byte against a solo
// Workers-1 reference run. Neighbors, the shared pool, and the worker
// knob must all be invisible in the output.
func TestTenantIsolationEquivalence(t *testing.T) {
	dirXML := writeDirXML(t)
	scens := scenarios(dirXML)
	refs := make(map[string]artifacts, len(scens))
	for i := range scens {
		s := &scens[i]
		s.cfg.Source = writeLog(t, s.corpus)
		refs[s.name] = soloRef(t, s.cfg)
	}

	state := t.TempDir()
	d, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	type launched struct{ tenant, scenario string }
	var all []launched
	for _, s := range scens {
		for _, w := range []int{1, 8} {
			cfg := s.cfg
			cfg.Workers = w
			name := fmt.Sprintf("%s-w%d", s.name, w)
			if _, err := d.Upsert(name, cfg); err != nil {
				t.Fatal(err)
			}
			all = append(all, launched{name, s.name})
		}
	}
	for _, l := range all {
		st, err := d.Wait(l.tenant)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" || st.Error != "" {
			t.Fatalf("tenant %s finished state=%s error=%q", l.tenant, st.State, st.Error)
		}
		if st.Buckets == 0 {
			t.Fatalf("tenant %s closed no buckets", l.tenant)
		}
	}
	for _, l := range all {
		mustEqual(t, l.tenant, tenantArtifacts(t, state, l.tenant), refs[l.scenario])
	}
}

// TestDaemonKillResume hard-kills a daemon mid-stream and restarts it:
// each tenant rehydrates from its own checkpoint and store, and the
// concatenated artifacts — model documents, delta lines, DRIFT alerts,
// checkpoint, store segments — are byte-identical to an uninterrupted
// solo run, at Workers 1 and 8.
func TestDaemonKillResume(t *testing.T) {
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			dirXML := writeDirXML(t)
			pairLines := pairCorpus()
			incidentLines := driftCorpus()

			// References: solo, uninterrupted, over the complete corpora.
			pairCfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l1", MinLogs: 2, BucketSec: 1, WindowBuckets: 2, Workers: w}}
			driftCfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Directory: dirXML, Drift: true, BucketSec: 1, WindowBuckets: 2, Workers: w}}
			refPair, refDrift := pairCfg, driftCfg
			refPair.Source = writeLog(t, pairLines)
			refDrift.Source = writeLog(t, incidentLines)
			pairWant := soloRef(t, refPair)
			driftWant := soloRef(t, refDrift)

			// Daemon sources start as prefixes, cut mid-bucket.
			srcDir := t.TempDir()
			pairSrc := filepath.Join(srcDir, "pair.log")
			driftSrc := filepath.Join(srcDir, "drift.log")
			pairCut, driftCut := len(pairLines)*3/5, len(incidentLines)*3/5
			writeLines(t, pairSrc, pairLines[:pairCut])
			writeLines(t, driftSrc, incidentLines[:driftCut])
			pairCfg.Source, pairCfg.Live = pairSrc, true
			driftCfg.Source, driftCfg.Live = driftSrc, true

			state := t.TempDir()
			d1, err := daemon.New(daemon.Config{StateDir: state, PollMillis: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d1.Upsert("pair", pairCfg); err != nil {
				t.Fatal(err)
			}
			if _, err := d1.Upsert("drift", driftCfg); err != nil {
				t.Fatal(err)
			}
			// Let both tenants drain their prefixes, then kill hard.
			for _, name := range []string{"pair", "drift"} {
				if err := d1.WaitIdle(name, 3); err != nil {
					t.Fatal(err)
				}
			}
			d1.Kill()
			st, err := d1.Status("pair")
			if err != nil {
				t.Fatal(err)
			}
			if st.State != "stopped" || st.Buckets == 0 {
				t.Fatalf("killed mid-stream: state=%s buckets=%d, want stopped with progress", st.State, st.Buckets)
			}

			// The streams grow while the daemon is down.
			appendLines(t, pairSrc, pairLines[pairCut:])
			appendLines(t, driftSrc, incidentLines[driftCut:])

			// Restart: Start rehydrates both tenants from stream.json and
			// resumes each from its checkpoint.
			d2, err := daemon.New(daemon.Config{StateDir: state, PollMillis: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := d2.Start(); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"pair", "drift"} {
				if err := d2.WaitIdle(name, 3); err != nil {
					t.Fatal(err)
				}
			}
			// Drain to completion: reconfigure each stream as one-shot; the
			// upsert hard-stops the live engine and the new run finishes at
			// EOF with the end-of-stream flush, exactly like the reference.
			pairCfg.Live, driftCfg.Live = false, false
			if _, err := d2.Upsert("pair", pairCfg); err != nil {
				t.Fatal(err)
			}
			if _, err := d2.Upsert("drift", driftCfg); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"pair", "drift"} {
				st, err := d2.Wait(name)
				if err != nil {
					t.Fatal(err)
				}
				if st.State != "done" || st.Error != "" {
					t.Fatalf("tenant %s finished state=%s error=%q", name, st.State, st.Error)
				}
			}

			mustEqual(t, "pair", tenantArtifacts(t, state, "pair"), pairWant)
			mustEqual(t, "drift", tenantArtifacts(t, state, "drift"), driftWant)
		})
	}
}

// TestLiveTenantFollowsRotations: a live tenant whose source is
// rename-rotated and then copytruncated mid-stream writes the documents, the
// delta and DRIFT lines and the store a solo run over the same lines in one
// file writes. The checkpoints differ by construction — the tenant's counts
// the rotations and points into the last generation — and are not compared.
// The tenant's wake, not its backstop, noticed the changes.
func TestLiveTenantFollowsRotations(t *testing.T) {
	lines := driftCorpus()
	cfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Directory: writeDirXML(t), Drift: true, BucketSec: 1, WindowBuckets: 2, Workers: 1}, Live: true}
	ref := cfg
	ref.Source = writeLog(t, lines)
	want := soloRef(t, ref)

	src := filepath.Join(t.TempDir(), "feed.log")
	cfg.Source = src
	first, second := len(lines)/3, 2*len(lines)/3
	writeLines(t, src, lines[:first])
	state := t.TempDir()
	d, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Upsert("feed", cfg); err != nil {
		t.Fatal(err)
	}
	drain := func() {
		t.Helper()
		if err := d.WaitIdle("feed", 2); err != nil {
			t.Fatal(err)
		}
	}
	drain()
	// Rename rotation: the generation moves aside, the next takes its name.
	if err := os.Rename(src, src+".1"); err != nil {
		t.Fatal(err)
	}
	writeLines(t, src, lines[first:second])
	drain()
	// Copytruncate: the file is emptied in place, then written again.
	if err := os.Truncate(src, 0); err != nil {
		t.Fatal(err)
	}
	drain()
	appendLines(t, src, lines[second:])
	drain()
	d.Kill()

	st, err := d.Status("feed")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "stopped" || st.Totals == nil || st.Totals.Rotations != 2 {
		t.Fatalf("state=%s totals=%+v, want stopped after one rename rotation and one truncation", st.State, st.Totals)
	}
	var m struct {
		Counters, Gauges map[string]int64
	}
	if _, body := get(d, "/streams/feed/metrics"); json.Unmarshal(body, &m) != nil {
		t.Fatalf("/streams/feed/metrics: %s", body)
	}
	if m.Counters["ingest.wakes"] == 0 || m.Gauges["ingest.wake_fallback"] != 0 {
		t.Errorf("ingest.wakes = %d, ingest.wake_fallback = %d: the tenant slept instead of waking", m.Counters["ingest.wakes"], m.Gauges["ingest.wake_fallback"])
	}
	got := tenantArtifacts(t, state, "feed")
	got.ckpt, want.ckpt = nil, nil
	mustEqual(t, "feed", got, want)
}

// TestTenantRefusesOldCheckpoint: a tenant whose state directory holds a
// version-1 checkpoint — the drift state a JSON object, as written before
// it went binary — does not resume over it. The stream ends "failed", and
// the refusal, naming the file and both versions, is in its status and is
// the last line of its events.log; nothing is mined or emitted.
func TestTenantRefusesOldCheckpoint(t *testing.T) {
	cfg := daemon.StreamConfig{Spec: follow.Spec{Method: "l3", Directory: writeDirXML(t), Drift: true, BucketSec: 1, WindowBuckets: 2}}
	cfg.Source = writeLog(t, driftCorpus())
	state := t.TempDir()
	d1, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Upsert("drift", cfg); err != nil {
		t.Fatal(err)
	}
	if st, err := d1.Wait("drift"); err != nil || st.State != "done" {
		t.Fatalf("first run: state %q, %v; want done", st.State, err)
	}
	before := tenantArtifacts(t, state, "drift")

	ckpt := filepath.Join(state, "drift", "follow.ckpt")
	v1 := `{"version":1,"offset":0,"rotations":0,"bucket_width":1000,"window_buckets":2,"origin":0,"cur":3,` +
		`"open":true,"stats":{},"window_in_store":true,"drift":{"version":1,"seq":3}}`
	if err := os.WriteFile(ckpt, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := daemon.New(daemon.Config{StateDir: state})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	st, err := d2.Wait("drift")
	if err != nil {
		t.Fatal(err)
	}
	want := "stream: checkpoint " + ckpt + " has format version 1, want 2 — remove it and point -store at a fresh directory to start fresh"
	if st.State != "failed" || st.Error != want {
		t.Fatalf("resumed over a version-1 checkpoint: state %q, error %q\nwant failed with %q", st.State, st.Error, want)
	}
	after := tenantArtifacts(t, state, "drift")
	if got := string(after.events); got != string(before.events)+"depmined: "+want+"\n" {
		t.Errorf("events.log after the refusal:\n%s\nwant the first run's lines followed by the refusal", got)
	}
	if !bytes.Equal(after.out, before.out) {
		t.Errorf("the refused run emitted documents (%d → %d bytes)", len(before.out), len(after.out))
	}
}
