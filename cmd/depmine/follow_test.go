package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"logscape/internal/directory"
	"logscape/internal/follow"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/stream"
)

var update = flag.Bool("update", false, "rewrite golden files")

// followOpts is the baseline follow-mode option set the tests tweak.
func followOpts(file string) options {
	return options{
		spec:  follow.Spec{Method: "l1", MinLogs: 2, TimeoutSec: 1, Workers: 1, BucketSec: 1, WindowBuckets: 2},
		files: []string{file},
	}
}

// ts renders a millisecond timestamp for 2005-12-06 08:00:00 UTC + off.
func ts(off time.Duration) logmodel.Millis {
	base := time.Date(2005, 12, 6, 8, 0, 0, 0, time.UTC)
	return logmodel.Millis(base.Add(off).UnixMilli())
}

// line renders one wire-format line.
func line(at logmodel.Millis, src, msg string) string {
	return logmodel.FormatEntry(logmodel.Entry{
		Time: at, Source: src, Host: "h", User: "u", Severity: logmodel.SevInfo, Message: msg,
	})
}

// writeLog writes lines (plus trailing newlines) to a temp file and returns
// its path.
func writeLog(t *testing.T, lines []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "follow.log")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// pairCorpus builds a stream whose mined pair set changes as the window
// slides: sources A and B log in lockstep for the first buckets, then B goes
// silent and C takes its place — the delta lines must show the A--B pair
// appearing and later being replaced by A--C.
func pairCorpus() []string {
	var lines []string
	emit := func(bucket int, srcs ...string) {
		for i := 0; i < 25; i++ {
			at := ts(time.Duration(bucket)*time.Second + time.Duration(i*37)*time.Millisecond)
			for _, s := range srcs {
				lines = append(lines, line(at, s, fmt.Sprintf("tick %d", i)))
			}
		}
	}
	for b := 0; b < 3; b++ {
		emit(b, "AppA", "AppB")
	}
	for b := 3; b < 6; b++ {
		emit(b, "AppA", "AppC")
	}
	// One entry in bucket 6 so bucket 5 closes before the final flush.
	lines = append(lines, line(ts(6*time.Second), "AppA", "done"))
	return lines
}

// depCorpus builds a citation stream for l3: App1 cites the REG group early,
// then switches to the STORE group.
func depCorpus() []string {
	var lines []string
	for b := 0; b < 3; b++ {
		at := ts(time.Duration(b) * time.Second)
		lines = append(lines, line(at, "App1", "GET http://reg.hug/reg/list"))
		lines = append(lines, line(at+100, "App1", "reply ok"))
	}
	for b := 3; b < 6; b++ {
		at := ts(time.Duration(b) * time.Second)
		lines = append(lines, line(at, "App1", "PUT http://store.hug/store/save"))
		lines = append(lines, line(at+100, "App1", "reply ok"))
	}
	lines = append(lines, line(ts(6*time.Second), "App1", "done"))
	return lines
}

// driftCorpus builds a scripted-incident citation stream for l3 drift
// detection: App1 cites REG from the start, adopts STORE at bucket 5 (a
// birth confirmed K=3 buckets later), and stops citing REG at bucket 24 (a
// death after the dense-key absence run of 4 buckets — the 24 observed
// buckets behind REG satisfy the detector's young-key guard).
func driftCorpus() []string {
	var lines []string
	for b := 0; b <= 32; b++ {
		at := ts(time.Duration(b) * time.Second)
		if b < 24 {
			lines = append(lines, line(at, "App1", "GET http://reg.hug/reg/list"))
		}
		if b >= 5 {
			lines = append(lines, line(at+200, "App1", "PUT http://store.hug/store/save"))
		}
	}
	lines = append(lines, line(ts(33*time.Second), "App1", "done"))
	return lines
}

// driftLines extracts the DRIFT alert lines from a follow run's stderr.
func driftLines(stderr string) []string {
	var out []string
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, "DRIFT ") {
			out = append(out, l)
		}
	}
	return out
}

// writeDirXML persists the test service directory and returns its path.
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

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
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
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestFollowGoldenPairDeltas(t *testing.T) {
	o := followOpts(writeLog(t, pairCorpus()))
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stderr.String()
	if !strings.Contains(out, "+AppA--AppB") || !strings.Contains(out, "-AppA--AppB") ||
		!strings.Contains(out, "+AppA--AppC") {
		t.Errorf("delta lines lack the expected add/remove transitions:\n%s", out)
	}
	checkGolden(t, "follow_pairs", stderr.Bytes())
}

func TestFollowGoldenDepDeltas(t *testing.T) {
	o := followOpts(writeLog(t, depCorpus()))
	o.spec.Method = "l3"
	o.spec.Directory = writeDirXML(t)
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stderr.String()
	if !strings.Contains(out, "+App1->REG") || !strings.Contains(out, "-App1->REG") ||
		!strings.Contains(out, "+App1->STORE") {
		t.Errorf("delta lines lack the expected dep transitions:\n%s", out)
	}
	checkGolden(t, "follow_deps", stderr.Bytes())
}

func TestFollowGoldenDriftAlerts(t *testing.T) {
	o := followOpts(writeLog(t, driftCorpus()))
	o.spec.Method = "l3"
	o.spec.Directory = writeDirXML(t)
	o.spec.Drift = true
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stderr.String()
	if !strings.Contains(out, "birth App1->STORE") || !strings.Contains(out, "death App1->REG") {
		t.Errorf("stderr lacks the scripted birth and death alerts:\n%s", out)
	}
	checkGolden(t, "follow_drift", stderr.Bytes())
}

// TestFollowGoldenL1Draws pins L1's drawn numbers. The scripted corpora
// above leave the slot test no doubt, so every L1 outcome can be redrawn
// under them unnoticed; a simulated hospital day at a tenth of the volume is
// full of marginal pairs, and its delta lines move with any change to the
// seed bytes, the draw order or the decision.
func TestFollowGoldenL1Draws(t *testing.T) {
	cfg := hospital.DefaultConfig(2005)
	cfg.Scale, cfg.Days = 0.1, 1
	day, _ := hospital.NewSimulator(cfg, hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 2005)).GenerateDay(0)
	var log bytes.Buffer
	if err := logmodel.WriteAll(&log, day); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "day.log")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o := followOpts(path)
	o.spec.MinLogs, o.spec.BucketSec, o.spec.WindowBuckets = 4, 3600, 24
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(stderr.String(), "--"); n < 40 {
		t.Errorf("only %d pairs born or gone over the day: too few marginal decisions to notice a redraw", n)
	}
	checkGolden(t, "follow_l1", stderr.Bytes())
}

// TestFollowDriftResumeKeepsAlertStream kills the follow run mid-incident
// (two buckets into App1->REG's terminal absence run, before the death
// confirms) and resumes: the concatenated DRIFT lines of the two runs must
// equal an uninterrupted run's — no alert lost, none repeated.
func TestFollowDriftResumeKeepsAlertStream(t *testing.T) {
	lines := driftCorpus()
	full := writeLog(t, lines)
	dir := writeDirXML(t)
	mkOpts := func(file string) options {
		o := followOpts(file)
		o.spec.Method = "l3"
		o.spec.Directory = dir
		o.spec.Drift = true
		return o
	}

	// Durable runs carry segment= locators on their DRIFT lines, so the
	// reference keeps a store too.
	oref := mkOpts(full)
	oref.storePath = filepath.Join(t.TempDir(), "store")
	var refOut, refErr bytes.Buffer
	if err := followStream(oref, &refOut, &refErr); err != nil {
		t.Fatal(err)
	}
	ref := driftLines(refErr.String())
	if len(ref) != 2 {
		t.Fatalf("reference run alerts = %v, want a birth and a death", ref)
	}

	// Cut at a bucket boundary inside the death's absence run (absences
	// start at bucket 24; the death confirms at 27; the cut leaves the
	// first two absences on the checkpointed side).
	cut := 0
	for i, l := range lines {
		e, err := logmodel.ParseEntry(l)
		if err != nil {
			t.Fatal(err)
		}
		if e.Time < ts(26*time.Second) {
			cut = i + 1
		}
	}
	prefixPath := writeLog(t, lines[:cut])
	state := t.TempDir()
	ckpt, store := filepath.Join(state, "follow.ckpt"), filepath.Join(state, "store")

	o1 := mkOpts(prefixPath)
	o1.resumePath, o1.storePath = ckpt, store
	var out1, err1 bytes.Buffer
	if err := followStream(o1, &out1, &err1); err != nil {
		t.Fatal(err)
	}
	o2 := mkOpts(full)
	o2.resumePath, o2.storePath = ckpt, store
	var out2, err2 bytes.Buffer
	if err := followStream(o2, &out2, &err2); err != nil {
		t.Fatal(err)
	}
	got := append(driftLines(err1.String()), driftLines(err2.String())...)
	if !slices.Equal(got, ref) {
		t.Errorf("kill+resume alert stream differs\ngot:  %v\nwant: %v", got, ref)
	}
}

// TestFollowResumeContinuesWhereItStopped runs follow over a prefix of the
// stream with -resume, then over the full file: the second run must pick up
// at the checkpoint (no replayed buckets) and end on the same final model as
// an uninterrupted run.
func TestFollowResumeContinuesWhereItStopped(t *testing.T) {
	lines := pairCorpus()
	full := writeLog(t, lines)

	// Uninterrupted reference.
	ref := followOpts(full)
	var refOut, refErr bytes.Buffer
	if err := followStream(ref, &refOut, &refErr); err != nil {
		t.Fatal(err)
	}

	// Cut at a bucket boundary: every line before the cut belongs to buckets
	// the prefix run closes (or flushes) completely, so its EOF flush and a
	// mid-stream kill agree on the window state.
	cut := 0
	for i, l := range lines {
		e, err := logmodel.ParseEntry(l)
		if err != nil {
			t.Fatal(err)
		}
		if e.Time < ts(3*time.Second) {
			cut = i + 1
		}
	}
	prefixPath := writeLog(t, lines[:cut])
	state := t.TempDir()
	ckpt, store := filepath.Join(state, "follow.ckpt"), filepath.Join(state, "store")

	o1 := followOpts(prefixPath)
	o1.resumePath, o1.storePath = ckpt, store
	var out1, err1 bytes.Buffer
	if err := followStream(o1, &out1, &err1); err != nil {
		t.Fatal(err)
	}
	cp, err := stream.ReadCheckpointFile(ckpt)
	if err != nil || cp == nil {
		t.Fatalf("checkpoint after prefix run: %v, %v", cp, err)
	}

	// The full file has the same bytes for the prefix; resume from it.
	o2 := followOpts(full)
	o2.resumePath, o2.storePath = ckpt, store
	var out2, err2 bytes.Buffer
	if err := followStream(o2, &out2, &err2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(err2.String(), "[2005-12-06T08:00:00 ..") {
		t.Errorf("resumed run re-emitted the first window:\n%s", err2.String())
	}
	// The final emitted model document must match the uninterrupted run's.
	lastDoc := func(s string) string {
		docs := strings.Split(strings.TrimSpace(s), "}\n{")
		return docs[len(docs)-1]
	}
	if lastDoc(out2.String()) != lastDoc(refOut.String()) {
		t.Errorf("final model after resume differs\nresumed: %s\nref:     %s",
			lastDoc(out2.String()), lastDoc(refOut.String()))
	}
}

// TestFollowResumeRefusals: each resume refusal names its cause and a
// recovery, and the run that follows the recovery literally succeeds.
func TestFollowResumeRefusals(t *testing.T) {
	log := writeLog(t, pairCorpus())
	fresh := func() string { return filepath.Join(t.TempDir(), "store") }
	resumable := func(o *options) { o.resumePath, o.storePath = filepath.Join(t.TempDir(), "ckpt"), fresh() }
	// edited leaves a finished run's checkpoint and store behind, then sets
	// (or, given nil, deletes) one field of the checkpoint's JSON.
	edited := func(field string, v any) func(*options) {
		return func(o *options) {
			resumable(o)
			if err := followStream(*o, io.Discard, io.Discard); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(o.resumePath)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			if m[field] = v; v == nil {
				delete(m, field)
			}
			if data, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(o.resumePath, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	const startFresh = "remove it and point -store at a fresh directory to start fresh"
	removeAndFresh := func(o *options) {
		if err := os.Remove(o.resumePath); err != nil {
			t.Fatal(err)
		}
		o.storePath = fresh()
	}
	// another leaves a finished run's checkpoint beside the store of a run
	// over the same stream ten seconds later: its bucket indexes reach the
	// checkpoint's, its times do not.
	var written string
	another := func(o *options) {
		resumable(o)
		if err := followStream(*o, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		var later []string
		for _, l := range pairCorpus() {
			e, err := logmodel.ParseEntry(l)
			if err != nil {
				t.Fatal(err)
			}
			e.Time += 10_000
			later = append(later, logmodel.FormatEntry(e))
		}
		other := followOpts(writeLog(t, later))
		other.storePath = fresh()
		if err := followStream(other, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		written, o.storePath = o.storePath, other.storePath
	}
	for _, c := range []struct {
		name, cause, advice string
		setup, recover      func(*options)
	}{
		{"stdin", "stdin cannot be repositioned", "requires a file input",
			func(o *options) { o.files = []string{"-"}; resumable(o) },
			func(o *options) { o.files = []string{log} }},
		{"rotation", "predates 1 rotation(s)", startFresh, edited("rotations", 1), removeAndFresh},
		{"missing store", "resume needs a model store", "rerun with -store DIR",
			func(o *options) { o.resumePath = filepath.Join(t.TempDir(), "ckpt") },
			func(o *options) { o.storePath = fresh() }},
		{"inline window", "keeps its window inline", startFresh, edited("window_in_store", nil), removeAndFresh},
		{"version", "has format version 1, want 2", startFresh, edited("version", 1), removeAndFresh},
		{"another store", "holds no model for bucket 6", "point -store at the directory the checkpoint was written with",
			another, func(o *options) { o.storePath = written }},
	} {
		o := followOpts(log)
		c.setup(&o)
		err := followStream(o, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.cause) || !strings.Contains(err.Error(), c.advice) {
			t.Errorf("%s: err = %v; want a refusal naming %q and advising %q", c.name, err, c.cause, c.advice)
			continue
		}
		c.recover(&o)
		if err := followStream(o, io.Discard, io.Discard); err != nil {
			t.Errorf("%s: the run that follows the advice fails: %v", c.name, err)
		}
	}
}

func TestFollowQuarantineFile(t *testing.T) {
	lines := pairCorpus()
	withJunk := append([]string{"junk line, no tabs"}, lines...)
	o := followOpts(writeLog(t, withJunk))
	o.quarantinePath = filepath.Join(t.TempDir(), "quarantine.log")
	var stdout, stderr bytes.Buffer
	if err := followStream(o, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile(o.quarantinePath)
	if err != nil {
		t.Fatal(err)
	}
	if want := "malformed\tjunk line, no tabs\n"; string(q) != want {
		t.Errorf("quarantine file = %q, want %q", q, want)
	}
	if !strings.Contains(stderr.String(), "1 malformed, 0 oversized, 1 quarantined") {
		t.Errorf("summary does not account the quarantined line:\n%s", stderr.String())
	}
}

// TestFollowRefusesBadSpecs drives the list internal/daemon's
// TestBadSpecsAreRefused drives through a PUT
// (internal/follow/testdata/bad_specs.json) through the built binary's flags:
// each exits 1 with a message on stderr, nothing on stdout and no store
// directory — the refusal comes before anything is opened.
func TestFollowRefusesBadSpecs(t *testing.T) {
	data, err := os.ReadFile("../../internal/follow/testdata/bad_specs.json")
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
	bin := filepath.Join(t.TempDir(), "depmine")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	log := writeLog(t, pairCorpus())
	for _, c := range cases {
		spec := follow.Spec{Method: "l2", TimeoutSec: 1, BucketSec: 1, WindowBuckets: 2}
		if err := json.Unmarshal(c.Set, &spec); err != nil {
			t.Fatal(err)
		}
		store := filepath.Join(t.TempDir(), "store")
		cmd := exec.Command(bin, "-follow", "-store", store,
			"-method", spec.Method, "-dir", spec.Directory,
			"-bucket", fmt.Sprint(spec.BucketSec), "-window", fmt.Sprint(spec.WindowBuckets),
			"-timeout", fmt.Sprint(spec.TimeoutSec), "-workers", fmt.Sprint(spec.Workers),
			"-minlogs", fmt.Sprint(spec.MinLogs), log)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), "depmine: ") {
			t.Errorf("%s: %v, stdout %q, stderr %q; want exit 1, an empty stdout and the refusal on stderr", c.Name, err, stdout.String(), stderr.String())
		}
		if _, err := os.Stat(store); !os.IsNotExist(err) {
			t.Errorf("%s: the refused run created its store directory (%v)", c.Name, err)
		}
	}
}
