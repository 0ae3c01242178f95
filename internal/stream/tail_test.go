package stream

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logscape/internal/obs"
)

// tailHarness drives a Tailer deterministically: Wait executes the next
// scripted filesystem step, so tailing stays single-goroutine.
type tailHarness struct {
	t     *testing.T
	path  string
	steps []func()
	i     int
}

func (h *tailHarness) append(s string) func() {
	return func() {
		h.t.Helper()
		f, err := os.OpenFile(h.path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			h.t.Fatal(err)
		}
		if _, err := f.WriteString(s); err != nil {
			h.t.Fatal(err)
		}
		f.Close()
	}
}

func (h *tailHarness) rotate() func() {
	n := 0
	return func() {
		h.t.Helper()
		n++
		if err := os.Rename(h.path, h.path+".1"); err != nil {
			h.t.Fatal(err)
		}
		if err := os.WriteFile(h.path, nil, 0o644); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *tailHarness) truncate(s string) func() {
	return func() {
		h.t.Helper()
		if err := os.WriteFile(h.path, []byte(s), 0o644); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *tailHarness) wait() bool {
	if h.i >= len(h.steps) {
		return false
	}
	h.steps[h.i]()
	h.i++
	return true
}

func newTailHarness(t *testing.T) *tailHarness {
	h := &tailHarness{t: t, path: filepath.Join(t.TempDir(), "log")}
	if err := os.WriteFile(h.path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestTailerFollowsAppendsAndRenameRotation(t *testing.T) {
	h := newTailHarness(t)
	h.steps = []func(){
		h.append("one\n"),
		h.append("two\n"),
		h.rotate(),
		h.append("three\n"), // lands in the new file
		h.rotate(),
		h.rotate(), // rotating an empty file is fine too
		h.append("four\n"),
	}
	m := obs.New()
	tl, err := NewTailer(h.path, TailerConfig{Wait: h.wait, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := io.ReadAll(tl)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\ntwo\nthree\nfour\n" {
		t.Errorf("tailed %q, want all four lines across three rotations", got)
	}
	if tl.Rotations() != 3 || m.Counter("ingest.rotations").Value() != 3 {
		t.Errorf("rotations = %d (counter %d), want 3", tl.Rotations(), m.Counter("ingest.rotations").Value())
	}
}

func TestTailerDrainsOldFileBeforeSwitching(t *testing.T) {
	// Data written before the rotation but not yet read must not be lost:
	// the tailer reads the old handle to EOF before reopening.
	h := newTailHarness(t)
	h.steps = []func(){
		func() { h.append("before-rotate\n")(); h.rotate()(); h.append("after\n")() },
	}
	tl, err := NewTailer(h.path, TailerConfig{Wait: h.wait})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := io.ReadAll(tl)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before-rotate\nafter\n" {
		t.Errorf("tailed %q, want the pre-rotation line then the new file", got)
	}
}

func TestTailerCopytruncateRotation(t *testing.T) {
	h := newTailHarness(t)
	h.steps = []func(){
		h.append("aaaa\n"),
		h.truncate(""),   // copytruncate: same inode, size 0
		h.append("bb\n"), // shorter than what was read: must still be seen
	}
	m := obs.New()
	tl, err := NewTailer(h.path, TailerConfig{Wait: h.wait, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := io.ReadAll(tl)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaa\nbb\n" {
		t.Errorf("tailed %q, want aaaa then bb after copytruncate", got)
	}
	if m.Counter("ingest.truncations").Value() != 1 {
		t.Errorf("truncations counter = %d, want 1", m.Counter("ingest.truncations").Value())
	}
}

func TestTailerSurvivesMidRenameWindow(t *testing.T) {
	// Between rename(old) and create(new) the path does not exist; the
	// tailer must treat that as "wait", not as an error.
	h := newTailHarness(t)
	h.steps = []func(){
		h.append("x\n"),
		func() {
			if err := os.Rename(h.path, h.path+".1"); err != nil {
				t.Fatal(err)
			}
		}, // path now missing
		func() {
			if err := os.WriteFile(h.path, []byte("y\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	tl, err := NewTailer(h.path, TailerConfig{Wait: h.wait})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := io.ReadAll(tl)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "x\ny\n" {
		t.Errorf("tailed %q, want x then y across the rename window", got)
	}
}

func TestTailerOneShotStopsAtEOF(t *testing.T) {
	h := newTailHarness(t)
	h.append("only\n")()
	tl, err := NewTailer(h.path, TailerConfig{}) // nil Wait: one-shot
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := io.ReadAll(tl)
	if err != nil || string(got) != "only\n" {
		t.Fatalf("one-shot read %q, %v", got, err)
	}
}

func TestTailerSeekTo(t *testing.T) {
	h := newTailHarness(t)
	h.append("0123456789\n")()
	tl, err := NewTailer(h.path, TailerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if err := tl.SeekTo(5); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(tl)
	if err != nil || string(got) != "56789\n" {
		t.Fatalf("after SeekTo(5) read %q, %v", got, err)
	}
	if tl.offset != 11 {
		t.Errorf("offset = %d, want 11", tl.offset)
	}
	if err := tl.SeekTo(999); err == nil || !strings.Contains(err.Error(), "beyond file") {
		t.Errorf("SeekTo past EOF = %v, want a refusal naming the cause", err)
	}
}
