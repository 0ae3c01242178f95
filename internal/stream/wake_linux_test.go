//go:build linux

package stream

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"logscape/internal/obs"
)

// The wake tests assert on what Wait reports, never on how long it took: a
// wake is expected within the long backstop, so a missed event shows up as
// false rather than as a slow pass; a quiet source is given a short one.
const (
	wakeBackstop = 10 * time.Second
	wakeQuiet    = 50 * time.Millisecond
)

func appendTo(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// newWakeFile creates an empty log in a fresh directory and arms a wake on
// it, closed with the test.
func newWakeFile(t *testing.T, m *obs.Registry) (string, *Wake) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "feed.log")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWake(path, m)
	t.Cleanup(func() { w.Close() })
	return path, w
}

// TestWakeOnEveryChangeOfTheSource: an append, a rename rotation, an append
// to the file that replaced the rotated one (the file watch followed the
// name to the new inode) and a copytruncate each wake the waiter.
func TestWakeOnEveryChangeOfTheSource(t *testing.T) {
	m := obs.New()
	path, w := newWakeFile(t, m)
	if m.Gauge("ingest.wake_fallback").Value() != 0 {
		t.Fatal("the wake fell back to sleeping on a watchable file")
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"append", func() { appendTo(t, path, "one\n") }},
		{"rename rotation", func() {
			if err := os.Rename(path, path+".1"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"append after the rotation", func() { appendTo(t, path, "two\n") }},
		{"copytruncate", func() {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"append after the truncation", func() { appendTo(t, path, "three\n") }},
	}
	for _, s := range steps {
		s.do()
		if !w.Wait(wakeBackstop) {
			t.Fatalf("%s: Wait = false, want a wake", s.name)
		}
		// Drain what the step queued beyond the first wake (a rotation is
		// two events), so the next step is the only cause of the next one.
		for w.Wait(wakeQuiet) {
		}
	}
	if got := m.Counter("ingest.wakes").Value(); got < int64(len(steps)) {
		t.Errorf("ingest.wakes = %d, want at least %d", got, len(steps))
	}
	if m.Counter("ingest.wake_timeouts").Value() < int64(len(steps)) {
		t.Errorf("ingest.wake_timeouts = %d, want one per drained step", m.Counter("ingest.wake_timeouts").Value())
	}
}

// TestWakeIgnoresSiblings: the directory watch filters by name, so a
// sibling created, appended to and renamed in the same directory wakes
// nobody, and neither does a quiet source.
func TestWakeIgnoresSiblings(t *testing.T) {
	path, w := newWakeFile(t, nil)
	if w.Wait(wakeQuiet) {
		t.Fatal("a quiet source woke the waiter")
	}
	sib := filepath.Join(filepath.Dir(path), "neighbour.log")
	if err := os.WriteFile(sib, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTo(t, sib, "y\n")
	if err := os.Rename(sib, sib+".1"); err != nil {
		t.Fatal(err)
	}
	if w.Wait(wakeQuiet) {
		t.Fatal("a sibling's create, append and rename woke the waiter")
	}
	appendTo(t, path, "mine\n")
	if !w.Wait(wakeBackstop) {
		t.Fatal("the source's own append did not wake the waiter after its siblings'")
	}
}

// TestWakeFallsBackToSleep: a path whose directory cannot be watched still
// yields a Wake; it sleeps the backstop, reports no wake, and says so on the
// fallback gauge.
func TestWakeFallsBackToSleep(t *testing.T) {
	m := obs.New()
	w := NewWake(filepath.Join(t.TempDir(), "missing", "feed.log"), m)
	defer w.Close()
	if m.Gauge("ingest.wake_fallback").Value() != 1 {
		t.Error("ingest.wake_fallback != 1 for an unwatchable directory")
	}
	if w.Wait(time.Millisecond) {
		t.Error("a sleeping wake reported a wake")
	}
	if m.Counter("ingest.wake_timeouts").Value() != 1 {
		t.Errorf("ingest.wake_timeouts = %d, want 1", m.Counter("ingest.wake_timeouts").Value())
	}
}
