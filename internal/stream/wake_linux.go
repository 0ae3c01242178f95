//go:build linux

package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"logscape/internal/obs"
)

// The directory watch reports the source's name appearing (created, or
// renamed into place) and leaving (renamed away, deleted); the file watch
// reports writes to the inode the name currently holds, appends and
// copytruncate alike.
const (
	wakeDirMask  = syscall.IN_CREATE | syscall.IN_MOVED_TO | syscall.IN_MOVED_FROM | syscall.IN_DELETE | syscall.IN_ONLYDIR
	wakeFileMask = syscall.IN_MODIFY
)

// Wake lets a live tail sleep until its source changes instead of for a
// fixed interval. It watches the file itself for writes and its directory
// for events that carry the file's base name, so a sibling's append in the
// same directory wakes nobody else. A rename rotation moves the file watch
// to the new inode. An overflowed event queue wakes too: what was lost may
// have named the source.
//
// When the watches cannot be set up — no inotify, the per-user instance
// limit reached (EMFILE), an unwatchable directory — Wait only sleeps, and
// the registry's ingest.wake_fallback gauge reads 1. Not safe for
// concurrent use.
type Wake struct {
	path, base string
	fd         int      // f's descriptor, kept raw: f.Fd() would make f blocking
	f          *os.File // the inotify instance; nil when Wait only sleeps
	fileWd     int32    // the watch on the file's current inode; -1 while none
	buf        []byte

	mWakes, mTimeouts *obs.Counter
	mFallback         *obs.Gauge
}

// NewWake arms the watches for path. It never fails: a wake that cannot
// watch sleeps instead.
func NewWake(path string, m *obs.Registry) *Wake {
	w := &Wake{
		path: path, base: filepath.Base(path), fileWd: -1,
		mWakes:    m.Counter("ingest.wakes"),
		mTimeouts: m.Counter("ingest.wake_timeouts"),
		mFallback: m.Gauge("ingest.wake_fallback"),
	}
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		w.mFallback.Set(1)
		return w
	}
	// A non-blocking descriptor joins the runtime poller, so a blocked Read
	// parks the goroutine rather than an OS thread and honours a deadline.
	f := os.NewFile(uintptr(fd), "inotify")
	if _, err := syscall.InotifyAddWatch(fd, filepath.Dir(path), wakeDirMask); err != nil || f.SetReadDeadline(time.Time{}) != nil {
		f.Close()
		w.mFallback.Set(1)
		return w
	}
	w.fd, w.f, w.buf = fd, f, make([]byte, 4096)
	w.watchFile()
	return w
}

// Wait blocks until the source changes or d passes, and reports which. It
// drains the events already queued first and returns at once if one of them
// names the source — possibly for bytes the tail has read since, which
// costs one more look at EOF, never a missed append.
func (w *Wake) Wait(d time.Duration) (woken bool) {
	if w.f == nil {
		time.Sleep(d)
		w.mTimeouts.Inc()
		return false
	}
	err := w.f.SetReadDeadline(time.Now().Add(d)) //lint:allow wallclock the backstop of a live tail's idle wait is wall time by nature; it decides when the tail looks again, never what it reads
	for err == nil {
		var n int
		if n, err = w.f.Read(w.buf); err == nil && w.scan(w.buf[:n]) {
			w.mWakes.Inc()
			return true
		}
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		w.Close() // the instance broke: every later Wait sleeps
		w.mFallback.Set(1)
	}
	w.mTimeouts.Inc()
	return false
}

// scan reports whether any event in buf concerns the source, and moves the
// file watch to the inode the name now holds when it was created or renamed
// into place.
func (w *Wake) scan(buf []byte) (hit bool) {
	for len(buf) >= syscall.SizeofInotifyEvent {
		wd := int32(binary.NativeEndian.Uint32(buf[0:]))
		mask := binary.NativeEndian.Uint32(buf[4:])
		end := syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(buf[12:]))
		if end > len(buf) {
			return true // a torn record: look at the file rather than guess
		}
		name := buf[syscall.SizeofInotifyEvent:end]
		buf = buf[end:]
		switch {
		case mask&syscall.IN_Q_OVERFLOW != 0:
			w.watchFile()
			hit = true
		case wd == w.fileWd && mask&syscall.IN_IGNORED != 0:
			w.fileWd = -1 // the inode is gone; the directory watch sees its successor
		case wd == w.fileWd:
			hit = true
		case string(bytes.TrimRight(name, "\x00")) == w.base: // the kernel pads names with NULs
			if mask&(syscall.IN_CREATE|syscall.IN_MOVED_TO) != 0 {
				w.watchFile()
			}
			hit = true
		}
	}
	return hit
}

// watchFile points the file watch at the inode the path names now and
// drops the watch on the inode it replaced. An absent path (mid-rotation)
// leaves no file watch; the directory watch reports the name's return.
func (w *Wake) watchFile() {
	wd, err := syscall.InotifyAddWatch(w.fd, w.path, wakeFileMask)
	if err != nil {
		wd = -1
	}
	if w.fileWd >= 0 && int32(wd) != w.fileWd {
		// Fails only when the kernel already dropped the watch with its inode.
		_, _ = syscall.InotifyRmWatch(w.fd, uint32(w.fileWd))
	}
	w.fileWd = int32(wd)
}

// Close releases the inotify instance; a nil or sleeping Wake has none.
func (w *Wake) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
