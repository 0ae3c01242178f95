//go:build !linux

package stream

import (
	"time"

	"logscape/internal/obs"
)

// Wake is where a live tail idles. Without inotify there is no kernel
// notification to wait on, so Wait sleeps the whole backstop and the
// registry's ingest.wake_fallback gauge reads 1 (see wake_linux.go).
type Wake struct {
	mTimeouts *obs.Counter
}

// NewWake returns a wake that only sleeps.
func NewWake(path string, m *obs.Registry) *Wake {
	m.Gauge("ingest.wake_fallback").Set(1)
	return &Wake{mTimeouts: m.Counter("ingest.wake_timeouts")}
}

// Wait sleeps d and reports false: nothing woke it.
func (w *Wake) Wait(d time.Duration) (woken bool) {
	time.Sleep(d)
	w.mTimeouts.Inc()
	return false
}

// Close releases nothing.
func (w *Wake) Close() error { return nil }
