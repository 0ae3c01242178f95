package stream

import (
	"fmt"
	"io"
	"os"

	"logscape/internal/obs"
)

// TailerConfig parameterizes a Tailer.
type TailerConfig struct {
	// Wait is consulted when the current file is exhausted and no rotation
	// is pending: return true to re-check for new data or a rotation, false
	// to end the stream. nil ends at first quiescent EOF (one-shot replay —
	// the depmine -follow default). It is the one place a tail idles: a live
	// host blocks in it on a Wake until the file changes or a backstop
	// passes. The hook doubles as the deterministic scheduling point of the
	// chaos harness: its FS transport advances the fault script inside
	// Wait, so tailing stays single-goroutine and reproducible.
	Wait func() bool
	// Metrics, when non-nil, collects ingest.rotations (log file replaced
	// under the same name) and ingest.truncations (file shrank in place,
	// i.e. copytruncate-style rotation).
	Metrics *obs.Registry
}

// Tailer reads a log file like `tail -F` reads it: sequentially to EOF,
// then — instead of stopping — it detects the two rotation shapes a
// production logger produces and keeps going:
//
//   - rename rotation: the path now names a different file (new inode);
//     the tailer reopens the path and continues from its start;
//   - copytruncate rotation: the same file shrank below the read offset;
//     the tailer rewinds to the start.
//
// Rotation checks happen only at EOF of the current file, so nothing
// written before a rename is ever skipped (the old handle is drained
// first). Tailer implements io.Reader and is not safe for concurrent use.
type Tailer struct {
	path   string
	cfg    TailerConfig
	f      *os.File
	offset int64

	rotations   int64
	truncations int64
	mRot, mTrun *obs.Counter
}

// NewTailer opens path for tailing.
func NewTailer(path string, cfg TailerConfig) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &Tailer{
		path:  path,
		cfg:   cfg,
		f:     f,
		mRot:  cfg.Metrics.Counter("ingest.rotations"),
		mTrun: cfg.Metrics.Counter("ingest.truncations"),
	}, nil
}

// Rotations returns the number of rotations (rename or truncate) seen: none
// for a nil Tailer, a source that is not a tailed file.
func (t *Tailer) Rotations() int64 {
	if t == nil {
		return 0
	}
	return t.rotations + t.truncations
}

// SeekTo positions the read offset in the current file — the resume path:
// a Checkpoint's offset is only valid against the same file content, so
// SeekTo verifies the file still reaches off and refuses otherwise rather
// than silently reading from the wrong place.
func (t *Tailer) SeekTo(off int64) error {
	fi, err := t.f.Stat()
	if err != nil {
		return err
	}
	if off < 0 || off > fi.Size() {
		return fmt.Errorf("stream: resume offset %d beyond file %s (%d bytes); the file was rotated or truncated since the checkpoint — remove the checkpoint and point -store at a fresh directory to start fresh", off, t.path, fi.Size())
	}
	if _, err := t.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	t.offset = off
	return nil
}

// Close closes the current file handle.
func (t *Tailer) Close() error { return t.f.Close() }

// Read implements io.Reader.
func (t *Tailer) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			t.offset += int64(n)
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		// EOF on the current handle: rotated, truncated, or just quiescent.
		switch rotated, err := t.check(); {
		case err != nil:
			return 0, err
		case rotated:
			continue
		}
		if t.cfg.Wait != nil && t.cfg.Wait() {
			continue
		}
		return 0, io.EOF
	}
}

// check looks for a rotation at EOF and repositions if one happened.
//
// A copytruncate is noticed only by its size: the file is shorter than the
// read offset when the tailer next reaches EOF. A file truncated and then
// rewritten past that offset before then looks like a file that grew, so it
// is read on from the old offset and the head of the new content is never
// read. Rename rotation (a new inode at the path) has no such window.
func (t *Tailer) check() (rotated bool, err error) {
	pathInfo, statErr := os.Stat(t.path)
	if statErr != nil {
		// The path is momentarily absent — mid-rename rotation. Not an
		// error: the Wait loop will re-check once the new file exists.
		return false, nil
	}
	openInfo, err := t.f.Stat()
	if err != nil {
		return false, err
	}
	if !os.SameFile(pathInfo, openInfo) {
		// Rename rotation: reopen the path (the new file) from the start.
		nf, err := os.Open(t.path)
		if err != nil {
			return false, err
		}
		t.f.Close()
		t.f = nf
		t.offset = 0
		t.rotations++
		t.mRot.Inc()
		return true, nil
	}
	if pathInfo.Size() < t.offset {
		// Copytruncate rotation: same file, shrunk under us.
		if _, err := t.f.Seek(0, io.SeekStart); err != nil {
			return false, err
		}
		t.offset = 0
		t.truncations++
		t.mTrun.Inc()
		return true, nil
	}
	return false, nil
}
