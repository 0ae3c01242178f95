package chaos

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Reader plays a Script as an io.Reader: the in-memory transport. OpWrite
// data is delivered in order, no read spanning two writes; an OpStall is a
// pause between reads, not an error, and OpRotate is a no-op — the
// in-memory stream models a reader that already follows across rotations,
// so the logical byte sequence is the rotation-free concatenation. Gzip
// scripts deliver the compressed (and possibly torn) stream, with stalls
// mapped to evenly spaced byte positions that no read spans.
type Reader struct {
	ops []Op
	cur []byte
	// gzip mode
	gzip    bool
	gz      []byte
	pos     int
	stallAt []int // ascending byte positions still owed a stall
}

// NewReader returns a transport playing the script from the start.
func NewReader(s *Script) *Reader { return NewReaderAt(s, 0) }

// NewReaderAt returns a transport resuming at the given logical byte offset
// — the position a stream.Checkpoint records. Stalls scheduled before the
// offset are considered already suffered and are dropped. Gzip scripts only
// support offset 0: a compressed stream has no resumable plain offset, which
// is exactly why the CLI refuses -resume on .gz input.
func NewReaderAt(s *Script, offset int64) *Reader {
	if s.Gzip {
		if offset != 0 {
			panic("chaos: NewReaderAt with non-zero offset on a gzip script")
		}
		gz := s.gzipBytes()
		stalls := 0
		for _, op := range s.Ops {
			if op.Kind == OpStall {
				stalls++
			}
		}
		r := &Reader{gzip: true, gz: gz}
		for k := 1; k <= stalls; k++ {
			r.stallAt = append(r.stallAt, len(gz)*k/(stalls+1))
		}
		return r
	}
	r := &Reader{}
	skip := offset
	for i, op := range s.Ops {
		if op.Kind != OpWrite {
			if skip == 0 {
				r.ops = append(r.ops, s.Ops[i:]...)
				return r
			}
			continue // stall/rotate before the resume point: already played
		}
		if skip >= int64(len(op.Data)) {
			skip -= int64(len(op.Data))
			continue
		}
		r.cur = op.Data[skip:]
		skip = 0
		r.ops = s.Ops[i+1:]
		return r
	}
	if skip > 0 {
		panic(fmt.Sprintf("chaos: resume offset %d beyond script payload", offset))
	}
	return r
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.gzip {
		return r.readGzip(p)
	}
	for {
		if len(r.cur) > 0 {
			n := copy(p, r.cur)
			r.cur = r.cur[n:]
			return n, nil
		}
		if len(r.ops) == 0 {
			return 0, io.EOF
		}
		op := r.ops[0]
		r.ops = r.ops[1:]
		if op.Kind == OpWrite {
			r.cur = op.Data
		}
		// A stall already ended the previous read, and a rotation is
		// invisible to a concatenated logical stream.
	}
}

// readGzip delivers the compressed stream, ending a read at each stall
// position.
func (r *Reader) readGzip(p []byte) (int, error) {
	for len(r.stallAt) > 0 && r.stallAt[0] <= r.pos {
		r.stallAt = r.stallAt[1:]
	}
	if r.pos >= len(r.gz) {
		return 0, io.EOF
	}
	end := len(r.gz)
	if len(r.stallAt) > 0 && r.stallAt[0] < end {
		end = r.stallAt[0]
	}
	n := copy(p, r.gz[r.pos:end])
	r.pos += n
	return n, nil
}

// FSRunner plays a plain script against a real file, one operation per Step
// call — shaped to be a stream.TailerConfig Wait hook, which makes the
// tailing loop single-goroutine and fully deterministic: the tailer drains
// to EOF, Step mutates the filesystem, the tailer looks again.
type FSRunner struct {
	path      string
	ops       []Op
	i         int
	rotations int
	err       error
}

// NewFSRunner creates (or truncates) the target file and returns a runner
// for the script. Gzip scripts are refused: the file transport models a live
// rotating log, which is plain text by construction.
func NewFSRunner(path string, s *Script) (*FSRunner, error) {
	if s.Gzip {
		return nil, errors.New("chaos: FSRunner cannot play a gzip script")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		return nil, err
	}
	return &FSRunner{path: path, ops: s.Ops}, nil
}

// Err returns the first filesystem error Step encountered, if any.
func (r *FSRunner) Err() error { return r.err }

// Rotations returns how many rotations have been played so far.
func (r *FSRunner) Rotations() int { return r.rotations }

// Step plays the next operation and reports whether more remain. It is the
// Wait hook for a Tailer following the runner's file: OpWrite appends,
// OpRotate renames the live file aside and recreates it, OpStall performs
// nothing (the tailer simply polls again — a real stall is just time).
func (r *FSRunner) Step() bool {
	if r.err != nil || r.i >= len(r.ops) {
		return false
	}
	op := r.ops[r.i]
	r.i++
	switch op.Kind {
	case OpWrite:
		f, err := os.OpenFile(r.path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			r.err = err
			return false
		}
		if _, err := f.Write(op.Data); err != nil {
			f.Close()
			r.err = err
			return false
		}
		if err := f.Close(); err != nil {
			r.err = err
			return false
		}
	case OpRotate:
		r.rotations++
		if err := os.Rename(r.path, fmt.Sprintf("%s.%d", r.path, r.rotations)); err != nil {
			r.err = err
			return false
		}
		if err := os.WriteFile(r.path, nil, 0o644); err != nil {
			r.err = err
			return false
		}
	case OpStall:
		// Nothing to do: a stall on a file is the absence of new data.
	}
	return true
}
