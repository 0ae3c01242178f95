package logmodel

import (
	"bufio"
	"fmt"
	"io"
)

// The wire format is one entry per line, tab-separated:
//
//	<RFC3339-millis timestamp> \t <source> \t <host> \t <user> \t <severity> \t <message>
//
// Tabs, newlines and backslashes inside the message are backslash-escaped.
// The format is intentionally trivial: the paper's point is that the miners
// need almost no structure, so the substrate should not either.
//
// The hot-path implementations — ParseEntryBytes, AppendEntry and the
// intern table — live in wirebytes.go; this file keeps the string-based
// API and the stream Reader/Writer on top of them.

// TimeLayout is RFC3339 with millisecond precision, the timestamp format of
// the wire format. Exported so tooling that rewrites wire lines in place
// (e.g. the chaos injector's clock-skew fault) shares the exact layout.
const TimeLayout = "2006-01-02T15:04:05.000Z07:00"

// FormatEntry renders an entry as one wire-format line (without trailing
// newline).
func FormatEntry(e Entry) string {
	return string(AppendEntry(make([]byte, 0, 64+len(e.Source)+len(e.Host)+len(e.User)+len(e.Message)), e))
}

// ParseEntry parses one wire-format line.
func ParseEntry(line string) (Entry, error) {
	// Bulk callers should use ParseEntryBytes with an Intern.
	return ParseEntryBytes([]byte(line), nil)
}

// Writer streams entries to an io.Writer in wire format.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one entry.
func (w *Writer) Write(e Entry) error {
	w.buf = AppendEntry(w.buf[:0], e)
	w.buf = append(w.buf, '\n')
	_, err := w.bw.Write(w.buf)
	return err
}

// Flush flushes buffered output. It must be called before the underlying
// writer is closed.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteAll writes all entries of the store to w in wire format.
func WriteAll(w io.Writer, s *Store) error {
	lw := NewWriter(w)
	for _, e := range s.Entries() {
		if err := lw.Write(e); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// MaxLineBytes caps one wire-format line: the Reader fails a longer line
// with bufio.ErrTooLong, the hardened stream path (stream.Feeder) drops it
// as oversized.
const MaxLineBytes = 1 << 22

// Reader streams entries from an io.Reader in wire format. Entries share an
// intern table: repeated Source/Host/User values are allocated once per
// distinct value and messages are copied out of the read buffer, so every
// returned Entry is durable.
type Reader struct {
	br   *bufio.Reader
	line int
	// long accumulates a line that outgrew the bufio buffer.
	long []byte
	it   *Intern
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), it: NewIntern()}
}

// readLine returns the next physical line — without its newline, and
// without a final carriage return — or io.EOF after the last line. The
// returned slice is only valid until the next call.
func (r *Reader) readLine() ([]byte, error) {
	r.long = r.long[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			if len(r.long)+len(chunk) > MaxLineBytes {
				return nil, bufio.ErrTooLong
			}
			r.long = append(r.long, chunk...)
			continue
		}
		if err != nil && err != io.EOF {
			return nil, err
		}
		line := chunk
		if len(r.long) > 0 {
			r.long = append(r.long, chunk...)
			line = r.long
		}
		if len(line) == 0 {
			return nil, io.EOF
		}
		if line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		return line, nil
	}
}

// Read returns the next entry, or io.EOF at end of input. Blank lines are
// skipped. Parse errors include the line number.
func (r *Reader) Read() (Entry, error) {
	for {
		line, err := r.readLine()
		if err != nil {
			return Entry{}, err
		}
		r.line++
		if len(line) == 0 {
			continue
		}
		e, err := ParseEntryBytes(line, r.it)
		if err != nil {
			return Entry{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return e, nil
	}
}

// ReadBatch fills dst with up to len(dst) entries, returning how many were
// read. The final batch returns n > 0 together with io.EOF when the input
// ends mid-batch; a subsequent call returns (0, io.EOF). Batching amortizes
// per-entry call overhead for bulk loaders (see ReadAll and the stream
// ingest path).
func (r *Reader) ReadBatch(dst []Entry) (int, error) {
	for n := 0; n < len(dst); n++ {
		e, err := r.Read()
		if err != nil {
			return n, err
		}
		dst[n] = e
	}
	return len(dst), nil
}

// ReadAll reads all entries from r into a new store and sorts it.
func ReadAll(r io.Reader) (*Store, error) {
	s := NewStore(1024)
	lr := NewReader(r)
	var batch [512]Entry
	for {
		n, err := lr.ReadBatch(batch[:])
		s.AppendAll(batch[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	s.Sort()
	return s, nil
}

// Merge combines several stores, sorted or not, into one sorted store.
// Entries are ordered by time; simultaneous entries keep the order of the
// inputs, then their order within each input.
func Merge(stores ...*Store) *Store {
	total := 0
	for _, s := range stores {
		total += s.Len()
	}
	out := NewStore(total)
	for _, s := range stores {
		out.AppendAll(s.Entries())
	}
	out.Sort()
	return out
}
