package stream

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// This file is the hardened ingest path: the pieces between a hostile
// transport and the Ingester. A production log stream arrives truncated,
// corrupted, duplicated, reordered and torn (see internal/chaos for the
// fault model); the layers here guarantee that whatever the transport
// mangles, the mined model stays a pure function of the entries that were
// actually accepted — every rejected line is counted by fault class and,
// optionally, preserved verbatim in a quarantine sink.
//
// Composition order (outermost source first):
//
//	Tailer | os.Stdin | *os.File
//	  → TornGzipReader   (gz input only) torn-trailer tolerance
//	  → Feeder           line splitting, parsing, quarantine, Ingester
//
// A read error from the transport ends the run: no source the engine opens
// produces a recoverable one, so there is no retry layer.

// TornGzipReader decompresses a gzip stream, treating a torn tail — a
// truncated member, a missing trailer, a corrupt checksum — as a clean end
// of stream instead of an error: the decompressed prefix is delivered, the
// tear is counted (ingest.gz_torn) and reported via Torn(). Rationale: a
// rotated-away or crash-cut .gz segment still carries a usable prefix, and
// the batch-equivalence contract is over accepted entries, not over bytes
// the transport lost.
type TornGzipReader struct {
	src   io.Reader
	zr    *gzip.Reader
	torn  bool
	done  bool
	mTorn *obs.Counter
}

// NewTornGzipReader returns a tolerant gzip reader over src. Metrics may be
// nil. The gzip header is read lazily on first Read, so a stream torn
// inside the header yields zero bytes, not a construction error.
func NewTornGzipReader(src io.Reader, m *obs.Registry) *TornGzipReader {
	return &TornGzipReader{src: src, mTorn: m.Counter("ingest.gz_torn")}
}

// Torn reports whether the stream ended in a tear rather than a clean
// trailer.
func (g *TornGzipReader) Torn() bool { return g.torn }

// Read implements io.Reader.
func (g *TornGzipReader) Read(p []byte) (int, error) {
	if g.done {
		return 0, io.EOF
	}
	if g.zr == nil {
		zr, err := gzip.NewReader(g.src)
		if err != nil {
			if g.tearOK(err) {
				return 0, io.EOF
			}
			return 0, err
		}
		g.zr = zr
	}
	n, err := g.zr.Read(p)
	if err != nil && err != io.EOF {
		if g.tearOK(err) {
			err = io.EOF
		}
		return n, err
	}
	return n, err
}

// tearOK classifies err: true for the error shapes a torn tail produces,
// marking the stream torn and finished.
func (g *TornGzipReader) tearOK(err error) bool {
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrChecksum) ||
		errors.Is(err, gzip.ErrHeader) || errors.Is(err, io.EOF) {
		g.torn = true
		g.done = true
		g.mTorn.Inc()
		return true
	}
	return false
}

// MaxLineBytes is the wire format's line cap. Longer lines are dropped as
// oversized (quarantined, counted) and the remainder of the physical line
// is discarded — a corrupted stream must not make the reader buffer
// unboundedly.
const MaxLineBytes = logmodel.MaxLineBytes

// FeedStats summarizes one Feeder run, by fault class.
type FeedStats struct {
	// Lines is the number of non-blank lines offered to the parser.
	Lines int
	// Malformed lines failed wire-format parsing (mid-record truncation and
	// byte corruption land here).
	Malformed int
	// Oversized lines exceeded MaxLineBytes and were discarded unparsed.
	Oversized int
	// Late and Corrupt mirror the ingester's verdicts for parsed entries.
	Late, Corrupt int
	// Quarantined is the number of rejected lines written to the sink.
	Quarantined int
}

// FeederConfig parameterizes a Feeder.
type FeederConfig struct {
	// Quarantine, when non-nil, receives one line per rejected input line:
	// "<class>\t<raw line>\n" where class is malformed, oversized, late or
	// corrupt. A sink write error disables the sink (counted as
	// ingest.quarantine_errors) rather than aborting the stream.
	Quarantine io.Writer
	// Metrics, when non-nil, collects the per-fault-class drop counters
	// (ingest.lines_malformed, ingest.lines_oversized, ingest.quarantined,
	// ingest.quarantine_errors; late/corrupt are counted by the ingester as
	// stream.entries_late / stream.entries_corrupt).
	Metrics *obs.Registry
}

// Feeder drains a byte stream into an Ingester: it splits lines itself (no
// bufio.Scanner, so a line may arrive across any number of reads), parses
// each line, quarantines rejects by fault class, and tracks the logical
// byte offset of the last fully processed line — the resume position a
// Checkpoint records.
type Feeder struct {
	in       *Ingester
	cfg      FeederConfig
	stats    FeedStats
	consumed int64
	// it is the feeder's intern table: ParseEntryBytes in intern mode never
	// touches the input line (the quarantine sink must receive it verbatim)
	// and yields durable entries with repeated Source/Host/User values
	// allocated once per distinct value.
	it      *logmodel.Intern
	classes map[string]*obs.Counter
	qErrors *obs.Counter
	qDead   bool
	// Pending deltas for the ingester's verdict counters: line() feeds the
	// ingester through the internal add (no per-entry atomic updates) and
	// flushCounters folds the deltas in at the end of every drained read
	// chunk — totals match the per-entry Add path exactly, the counters
	// just advance in chunk-sized steps.
	accepted, late, corrupt int64
}

// NewFeeder returns a feeder delivering into in.
func NewFeeder(in *Ingester, cfg FeederConfig) *Feeder {
	return &Feeder{
		in:  in,
		cfg: cfg,
		it:  logmodel.NewIntern(),
		classes: obs.Classes(cfg.Metrics, "ingest.lines_",
			"malformed", "oversized", "quarantined"),
		qErrors: cfg.Metrics.Counter("ingest.quarantine_errors"),
	}
}

// Stats returns the per-class accounting so far.
func (f *Feeder) Stats() FeedStats { return f.stats }

// Consumed returns the logical offset just past the last fully processed
// line: the number of decompressed stream bytes (including each line's
// newline) whose effect — acceptance or rejection — is already reflected in
// the ingester. It advances before an entry is offered to Add, so a
// checkpoint taken inside OnAdvance covers the entry that closed the
// bucket; resuming at Consumed neither replays nor skips any line.
func (f *Feeder) Consumed() int64 { return f.consumed }

// Run drains r to EOF, feeding the ingester. It does not Flush: the caller
// decides whether EOF is end-of-stream or a pause. A read error is returned
// as-is, with every complete line before it already processed.
func (f *Feeder) Run(r io.Reader) error {
	// Read directly into the line buffer's tail: every stream byte is
	// copied once (transport → buf), not twice through a staging chunk.
	// drain compacts the unprocessed remainder to the front, and the
	// oversized-line discard bounds the remainder, so the buffer only grows
	// while a single line longer than its capacity is pending.
	buf := make([]byte, 0, 64<<10)
	skipping := false // inside an oversized line, discarding to newline
	for {
		if len(buf) == cap(buf) {
			nb := make([]byte, len(buf), 2*cap(buf))
			copy(nb, buf)
			buf = nb
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if n > 0 {
			buf = buf[:len(buf)+n]
			buf = f.drain(buf, &skipping)
			f.flushCounters()
		}
		if err == io.EOF {
			// A final unterminated line is still a line: either the stream
			// legitimately lacks a trailing newline, or the tail was torn
			// mid-record — the parser decides which by accepting or
			// rejecting it.
			if len(buf) > 0 && !skipping {
				f.consumed += int64(len(buf))
				f.line(buf)
			} else if skipping {
				f.consumed += int64(len(buf))
				f.reject(nil, "oversized")
				f.stats.Oversized++
			}
			f.flushCounters()
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// drain processes every complete line in buf, returning the unprocessed
// remainder (compacted to the front).
func (f *Feeder) drain(buf []byte, skipping *bool) []byte {
	start := 0
	for {
		i := bytes.IndexByte(buf[start:], '\n')
		if i < 0 {
			break
		}
		line := buf[start : start+i]
		f.consumed += int64(i + 1)
		if *skipping {
			*skipping = false
			f.reject(nil, "oversized")
			f.stats.Oversized++
		} else {
			f.line(line)
		}
		start += i + 1
	}
	rest := buf[start:]
	if *skipping {
		// Mid-discard of an oversized line: drop everything up to the
		// newline that ends it (handled above once it arrives).
		f.consumed += int64(len(rest))
		rest = rest[:0]
	} else if len(rest) > MaxLineBytes {
		// The pending partial line is already over the cap: discard what we
		// have and keep discarding until its newline arrives.
		f.consumed += int64(len(rest))
		*skipping = true
		rest = rest[:0]
	}
	// Compact so the backing array doesn't grow with the stream.
	n := copy(buf, rest)
	return buf[:n]
}

// line classifies and delivers one complete line.
func (f *Feeder) line(line []byte) {
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) == 0 {
		return
	}
	f.stats.Lines++
	if len(line) > MaxLineBytes {
		// Quarantine the class marker only: preserving multi-megabyte junk
		// verbatim would turn the quarantine file into the attack surface.
		f.stats.Oversized++
		f.reject(nil, "oversized")
		return
	}
	var e logmodel.Entry
	if err := logmodel.ParseEntryBytesInto(&e, line, f.it); err != nil {
		f.stats.Malformed++
		f.reject(line, "malformed")
		return
	}
	switch f.in.add(&e) {
	case VerdictAccepted:
		f.accepted++
	case VerdictLate:
		f.late++
		f.stats.Late++
		f.reject(line, "late")
	case VerdictCorrupt:
		f.corrupt++
		f.stats.Corrupt++
		f.reject(line, "corrupt")
	}
}

// flushCounters folds the accumulated verdict deltas into the ingester's
// metric counters.
func (f *Feeder) flushCounters() {
	if f.accepted != 0 {
		f.in.mAccepted.Add(f.accepted)
		f.accepted = 0
	}
	if f.late != 0 {
		f.in.mLate.Add(f.late)
		f.late = 0
	}
	if f.corrupt != 0 {
		f.in.mCorrupt.Add(f.corrupt)
		f.corrupt = 0
	}
}

// reject counts a dropped line by class and writes it to the quarantine
// sink. A nil line (an oversized line whose bytes were already discarded)
// quarantines the class marker alone.
func (f *Feeder) reject(line []byte, class string) {
	if c := f.classes[class]; c != nil {
		c.Inc()
	}
	if f.cfg.Quarantine == nil || f.qDead {
		return
	}
	if _, err := fmt.Fprintf(f.cfg.Quarantine, "%s\t%s\n", class, line); err != nil {
		// Quarantine is best-effort evidence capture: losing it must not
		// take down the tail. Disable the sink and count the failure.
		f.qDead = true
		f.qErrors.Inc()
		return
	}
	f.stats.Quarantined++
	if c := f.classes["quarantined"]; c != nil {
		c.Inc()
	}
}
