// Package chaos is a deterministic, seed-driven fault injector for log
// streams. It rewrites a clean sequence of wire-format lines into a Script —
// an op-by-op description of what a hostile transport delivers: truncated
// records, corrupted bytes, duplicated lines, bounded timestamp reordering
// and clock skew, file rotations, torn gzip trailers and burst stalls.
//
// Everything is a pure function of (input lines, Schedule): the same seed
// replays the same faults byte for byte, so a failing property case is a
// reproducible unit test, not an anecdote. Scripts are played through two
// transports — an in-memory Reader and an FSRunner that drives a real file
// for stream.Tailer — which deliver identical logical byte streams for the
// same script.
//
// The package exists to pin the hardened-ingest contract: for any seeded
// fault schedule, the streaming model snapshot stays byte-identical to a
// batch mine over exactly the entries the ingest path accepted.
package chaos

import (
	"bytes"
	"compress/gzip"

	"logscape/internal/logmodel"
)

// rng is a splitmix64 generator: tiny, fast, and fully determined by its
// seed. math/rand is deliberately avoided — its global state and historical
// algorithm changes make seeds non-portable across toolchains.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// hit reports a per-mille probability draw.
func (r *rng) hit(perMille int) bool {
	if perMille <= 0 {
		return false
	}
	return r.intn(1000) < perMille
}

// Schedule is a composable fault schedule. The zero value injects nothing;
// each field arms one fault class. Probabilities are per mille (deterministic
// integer draws — no floating point anywhere in the injector).
type Schedule struct {
	// Seed drives every random draw. Same seed, same faults.
	Seed uint64

	// TruncatePerMille cuts a line mid-record at a random byte position,
	// keeping the newline: the stream carries a short, malformed record.
	TruncatePerMille int
	// CorruptPerMille XORs one random byte of the line with a random
	// non-zero mask. The result may still parse — the parser decides.
	CorruptPerMille int
	// DuplicatePerMille emits the line a second time, immediately.
	DuplicatePerMille int

	// ReorderWindow bounds timestamp reordering: each line may be displaced
	// by at most ReorderWindow positions (a bounded forward-swap shuffle).
	// 0 disables reordering.
	ReorderWindow int
	// SkewMaxMillis applies a clock-skew rewrite: each parseable line's
	// timestamp is shifted by a uniform draw from [−SkewMaxMillis,
	// +SkewMaxMillis] and the line re-rendered. 0 disables skew.
	SkewMaxMillis int64

	// RotateEveryLines inserts a file rotation after every N delivered
	// lines. 0 disables rotation.
	RotateEveryLines int
	// StallPerMille inserts a burst stall — a pause in delivery, which
	// ends the transport's current read — before a line.
	StallPerMille int

	// Gzip compresses the delivered stream; TornTail additionally cuts the
	// compressed stream short of its trailer. TornTail implies Gzip faults
	// only make sense on the in-memory transport — FSRunner refuses gzip
	// scripts.
	Gzip     bool
	TornTail bool
}

// OpKind discriminates script operations.
type OpKind int

// The operation kinds a Script is built from.
const (
	// OpWrite delivers bytes.
	OpWrite OpKind = iota
	// OpRotate rotates the transport's file (rename + recreate). A no-op on
	// the in-memory transport, which models the reader that follows across
	// rotations.
	OpRotate
	// OpStall pauses delivery: no read spans it, and no error surfaces.
	OpStall
)

// Op is one transport operation.
type Op struct {
	Kind OpKind
	Data []byte // OpWrite only
}

// Script is a fully materialized fault run: the exact operation sequence a
// transport plays. Scripts are deterministic values — safe to replay, diff
// and embed in failing-test reports.
type Script struct {
	Ops []Op
	// Gzip marks the stream as gzip-compressed by the transport; TornCut is
	// the number of trailing compressed bytes to withhold (0 = clean
	// trailer).
	Gzip    bool
	TornCut int
}

// Lines returns the logical plain-text payload of the script: the
// concatenation of all OpWrite data, before any gzip framing.
func (s *Script) Lines() []byte {
	var buf bytes.Buffer
	for _, op := range s.Ops {
		if op.Kind == OpWrite {
			buf.Write(op.Data)
		}
	}
	return buf.Bytes()
}

// Inject rewrites lines (without trailing newlines) into a fault Script
// according to the schedule. The rewrite is a pure function of its
// arguments.
func Inject(lines []string, s Schedule) *Script {
	r := newRNG(s.Seed)
	out := make([]string, len(lines))
	copy(out, lines)

	// Clock skew first: rewrite timestamps of parseable lines.
	if s.SkewMaxMillis > 0 {
		for i, l := range out {
			e, err := logmodel.ParseEntry(l)
			if err != nil {
				continue
			}
			span := 2*s.SkewMaxMillis + 1
			e.Time += logmodel.Millis(int64(r.next()%uint64(span)) - s.SkewMaxMillis)
			out[i] = logmodel.FormatEntry(e)
		}
	}
	// Bounded reordering: displace each line at most ReorderWindow slots.
	if s.ReorderWindow > 0 {
		for i := range out {
			maxJ := i + s.ReorderWindow
			if maxJ >= len(out) {
				maxJ = len(out) - 1
			}
			if maxJ > i {
				j := i + r.intn(maxJ-i+1)
				out[i], out[j] = out[j], out[i]
			}
		}
	}

	sc := &Script{Gzip: s.Gzip || s.TornTail}
	delivered := 0
	emit := func(l string) {
		b := make([]byte, 0, len(l)+1)
		b = append(b, l...)
		b = append(b, '\n')
		sc.Ops = append(sc.Ops, Op{Kind: OpWrite, Data: b})
		delivered++
		if s.RotateEveryLines > 0 && delivered%s.RotateEveryLines == 0 {
			sc.Ops = append(sc.Ops, Op{Kind: OpRotate})
		}
	}
	for _, l := range out {
		if r.hit(s.StallPerMille) {
			sc.Ops = append(sc.Ops, Op{Kind: OpStall})
		}
		mangled := l
		if len(mangled) > 0 && r.hit(s.TruncatePerMille) {
			mangled = mangled[:r.intn(len(mangled))]
		}
		if len(mangled) > 0 && r.hit(s.CorruptPerMille) {
			b := []byte(mangled)
			b[r.intn(len(b))] ^= byte(1 + r.intn(255))
			mangled = string(b)
		}
		emit(mangled)
		if r.hit(s.DuplicatePerMille) {
			emit(mangled)
		}
	}
	if sc.Gzip && s.TornTail {
		// Decide the cut now so the script stays a deterministic value: up
		// to 12 bytes off the end removes the trailer (8 bytes) and can bite
		// into the deflate stream.
		sc.TornCut = 1 + r.intn(12)
	}
	return sc
}

// gzipBytes renders the script's compressed stream (Gzip scripts only),
// already shortened by TornCut.
func (s *Script) gzipBytes() []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(s.Lines()); err != nil {
		panic("chaos: in-memory gzip write failed: " + err.Error())
	}
	if err := zw.Close(); err != nil {
		panic("chaos: in-memory gzip close failed: " + err.Error())
	}
	b := buf.Bytes()
	cut := s.TornCut
	if cut > len(b) {
		cut = len(b)
	}
	return b[:len(b)-cut]
}
