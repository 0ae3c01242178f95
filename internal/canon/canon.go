// Package canon is the canonical binary encoding the durable state shares:
// the model store's segment records (DESIGN.md §14) and the drift
// detector's resume image (§13). The rules are the ones both formats rely on
// for "one value, one byte image":
//
//   - unsigned integers are minimal uvarints, signed ones zig-zag varints
//     (binary.AppendUvarint / binary.AppendVarint write them);
//   - byte strings are a uvarint length followed by the bytes;
//   - floats are the u64le IEEE-754 bits, so NaN payloads, infinities and −0
//     survive exactly;
//   - table keys are strictly ascending;
//   - an image is consumed exactly: trailing bytes are refused.
//
// The append helpers write that encoding; Reader refuses everything the
// helpers would not have written, so decode(encode(x)) = x and
// encode(decode(p)) = p on every accepted p. Field layouts stay with the
// formats that own them.
package canon

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b's uvarint length and then b.
func AppendBytes(p, b []byte) []byte {
	return append(binary.AppendUvarint(p, uint64(len(b))), b...)
}

// AppendString appends s's uvarint length and then s.
func AppendString(p []byte, s string) []byte {
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// AppendFloat appends the u64le IEEE-754 bits of x.
func AppendFloat(p []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(x))
}

// Reader decodes a canonical image front to back. The first failure latches
// in Err and every later read returns zero, so a caller checks once per
// table entry instead of once per field.
type Reader struct {
	p   []byte
	err error
}

// NewReader returns a Reader over p. Bytes hands out aliases of p.
func NewReader(p []byte) *Reader { return &Reader{p: p} }

// Fail latches a failure (the first one wins) and ends the image.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.p = nil
}

// Err is the latched failure, or nil.
func (r *Reader) Err() error { return r.err }

// End refuses bytes left after the image and returns the latched failure.
func (r *Reader) End() error {
	if r.err == nil && len(r.p) != 0 {
		r.Fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.p) == 0 {
		r.Fail("truncated")
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

// Uvarint reads a uvarint and refuses a non-minimal one.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	switch {
	case n <= 0:
		r.Fail("truncated or overlong varint")
		return 0
	case n > 1 && v>>(7*(n-1)) == 0:
		r.Fail("non-minimal varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count and refuses one the remaining bytes cannot
// hold at min bytes per element — before anything is sized from it.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if n > uint64(len(r.p)/min) {
		r.Fail("count %d exceeds the %d bytes left", n, len(r.p))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string. The result aliases the image,
// capped at its length so that appending to it cannot overwrite what
// follows.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

// Key reads a length-prefixed table key, which must sort strictly after
// prev unless it is the table's first.
func (r *Reader) Key(prev string, first bool) string {
	key := string(r.Bytes())
	if r.err == nil && !first && key <= prev {
		r.Fail("keys out of order (%q after %q)", key, prev)
	}
	return key
}

// Float reads the u64le IEEE-754 bits of a float.
func (r *Reader) Float() float64 {
	if len(r.p) < 8 {
		r.Fail("truncated")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return x
}
