package canon

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// TestReaderRefuses: each rule of the encoding refuses the image that breaks
// it, with the rule named in the error.
func TestReaderRefuses(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
		want string
	}{
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "truncated or overlong varint"},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "truncated or overlong varint"},
		{"non-minimal varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, "non-minimal varint"},
		{"non-minimal zero", []byte{0x80, 0x00}, func(r *Reader) { r.Varint() }, "non-minimal varint"},
		{"truncated byte", nil, func(r *Reader) { r.Byte() }, "truncated"},
		{"count beyond the bytes left", []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(8) }, "count 3 exceeds the 16 bytes left"},
		{"string beyond the bytes left", []byte{4, 'a', 'b', 'c'}, func(r *Reader) { r.Bytes() }, "count 4 exceeds the 3 bytes left"},
		{"keys out of order", []byte{1, 'b', 1, 'a'}, func(r *Reader) { r.Key(r.Key("", true), false) }, `keys out of order ("a" after "b")`},
		{"repeated key", []byte{1, 'a', 1, 'a'}, func(r *Reader) { r.Key(r.Key("", true), false) }, `keys out of order ("a" after "a")`},
		{"short float", make([]byte, 7), func(r *Reader) { r.Float() }, "truncated"},
		{"trailing bytes", []byte{1, 2, 3}, func(r *Reader) { r.Byte() }, "2 trailing bytes"},
	}
	for _, tc := range cases {
		r := NewReader(tc.data)
		tc.read(r)
		if err := r.End(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: End() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestRoundTrip: every append helper, and the stdlib varint appenders the
// encoding uses, read back to the value written with nothing left over.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), nan, math.MaxFloat64}
	uints := []uint64{0, 1, 127, 128, 1 << 35, math.MaxUint64}
	ints := []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64}
	long := strings.Repeat("x", 300)

	var p []byte
	p = append(p, 0xa5)
	for _, u := range uints {
		p = binary.AppendUvarint(p, u)
	}
	for _, v := range ints {
		p = binary.AppendVarint(p, v)
	}
	for _, x := range floats {
		p = AppendFloat(p, x)
	}
	p = AppendBytes(p, nil)
	p = AppendBytes(p, []byte(long))
	p = AppendString(p, "")
	p = AppendString(p, "a--b")
	p = AppendString(p, "a--c")

	r := NewReader(p)
	if b := r.Byte(); b != 0xa5 {
		t.Errorf("Byte = %#x", b)
	}
	for _, u := range uints {
		if got := r.Uvarint(); got != u {
			t.Errorf("Uvarint = %d, want %d", got, u)
		}
	}
	for _, v := range ints {
		if got := r.Varint(); got != v {
			t.Errorf("Varint = %d, want %d", got, v)
		}
	}
	for _, x := range floats {
		if got := r.Float(); math.Float64bits(got) != math.Float64bits(x) {
			t.Errorf("Float = %x, want the bits %x", math.Float64bits(got), math.Float64bits(x))
		}
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("Bytes = %q, want empty", got)
	}
	if got := r.Bytes(); string(got) != long || cap(got) != len(got) {
		t.Errorf("Bytes = %d bytes with capacity %d, want the %d written, capped", len(got), cap(got), len(long))
	}
	prev := ""
	for i, want := range []string{"", "a--b", "a--c"} {
		if prev = r.Key(prev, i == 0); prev != want {
			t.Errorf("Key = %q, want %q", prev, want)
		}
	}
	if err := r.End(); err != nil {
		t.Fatalf("End = %v on a fully read image", err)
	}
}

// TestFailureLatches: after the first failure every read returns zero, the
// first error stands, and End reports it rather than the trailing bytes.
func TestFailureLatches(t *testing.T) {
	p := AppendFloat(AppendString(binary.AppendUvarint(nil, 5), "key"), 2.5)
	r := NewReader(append([]byte{0x80, 0x00}, p...))
	if v := r.Uvarint(); v != 0 || r.Err() == nil {
		t.Fatalf("non-minimal Uvarint = %d, %v; want 0 and a failure", v, r.Err())
	}
	first := r.Err()
	if v, b, n, s, k, x := r.Uvarint(), r.Byte(), r.Count(1), r.Bytes(), r.Key("", true), r.Float(); v != 0 || b != 0 || n != 0 || s != nil || k != "" || x != 0 {
		t.Errorf("reads after a failure returned %d, %d, %d, %q, %q, %g; want zeros", v, b, n, s, k, x)
	}
	r.Fail("a later failure")
	if err := r.End(); err != first {
		t.Errorf("End = %v, want the first failure %v", err, first)
	}
}
