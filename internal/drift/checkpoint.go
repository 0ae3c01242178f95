package drift

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Detector state wire format (versioned; see DESIGN.md §13):
//
//	state:    version byte
//	          varint seq
//	          uvarint count | per key: uvarint key length | key | presence
//	          uvarint count | per key: uvarint key length | key | score
//	          uvarint count | per key: uvarint key length | key | delay
//	presence: flags byte (1 Confirmed, 2 WarmStart, 4 Flickered, 8 EverConfirmed)
//	          varint RunPresent | varint RunAbsent | varint RunStart
//	          f64 Rate | f64 RunRate | varint SeenBuckets
//	score:    floats Ring | f64 Pos | f64 Neg
//	          varint PosOnset | varint NegOnset | varint Idle
//	delay:    samples Ref | varint Idle | varint Pending | varint PendingOnset
//	          samples Held | samples Pool
//	samples:  uvarint count | per sample: floats
//	floats:   uvarint count | per value: f64
//
// varint is the zig-zag form, f64 the u64le IEEE-754 bits (so NaN payloads,
// infinities and −0 survive exactly). The encoding is canonical — keys
// strictly ascending within each table, fields in fixed order, varints
// minimal, no flag bit outside the four — so one detector state has exactly
// one byte image and Restore accepts nothing State would not have written.
// That is what the resume-equivalence and checkpoint property tests pin.
const stateVersion = 2

// State serializes the detector's full state. Feeding a detector restored
// from this state the remaining observations yields byte-identical alerts
// (and byte-identical subsequent states) to the uninterrupted run. The
// returned slice is the caller's.
func (d *Detector) State() ([]byte, error) {
	p := append(d.buf[:0], stateVersion)
	p = binary.AppendVarint(p, d.seq)

	p, d.keys = appendKeys(p, d.keys, d.presence)
	for _, key := range d.keys {
		st := d.presence[key]
		p = appendKey(p, key)
		var flags byte
		for i, set := range [...]bool{st.Confirmed, st.WarmStart, st.Flickered, st.EverConfirmed} {
			if set {
				flags |= 1 << i
			}
		}
		p = append(p, flags)
		p = binary.AppendVarint(p, int64(st.RunPresent))
		p = binary.AppendVarint(p, int64(st.RunAbsent))
		p = binary.AppendVarint(p, st.RunStart)
		p = appendFloat(p, st.Rate)
		p = appendFloat(p, st.RunRate)
		p = binary.AppendVarint(p, st.SeenBuckets)
	}

	p, d.keys = appendKeys(p, d.keys, d.scores)
	for _, key := range d.keys {
		ss := d.scores[key]
		p = appendKey(p, key)
		p = appendFloats(p, ss.Ring)
		p = appendFloat(p, ss.Pos)
		p = appendFloat(p, ss.Neg)
		p = binary.AppendVarint(p, ss.PosOnset)
		p = binary.AppendVarint(p, ss.NegOnset)
		p = binary.AppendVarint(p, int64(ss.Idle))
	}

	p, d.keys = appendKeys(p, d.keys, d.delays)
	for _, key := range d.keys {
		ds := d.delays[key]
		p = appendKey(p, key)
		p = appendSamples(p, ds.Ref)
		p = binary.AppendVarint(p, int64(ds.Idle))
		p = binary.AppendVarint(p, int64(ds.Pending))
		p = binary.AppendVarint(p, ds.PendingOnset)
		p = appendSamples(p, ds.Held)
		p = appendSamples(p, ds.Pool)
	}

	d.buf = p
	return append([]byte(nil), p...), nil
}

// appendKeys appends a table's entry count to p and returns the table's keys,
// sorted, in the reused scratch slice.
func appendKeys[V any](p []byte, keys []string, m map[string]V) ([]byte, []string) {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return binary.AppendUvarint(p, uint64(len(keys))), keys
}

func appendKey(p []byte, key string) []byte {
	return append(binary.AppendUvarint(p, uint64(len(key))), key...)
}

func appendFloat(p []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(x))
}

func appendFloats(p []byte, xs []float64) []byte {
	p = binary.AppendUvarint(p, uint64(len(xs)))
	for _, x := range xs {
		p = appendFloat(p, x)
	}
	return p
}

func appendSamples(p []byte, samples [][]float64) []byte {
	p = binary.AppendUvarint(p, uint64(len(samples)))
	for _, xs := range samples {
		p = appendFloats(p, xs)
	}
	return p
}

// stateReader decodes a state image front to back. The first failure
// latches in err and every later read returns zero, so Restore checks once
// per table entry instead of once per field.
type stateReader struct {
	p   []byte
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("drift: state: "+format, args...)
	}
	r.p = nil
}

func (r *stateReader) byte() byte {
	if len(r.p) == 0 {
		r.fail("truncated")
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *stateReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	switch {
	case n <= 0:
		r.fail("truncated or overlong varint")
		return 0
	case n > 1 && v>>(7*(n-1)) == 0:
		r.fail("non-minimal varint")
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *stateReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads an element count and refuses one the remaining bytes cannot
// hold at min bytes per element — before anything is sized from it.
func (r *stateReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.p)/min) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.p))
		return 0
	}
	return int(n)
}

// key reads one table key, which must sort strictly after prev.
func (r *stateReader) key(prev string, first bool) string {
	n := r.count(1)
	key := string(r.p[:n])
	r.p = r.p[n:]
	if r.err == nil && !first && key <= prev {
		r.fail("keys out of order (%q after %q)", key, prev)
	}
	return key
}

func (r *stateReader) float() float64 {
	if len(r.p) < 8 {
		r.fail("truncated")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	r.p = r.p[8:]
	return x
}

func (r *stateReader) floats() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.float()
	}
	return xs
}

func (r *stateReader) samples() [][]float64 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	samples := make([][]float64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		samples = append(samples, r.floats())
	}
	return samples
}

// Restore rebuilds a detector from serialized state. cfg must match the
// configuration the state was taken under; the caller owns that contract
// (the state carries runs and references, not thresholds). Every length is
// checked against the bytes left and the image must be consumed exactly.
func Restore(cfg Config, data []byte) (*Detector, error) {
	r := &stateReader{p: data}
	if v := r.byte(); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("drift: state version %d, want %d", v, stateVersion)
	}
	d := NewDetector(cfg)
	d.seq = r.varint()

	prev := ""
	for i, n := 0, r.count(1); i < n && r.err == nil; i++ {
		prev = r.key(prev, i == 0)
		flags := r.byte()
		if flags >= 1<<4 {
			r.fail("unknown presence flags %#x", flags)
		}
		d.presence[prev] = &presenceState{
			Confirmed: flags&1 != 0, WarmStart: flags&2 != 0,
			Flickered: flags&4 != 0, EverConfirmed: flags&8 != 0,
			RunPresent: int(r.varint()), RunAbsent: int(r.varint()), RunStart: r.varint(),
			Rate: r.float(), RunRate: r.float(), SeenBuckets: r.varint(),
		}
	}
	for i, n := 0, r.count(1); i < n && r.err == nil; i++ {
		prev = r.key(prev, i == 0)
		d.scores[prev] = &scoreState{
			Ring: r.floats(), Pos: r.float(), Neg: r.float(),
			PosOnset: r.varint(), NegOnset: r.varint(), Idle: int(r.varint()),
		}
	}
	for i, n := 0, r.count(1); i < n && r.err == nil; i++ {
		prev = r.key(prev, i == 0)
		d.delays[prev] = &delayState{
			Ref: r.samples(), Idle: int(r.varint()), Pending: int(r.varint()),
			PendingOnset: r.varint(), Held: r.samples(), Pool: r.samples(),
		}
	}
	if r.err == nil && len(r.p) != 0 {
		r.fail("%d trailing bytes", len(r.p))
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}
