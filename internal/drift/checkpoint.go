package drift

import (
	"encoding/binary"
	"fmt"
	"sort"

	"logscape/internal/canon"
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
// Keys, varints and f64s follow internal/canon's encoding (keys strictly
// ascending within each table, varints minimal and zig-zag, f64 the IEEE-754
// bits); with fields in fixed order and no flag bit outside the four, one
// detector state has exactly one byte image and Restore accepts nothing
// State would not have written. That is what the resume-equivalence and
// checkpoint property tests pin.
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
		p = canon.AppendString(p, key)
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
		p = canon.AppendFloat(p, st.Rate)
		p = canon.AppendFloat(p, st.RunRate)
		p = binary.AppendVarint(p, st.SeenBuckets)
	}

	p, d.keys = appendKeys(p, d.keys, d.scores)
	for _, key := range d.keys {
		ss := d.scores[key]
		p = canon.AppendString(p, key)
		p = appendFloats(p, ss.Ring)
		p = canon.AppendFloat(p, ss.Pos)
		p = canon.AppendFloat(p, ss.Neg)
		p = binary.AppendVarint(p, ss.PosOnset)
		p = binary.AppendVarint(p, ss.NegOnset)
		p = binary.AppendVarint(p, int64(ss.Idle))
	}

	p, d.keys = appendKeys(p, d.keys, d.delays)
	for _, key := range d.keys {
		ds := d.delays[key]
		p = canon.AppendString(p, key)
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

func appendFloats(p []byte, xs []float64) []byte {
	p = binary.AppendUvarint(p, uint64(len(xs)))
	for _, x := range xs {
		p = canon.AppendFloat(p, x)
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

func readFloats(r *canon.Reader) []float64 {
	n := r.Count(8)
	if n == 0 {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float()
	}
	return xs
}

func readSamples(r *canon.Reader) [][]float64 {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	samples := make([][]float64, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		samples = append(samples, readFloats(r))
	}
	return samples
}

// Restore rebuilds a detector from serialized state. cfg must match the
// configuration the state was taken under; the caller owns that contract
// (the state carries runs and references, not thresholds). Every length is
// checked against the bytes left and the image must be consumed exactly.
func Restore(cfg Config, data []byte) (*Detector, error) {
	r := canon.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != stateVersion {
		return nil, fmt.Errorf("drift: state version %d, want %d", v, stateVersion)
	}
	d := NewDetector(cfg)
	d.seq = r.Varint()

	prev := ""
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		prev = r.Key(prev, i == 0)
		flags := r.Byte()
		if flags >= 1<<4 {
			r.Fail("unknown presence flags %#x", flags)
		}
		d.presence[prev] = &presenceState{
			Confirmed: flags&1 != 0, WarmStart: flags&2 != 0,
			Flickered: flags&4 != 0, EverConfirmed: flags&8 != 0,
			RunPresent: int(r.Varint()), RunAbsent: int(r.Varint()), RunStart: r.Varint(),
			Rate: r.Float(), RunRate: r.Float(), SeenBuckets: r.Varint(),
		}
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		prev = r.Key(prev, i == 0)
		d.scores[prev] = &scoreState{
			Ring: readFloats(r), Pos: r.Float(), Neg: r.Float(),
			PosOnset: r.Varint(), NegOnset: r.Varint(), Idle: int(r.Varint()),
		}
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		prev = r.Key(prev, i == 0)
		d.delays[prev] = &delayState{
			Ref: readSamples(r), Idle: int(r.Varint()), Pending: int(r.Varint()),
			PendingOnset: r.Varint(), Held: readSamples(r), Pool: readSamples(r),
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("drift: state: %w", err)
	}
	return d, nil
}
