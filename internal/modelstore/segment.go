package modelstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"

	"logscape/internal/canon"
	"logscape/internal/logmodel"
	"logscape/internal/stream"
)

// Segment file format (versioned; see DESIGN.md §14):
//
//	header:  "LSEG" | version byte | level byte
//	record:  u32le payload length | u32le CRC32-IEEE(payload) | payload
//	payload: uvarint bucket index
//	         uvarint range start (ms)      — pre-epoch streams are refused
//	         uvarint range width (ms)
//	         uvarint model length | model bytes (verbatim live document)
//	         uvarint score count  | per score: uvarint key length | key |
//	                                u64le IEEE-754 bits
//	         uvarint evidence count | per line: uvarint length | wire bytes
//
// The payload follows internal/canon's encoding (minimal varints, score
// keys strictly ascending, consumed exactly), so it has one byte image per
// record. The header carries no record count, so a header followed by
// frames appended one at a time is byte for byte what encodeSegment writes:
// the active raw granule grows by appended frames, and every other file is
// written whole via tmp+rename.
//
// Everything is length-prefixed and CRC-guarded, and damage is refused
// rather than salvaged: a bit-flipped or truncated file fails loudly at read
// time instead of yielding a silently shortened history. Refusal narrows by
// exactly one case. An append killed mid-write leaves the newest raw granule
// ending in an incomplete frame — its 8-byte frame header, or the payload
// that header names, runs past EOF — behind complete, CRC-valid frames, and
// the writer's Open cuts the file back to the last complete frame
// (scanSegment reports where it ends). That bucket was never checkpointed
// (the checkpoint is written after the append), so it is delivered again.
// A complete frame with a bad CRC, damage anywhere before the last frame,
// and damage to any other file are refused: a whole-file write leaves a
// verified previous version, and a granule's first frame is one.
const (
	segMagic      = "LSEG"
	formatVersion = 1

	// maxRecordLen bounds a single record's payload so a corrupt length
	// prefix cannot drive a multi-gigabyte allocation before the CRC check.
	maxRecordLen = 1 << 28
)

// Compaction levels, finest to coarsest. The numeric order is load-bearing:
// cleanup and compaction treat a higher level as superseding the lower
// levels it covers.
const (
	levelRaw = iota
	levelHour
	levelDay
	levelWeek
	numLevels
)

var levelNames = [numLevels]string{"raw", "hour", "day", "week"}

// Score is one per-key drift score attached to a record, as produced by
// the miners' feature stream (drift.PairKey / drift.DepKey key syntax).
// Records store scores sorted by key.
type Score struct {
	Key   string
	Value float64
}

// Record is one closed bucket's persisted state: the model document
// exactly as it was emitted live (byte-for-byte), the drift scores at
// that instant, and — at the raw level only — the bucket's entries as
// wire-format lines, which is what segment-backed resume replays.
type Record struct {
	Bucket   int64
	Range    logmodel.TimeRange
	Model    []byte
	Scores   []Score
	Evidence [][]byte
}

// appendRecord appends the framed encoding of r to dst. The payload is
// written where it lands: the 8-byte frame is reserved first and its length
// and CRC are filled in once the payload behind it is complete.
func appendRecord(dst []byte, r Record) []byte {
	frame := len(dst)
	p := append(dst, make([]byte, 8)...)
	p = binary.AppendUvarint(p, uint64(r.Bucket))
	p = binary.AppendUvarint(p, uint64(r.Range.Start))
	p = binary.AppendUvarint(p, uint64(r.Range.End-r.Range.Start))
	p = canon.AppendBytes(p, r.Model)
	p = binary.AppendUvarint(p, uint64(len(r.Scores)))
	for _, s := range r.Scores {
		p = canon.AppendFloat(canon.AppendString(p, s.Key), s.Value)
	}
	p = binary.AppendUvarint(p, uint64(len(r.Evidence)))
	for _, line := range r.Evidence {
		p = canon.AppendBytes(p, line)
	}
	payload := p[frame+8:]
	binary.LittleEndian.PutUint32(p[frame:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(p[frame+4:], crc32.ChecksumIEEE(payload))
	return p
}

// recordLen is the length of appendRecord's output for r, so that a segment
// image is allocated once at its final size.
func recordLen(r Record) int {
	n := 8 + uvarintLen(uint64(r.Bucket)) + uvarintLen(uint64(r.Range.Start)) +
		uvarintLen(uint64(r.Range.End-r.Range.Start)) +
		uvarintLen(uint64(len(r.Model))) + len(r.Model) +
		uvarintLen(uint64(len(r.Scores))) + uvarintLen(uint64(len(r.Evidence)))
	for _, s := range r.Scores {
		n += uvarintLen(uint64(len(s.Key))) + len(s.Key) + 8
	}
	for _, line := range r.Evidence {
		n += uvarintLen(uint64(len(line))) + len(line)
	}
	return n
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// validRecord reports whether r is storable: non-negative times (the file
// name and varint encodings both assume them), a non-empty forward range,
// and a non-empty model document.
func validRecord(r Record) error {
	switch {
	case r.Bucket < 0:
		return fmt.Errorf("modelstore: negative bucket index %d", r.Bucket)
	case r.Range.Start < 0:
		return fmt.Errorf("modelstore: pre-epoch record start %d", r.Range.Start)
	case r.Range.End <= r.Range.Start:
		return fmt.Errorf("modelstore: empty record range [%d,%d)", r.Range.Start, r.Range.End)
	case len(r.Model) == 0:
		return fmt.Errorf("modelstore: record for bucket %d has no model document", r.Bucket)
	}
	return nil
}

// parseRecord decodes one record payload (the CRC has already been
// verified) by internal/canon's rules: every length is checked against the
// remaining bytes before slicing, varints must be minimal, score keys
// strictly ascending, and the payload must be consumed exactly.
func parseRecord(p []byte) (Record, error) {
	r := canon.NewReader(p)
	bucket, start := r.Uvarint(), r.Uvarint()
	rec := Record{
		Bucket: int64(bucket),
		Range:  logmodel.TimeRange{Start: logmodel.Millis(start), End: logmodel.Millis(start + r.Uvarint())},
		Model:  r.Bytes(),
	}
	prev := ""
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		prev = r.Key(prev, i == 0)
		rec.Scores = append(rec.Scores, Score{Key: prev, Value: r.Float()})
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		rec.Evidence = append(rec.Evidence, r.Bytes())
	}
	if err := r.End(); err != nil {
		return rec, fmt.Errorf("modelstore: record: %w", err)
	}
	return rec, validRecord(rec)
}

// encodeSegment builds the full byte image of a segment file.
func encodeSegment(level int, recs []Record) []byte {
	n := len(segMagic) + 2
	for _, r := range recs {
		n += recordLen(r)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, segMagic...)
	buf = append(buf, formatVersion, byte(level))
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// decodeSegment parses a full segment file image, verifying the header,
// every record's CRC, and that bucket indexes are strictly increasing.
func decodeSegment(data []byte) (level int, recs []Record, err error) {
	level, recs, n, err := scanSegment(data)
	if err == nil && n < len(data) {
		err = fmt.Errorf("modelstore: truncated record frame (%d bytes left after byte %d)", len(data)-n, n)
	}
	if err != nil {
		return 0, nil, err
	}
	return level, recs, nil
}

// scanSegment parses a segment image as decodeSegment does, except that an
// incomplete final frame — its header, or the payload its length names,
// runs past the end of data — ends the scan instead of failing it: n is the
// length of the header and the complete frames before it, which decode to
// recs. Any other damage is an error.
func scanSegment(data []byte) (level int, recs []Record, n int, err error) {
	if len(data) < len(segMagic)+2 || string(data[:len(segMagic)]) != segMagic {
		return 0, nil, 0, fmt.Errorf("modelstore: not a segment file (bad magic)")
	}
	if v := data[len(segMagic)]; v != formatVersion {
		return 0, nil, 0, fmt.Errorf("modelstore: segment format version %d, want %d", v, formatVersion)
	}
	level = int(data[len(segMagic)+1])
	if level < 0 || level >= numLevels {
		return 0, nil, 0, fmt.Errorf("modelstore: unknown segment level %d", level)
	}
	n = len(segMagic) + 2
	last := int64(-1)
	for n+8 <= len(data) {
		size := binary.LittleEndian.Uint32(data[n:])
		sum := binary.LittleEndian.Uint32(data[n+4:])
		if size > maxRecordLen {
			return 0, nil, 0, fmt.Errorf("modelstore: record length %d exceeds cap %d", size, maxRecordLen)
		}
		if uint64(size) > uint64(len(data)-n-8) {
			break // the payload runs past the end: an incomplete frame
		}
		payload := data[n+8 : n+8+int(size)]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return 0, nil, 0, fmt.Errorf("modelstore: record CRC mismatch (%08x, want %08x)", got, sum)
		}
		r, err := parseRecord(payload)
		if err != nil {
			return 0, nil, 0, err
		}
		if r.Bucket <= last {
			return 0, nil, 0, fmt.Errorf("modelstore: record buckets out of order (%d after %d)", r.Bucket, last)
		}
		last = r.Bucket
		recs = append(recs, r)
		n += 8 + int(size)
	}
	return level, recs, n, nil
}

// writeSegment atomically persists a segment file and returns its size.
func writeSegment(path string, level int, recs []Record) (int, error) {
	data := encodeSegment(level, recs)
	return len(data), stream.WriteFileAtomic(path, data)
}

// readSegment loads and verifies one segment file.
func readSegment(path string) (int, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	level, recs, err := decodeSegment(data)
	if err != nil {
		return 0, nil, fmt.Errorf("modelstore: %s: %w", path, err)
	}
	return level, recs, nil
}
