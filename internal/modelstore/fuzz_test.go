package modelstore

import (
	"bytes"
	"testing"

	"logscape/internal/logmodel"
)

// FuzzSegmentRoundTrip feeds arbitrary bytes to the segment decoder. The
// decoder must never panic; whatever it accepts must re-encode to the
// exact same byte image and decode again to the same records — the codec
// has one canonical form, so accept→encode is the identity on accepted
// inputs.
func FuzzSegmentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSegment(levelRaw, nil))
	f.Add(encodeSegment(levelRaw, []Record{testRecord(0, "doc\n")}))
	f.Add(encodeSegment(levelWeek, []Record{testRecord(2, "a\n"), testRecord(9, "b\n")}))
	long := testRecord(1, "{\"technique\":\"l1\"}\n")
	long.Scores = append(long.Scores, Score{Key: "x--y", Value: 2.25})
	f.Add(encodeSegment(levelHour, []Record{long}))
	f.Fuzz(func(t *testing.T, data []byte) {
		level, recs, err := decodeSegment(data)
		if err != nil {
			return
		}
		img := encodeSegment(level, recs)
		if !bytes.Equal(img, data) {
			t.Fatalf("accepted image is not canonical:\n in  %x\n out %x", data, img)
		}
		level2, recs2, err := decodeSegment(img)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if level2 != level || len(recs2) != len(recs) {
			t.Fatalf("re-decode changed shape: %d/%d records, level %d/%d", len(recs), len(recs2), level, level2)
		}
	})
}

// FuzzSegmentAppend pins the construction argument the store's frame
// appends rest on, for arbitrary records (one per NUL-separated part of
// data, each part its model's tail, its score key and its evidence words):
// a segment header followed by each record's appendRecord frame in turn is
// encodeSegment's image byte for byte, and every cut inside the last frame
// is refused by decodeSegment and read by scanSegment — the torn-tail
// reader — as exactly encodeSegment of the records before it.
func FuzzSegmentAppend(f *testing.F) {
	f.Add(uint8(levelRaw), []byte("doc\n"), int64(0), uint16(1000), 1.5)
	f.Add(uint8(levelRaw), []byte("a\x00b c\x00{\"technique\":\"l2\"}\n"), int64(7), uint16(300), -0.25)
	f.Add(uint8(levelWeek), []byte("\x00\x00x"), int64(1<<35), uint16(1), 0.0)
	f.Fuzz(func(t *testing.T, level uint8, data []byte, first int64, width uint16, score float64) {
		if first < 0 || width == 0 || len(data) > 1<<10 {
			return
		}
		first %= 1 << 40
		var recs []Record
		for i, part := range bytes.Split(data, []byte{0}) {
			start := logmodel.Millis(first) + logmodel.Millis(i)*logmodel.Millis(width)
			recs = append(recs, Record{
				Bucket:   first + int64(i),
				Range:    logmodel.TimeRange{Start: start, End: start + logmodel.Millis(width)},
				Model:    append([]byte("m"), part...),
				Scores:   []Score{{Key: string(part), Value: score}},
				Evidence: bytes.Fields(part),
			})
		}
		lv := int(level % numLevels)
		img := encodeSegment(lv, recs)
		framed := append([]byte(segMagic), formatVersion, byte(lv))
		for _, r := range recs {
			framed = appendRecord(framed, r)
		}
		if !bytes.Equal(framed, img) {
			t.Fatalf("header + appended frames differ from encodeSegment:\n frames %x\n whole  %x", framed, img)
		}
		if _, got, err := decodeSegment(img); err != nil || len(got) != len(recs) {
			t.Fatalf("the whole image decodes to %d of %d records: %v", len(got), len(recs), err)
		}
		before := encodeSegment(lv, recs[:len(recs)-1])
		for cut := len(before) + 1; cut < len(img); cut++ {
			if _, _, err := decodeSegment(img[:cut]); err == nil {
				t.Fatalf("decodeSegment accepted a cut at %d inside the last frame [%d, %d)", cut, len(before), len(img))
			}
			gotLevel, got, n, err := scanSegment(img[:cut])
			if err != nil || gotLevel != lv || n != len(before) || !bytes.Equal(encodeSegment(gotLevel, got), before) {
				t.Fatalf("scanSegment of a cut at %d = level %d, %d records, %d bytes, %v; want the %d bytes before the last frame",
					cut, gotLevel, len(got), n, err, len(before))
			}
		}
	})
}
