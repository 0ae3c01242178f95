package modelstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logscape/internal/logmodel"
)

// testRecord builds a record with all fields populated.
func testRecord(bucket int64, model string) Record {
	start := logmodel.Millis(bucket * 1000)
	return Record{
		Bucket: bucket,
		Range:  logmodel.TimeRange{Start: start, End: start + 1000},
		Model:  []byte(model),
		Scores: []Score{{Key: "a--b", Value: 1.5}, {Key: "c--d", Value: -0.25}},
		Evidence: [][]byte{
			logmodel.AppendEntry(nil, logmodel.Entry{Time: start, Source: "app", Host: "h1", User: "u", Message: "hello"}),
			logmodel.AppendEntry(nil, logmodel.Entry{Time: start + 1, Source: "db", Host: "h2", Severity: logmodel.SevWarn, Message: "bye"}),
		},
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	recs := []Record{
		testRecord(0, `{"technique":"l1"}`+"\n"),
		testRecord(3, `{"technique":"l1","pairs":[{"a":"x","b":"y"}]}`+"\n"),
		{Bucket: 7, Range: logmodel.TimeRange{Start: 7000, End: 8000}, Model: []byte("m")},
	}
	path := filepath.Join(t.TempDir(), "raw-0.seg")
	if _, err := writeSegment(path, levelRaw, recs); err != nil {
		t.Fatal(err)
	}
	lv, got, err := readSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if lv != levelRaw {
		t.Fatalf("level = %d, want %d", lv, levelRaw)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestSegmentRoundTripIsByteStable(t *testing.T) {
	recs := []Record{testRecord(1, "doc1\n"), testRecord(2, "doc2\n")}
	img := encodeSegment(levelHour, recs)
	lv, got, err := decodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	img2 := encodeSegment(lv, got)
	if !bytes.Equal(img, img2) {
		t.Fatal("decode→re-encode changed the byte image")
	}
}

// TestSegmentRefusal pins the corruption policy: a damaged or truncated
// segment is refused outright, never partially read. The one exception — an
// incomplete last frame of the newest raw granule, which Open cuts back — is
// scanSegment's, and TestTornTailRepairedOnOpen's.
func TestSegmentRefusal(t *testing.T) {
	good := encodeSegment(levelRaw, []Record{testRecord(0, "doc\n"), testRecord(1, "doc2\n")})
	// Flip one byte inside the first record's payload: the CRC must catch it.
	flipped := append([]byte{}, good...)
	flipped[20] ^= 0x40
	// Oversized length prefix: must refuse before allocating.
	huge := append([]byte{}, good[:6]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", []byte{}},
		{"bad magic", append([]byte("NOPE"), good[4:]...)},
		{"bad version", append(append([]byte(segMagic), 99), good[5:]...)},
		{"bad level", append(append([]byte(segMagic), formatVersion, 42), good[6:]...)},
		{"header only truncated", good[:5]},
		{"mid frame truncated", good[:len(good)/2]},
		{"one byte short", good[:len(good)-1]},
		{"trailing garbage", append(append([]byte{}, good...), 1, 2, 3)},
		{"payload bit flip", flipped},
		{"huge length prefix", huge},
	}
	for _, tc := range cases {
		if _, _, err := decodeSegment(tc.data); err == nil {
			t.Errorf("%s: decode succeeded, want refusal", tc.name)
		}
	}
}

func TestSegmentRefusesUnsortedBucketsAndScores(t *testing.T) {
	// Buckets out of order across records.
	img := encodeSegment(levelRaw, []Record{testRecord(5, "a\n"), testRecord(3, "b\n")})
	if _, _, err := decodeSegment(img); err == nil {
		t.Error("out-of-order buckets accepted")
	}
	// Scores out of order within a record.
	r := testRecord(0, "a\n")
	r.Scores = []Score{{Key: "z", Value: 1}, {Key: "a", Value: 2}}
	img = encodeSegment(levelRaw, []Record{r})
	if _, _, err := decodeSegment(img); err == nil {
		t.Error("out-of-order scores accepted")
	}
}

func TestReadSegmentWrapsPathInError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "raw-00000000000000000000.seg")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := readSegment(path)
	if err == nil {
		t.Fatal("garbage file accepted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte(path)) {
		t.Fatalf("error %q does not name the file", err)
	}
}

// TestEncodeSegmentAllocatesOnce: a segment image is sized from its records
// before a byte is written — one allocation, filled exactly — however many
// evidence lines the records carry, and each record is framed where it
// lands rather than built aside and copied in.
func TestEncodeSegmentAllocatesOnce(t *testing.T) {
	r := testRecord(3, `{"technique":"l2"}`+"\n")
	for i := 0; i < 3000; i++ {
		r.Evidence = append(r.Evidence, logmodel.AppendEntry(nil, logmodel.Entry{
			Time: r.Range.Start + logmodel.Millis(i%1000), Source: "app", Host: "h1", Message: strings.Repeat("x", i%300),
		}))
	}
	recs := []Record{testRecord(1, "doc\n"), r}
	var img []byte
	if allocs := testing.AllocsPerRun(10, func() { img = encodeSegment(levelRaw, recs) }); allocs != 1 {
		t.Errorf("encodeSegment of a 3,000-line record allocates %.0f times, want 1", allocs)
	}
	if len(img) != cap(img) {
		t.Errorf("image is %d bytes in a %d-byte buffer; recordLen is not exact", len(img), cap(img))
	}
	if _, got, err := decodeSegment(img); err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("the image does not decode to its records: %v", err)
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63, 1<<64 - 1} {
		if got, want := uvarintLen(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Errorf("uvarintLen(%d) = %d, AppendUvarint writes %d bytes", x, got, want)
		}
	}
}
