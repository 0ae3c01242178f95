package logmodel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// unsafeStringData exposes a string's backing pointer so the tests can
// assert that interned values share storage, not just content.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// The tests here pin the two contracts wirebytes.go lives by: byte-for-byte
// equivalence with the string-based wire functions, and zero steady-state
// allocations per entry. DESIGN.md §12 documents both.

// wireLines is the differential corpus: canonical lines, every escape form,
// non-UTF-8 bytes, exotic-but-legal timestamps, and a malformed line per
// error class.
var wireLines = []string{
	"2005-12-06T08:00:00.000Z\tDPIFormidoc\tws-034\tu0117\tINFO\topen form F-207",
	"2005-12-06T08:00:00.250Z\tMEDFolder\tws-034\tu0117\tDEBUG\tfetch folder 88213",
	"2005-12-06T08:00:01.000Z\tADTCore\tsrv-01\t\tWARN\tqueue depth 17",
	"2005-12-06T08:00:01.000Z\tADTCore\tsrv-01\t\tERROR\t",
	"2005-12-06T08:00:01.000Z\tADTCore\tsrv-01\t\tFATAL\tdown",
	"1999-12-31T23:59:59.999Z\tY2K\th\tu\tINFO\tboundary",
	"2000-02-29T12:00:00.000Z\tLeap\th\tu\tINFO\tleap day",
	"2005-12-06T08:00:00.000+01:00\tOffset\th\tu\tINFO\tpositive offset",
	"2005-12-06T08:00:00.000-09:30\tOffset\th\tu\tINFO\tnegative offset",
	"0001-01-01T00:00:00.000Z\tAncient\th\tu\tINFO\tyear one",
	"9999-12-31T23:59:59.999Z\tFar\th\tu\tINFO\tlast representable formatted year",
	"2005-12-06T08:00:00.000Z\tEsc\th\tu\tINFO\ttab\\there",
	"2005-12-06T08:00:00.000Z\tEsc\th\tu\tINFO\tnew\\nline and \\\\ backslash and \\r",
	"2005-12-06T08:00:00.000Z\tEsc\th\tu\tINFO\tbad escape \\x kept",
	"2005-12-06T08:00:00.000Z\tEsc\th\tu\tINFO\ttrailing backslash \\",
	"2005-12-06T08:00:00.000Z\tBin\th\tu\tINFO\tnon-utf8 \xff\xfe bytes",
	"2005-12-06T08:00:00.000Z\t\xffSrc\t\xfeH\t\xfdU\tINFO\tnon-utf8 fields",
	// Malformed: field-count, timestamp, severity, empty source.
	"2005-12-06T08:00:00.000Z\tonly\tfive\tfields\tINFO",
	"not-a-timestamp\ts\th\tu\tINFO\tmsg",
	"2005-13-06T08:00:00.000Z\ts\th\tu\tINFO\tbad month",
	"2005-02-29T08:00:00.000Z\ts\th\tu\tINFO\tbad leap day",
	"2005-12-06T08:00:60.000Z\ts\th\tu\tINFO\tbad second",
	"2005-12-06T08:00:00,000Z\ts\th\tu\tINFO\tcomma fraction",
	"2005-12-06T08:00:00.000+25:00\ts\th\tu\tINFO\tout-of-range offset hour",
	"2005-12-06T08:00:00.000Z\ts\th\tu\tNOTICE\tunknown severity",
	"2005-12-06T08:00:00.000Z\t\th\tu\tINFO\tempty source",
	"",
	"\t\t\t\t\t",
}

// TestParseEntryBytesDifferential pins ParseEntryBytes, with and without an
// Intern, to ParseEntry: the same Entry on success, an error for exactly the
// same inputs with the same message. The two paths unescape independently
// (arena unescapeAppend against the string reference unescapeMessage).
func TestParseEntryBytesDifferential(t *testing.T) {
	it := NewIntern()
	for _, line := range wireLines {
		want, wantErr := ParseEntry(line)

		interned := []byte(line)
		got, gotErr := ParseEntryBytes(interned, it)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("intern mode disagreement on %q: ParseEntry err %v, ParseEntryBytes err %v",
				line, wantErr, gotErr)
		}
		if wantErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("error text differs on %q:\n ParseEntry:      %v\n ParseEntryBytes: %v",
				line, wantErr, gotErr)
		}
		if wantErr == nil && got != want {
			t.Fatalf("intern mode entry differs on %q:\n want %+v\n got  %+v", line, want, got)
		}
		if string(interned) != line {
			t.Fatalf("intern mode modified its input: %q -> %q", line, interned)
		}

		plain := []byte(line)
		got, gotErr = ParseEntryBytes(plain, nil)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("nil-Intern disagreement on %q: %v vs %v", line, wantErr, gotErr)
		}
		if wantErr == nil && got != want {
			t.Fatalf("nil-Intern entry differs on %q:\n want %+v\n got  %+v", line, want, got)
		}
		if string(plain) != line {
			t.Fatalf("nil-Intern parse modified its input: %q -> %q", line, plain)
		}
	}
}

// TestParseEntryBytesIntoMatches pins the pointer variant to the value
// variant, including the reused-variable case where stale fields must be
// overwritten.
func TestParseEntryBytesIntoMatches(t *testing.T) {
	it := NewIntern()
	e := Entry{Source: "stale", Host: "stale", User: "stale", Message: "stale", Severity: SevError, Time: 42}
	for _, line := range wireLines {
		want, wantErr := ParseEntryBytes([]byte(line), it)
		err := ParseEntryBytesInto(&e, []byte(line), it)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Into disagreement on %q: %v vs %v", line, wantErr, err)
		}
		if err == nil && e != want {
			t.Fatalf("Into entry differs on %q:\n want %+v\n got  %+v", line, want, e)
		}
	}
}

// TestAppendEntryDifferential pins AppendEntry to the fmt-based formatting
// FormatEntry historically produced, reimplemented here as the reference.
func TestAppendEntryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := []Entry{
		{Time: 0, Source: "s", Host: "h", User: "u", Severity: SevInfo, Message: "m"},
		{Time: -1, Source: "s", Severity: SevDebug},
		{Time: 1133856000000, Source: "a b", Host: "h/h", User: "", Severity: SevError,
			Message: "tab\there new\nline \\ cr\r end"},
		{Time: 1133856000000, Source: "s", Severity: Severity(200), Message: "unknown severity"},
		{Time: -62135596800000, Source: "s", Severity: SevWarn, Message: "year 1"},
		{Time: 253402300799999, Source: "s", Severity: SevWarn, Message: "year 9999"},
		{Time: 253402300800000, Source: "s", Severity: SevWarn, Message: "year 10000: formatter fallback"},
		{Time: -62167219200001, Source: "s", Severity: SevWarn, Message: "before year 0: formatter fallback"},
	}
	for i := 0; i < 200; i++ {
		es = append(es, Entry{
			Time:     Millis(rng.Int63n(2*253402300800000) - 253402300800000),
			Source:   "src",
			Severity: SevInfo,
			Message:  "m",
		})
	}
	for _, e := range es {
		sev := e.Severity.String()
		want := fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s",
			e.Time.Time().Format(TimeLayout), e.Source, e.Host, e.User, sev, escapeMessage(e.Message))
		got := string(AppendEntry(nil, e))
		if got != want {
			t.Fatalf("AppendEntry differs for %+v:\n want %q\n got  %q", e, want, got)
		}
		if f := FormatEntry(e); f != want {
			t.Fatalf("FormatEntry differs for %+v:\n want %q\n got  %q", e, want, f)
		}
	}
}

// TestWireTimeCodecDifferential sweeps the fixed-layout timestamp codec
// against the time package on random and boundary instants.
func TestWireTimeCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ms := []int64{0, -1, 1, -62167219200000, 253402300799999, 951826154321, -10, 86400000}
	for i := 0; i < 5000; i++ {
		ms = append(ms, rng.Int63n(2*253402300800000)-253402300800000)
	}
	for _, m := range ms {
		want := Millis(m).Time().Format(TimeLayout)
		got := string(appendWireTime(nil, Millis(m)))
		if got != want {
			t.Fatalf("appendWireTime(%d) = %q, want %q", m, got, want)
		}
		// Round-trip through the strict parser for the canonical 24-byte
		// form; years outside [0, 9999] format with a sign prefix, which the
		// strict parser correctly leaves to the time.Parse fallback.
		if len(want) == 24 {
			back, ok := parseWireTime([]byte(want))
			if !ok {
				t.Fatalf("parseWireTime rejected its own formatter's output %q", want)
			}
			if back != Millis(m) {
				t.Fatalf("parseWireTime(%q) = %d, want %d", want, back, m)
			}
		}
	}
	// Offset forms: the parser must agree with time.Parse.
	for _, s := range []string{
		"2005-12-06T08:00:00.000+01:00",
		"2005-12-06T08:00:00.000-09:30",
		"2005-12-06T08:00:00.000+23:59",
	} {
		want, err := time.Parse(TimeLayout, s)
		if err != nil {
			t.Fatalf("time.Parse(%q): %v", s, err)
		}
		got, ok := parseWireTime([]byte(s))
		if !ok {
			t.Fatalf("parseWireTime rejected %q", s)
		}
		if got != FromTime(want) {
			t.Fatalf("parseWireTime(%q) = %d, want %d", s, got, FromTime(want))
		}
	}
}

// TestInternDedup checks that repeated values share one interned copy and
// that the table cap degrades to per-occurrence copies, not errors.
func TestInternDedup(t *testing.T) {
	it := NewIntern()
	a := it.Bytes([]byte("DPIFormidoc"))
	b := it.Bytes([]byte("DPIFormidoc"))
	if a != b {
		t.Fatalf("interned values differ: %q vs %q", a, b)
	}
	// Same backing pointer, not just equal content.
	if unsafeStringData(a) != unsafeStringData(b) {
		t.Fatal("interned copies do not share storage")
	}
	if got := it.Bytes(nil); got != "" {
		t.Fatalf("interning empty bytes = %q, want \"\"", got)
	}
	s1, h1, u1 := it.triple([]byte("s\th\tu"), []byte("s"), []byte("h"), []byte("u"))
	s2, h2, u2 := it.triple([]byte("s\th\tu"), []byte("s"), []byte("h"), []byte("u"))
	if s1 != s2 || h1 != h2 || u1 != u2 {
		t.Fatal("triple intern returned different values for the same key")
	}
	if unsafeStringData(s1) != unsafeStringData(s2) {
		t.Fatal("triple-interned source does not share storage")
	}
}

// TestInternDurability checks the headline ownership property: entries
// parsed in intern mode stay intact after the input buffer is reused.
func TestInternDurability(t *testing.T) {
	it := NewIntern()
	buf := []byte("2005-12-06T08:00:00.000Z\tSrc\tHost\tUser\tINFO\ta message with \\t escape")
	e, err := ParseEntryBytes(buf, it)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if e.Source != "Src" || e.Host != "Host" || e.User != "User" || e.Message != "a message with \t escape" {
		t.Fatalf("interned entry corrupted by buffer reuse: %+v", e)
	}
}

// TestNilInternDurability pins durability as the only parse contract: with
// no Intern the entry is made of plain copies, so overwriting the buffer
// leaves it intact, and the parse itself never writes to the buffer — not
// even to unescape the message.
func TestNilInternDurability(t *testing.T) {
	const orig = "2005-12-06T08:00:00.000Z\tSrc\tHost\tUser\tINFO\ta message with \\t escape"
	buf := []byte(orig)
	var e Entry
	if err := ParseEntryBytesInto(&e, buf, nil); err != nil {
		t.Fatal(err)
	}
	if string(buf) != orig {
		t.Fatalf("nil-Intern parse modified its input: %q", buf)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	want := Entry{Time: e.Time, Source: "Src", Host: "Host", User: "User", Severity: SevInfo,
		Message: "a message with \t escape"}
	if e != want {
		t.Fatalf("nil-Intern entry corrupted by buffer reuse: %+v", e)
	}
}

// TestUnescapeAppendMatchesUnescapeMessage pins the byte-level unescaper to
// the string one.
func TestUnescapeAppendMatchesUnescapeMessage(t *testing.T) {
	cases := []string{
		"", "plain", "a\\tb", "a\\nb\\rc", "\\\\", "\\", "x\\", "\\x", "\\t\\t\\t",
		"mixed \\t and \\q and \\\\ and trailing \\",
		"non-utf8 \xff\\t\xfe",
	}
	for _, c := range cases {
		want := unescapeMessage(c)
		if got := string(unescapeAppend(nil, []byte(c))); got != want {
			t.Fatalf("unescapeAppend(%q) = %q, want %q", c, got, want)
		}
	}
}

// --- allocation budgets ----------------------------------------------------

// TestParseEntryBytesAllocFree pins the steady-state allocation budget of
// the ingest hot path, intern-mode parsing: amortized zero per entry (one
// arena chunk per ~4k messages is the only allowed source), by value and
// through a pointer.
func TestParseEntryBytesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	line := []byte("2005-12-06T08:00:00.000Z\tDPIFormidoc\tws-034\tu0117\tINFO\topen form F-207")

	it := NewIntern()
	if _, err := ParseEntryBytes(line, it); err != nil { // warm the tables
		t.Fatal(err)
	}
	interned := testing.AllocsPerRun(5000, func() {
		if _, err := ParseEntryBytes(line, it); err != nil {
			t.Fatal(err)
		}
	})
	// The 15-byte message lands in the 64KiB arena: one chunk allocation per
	// ~4300 parses. Anything above that amortized rate is a regression.
	if interned > 0.01 {
		t.Fatalf("intern-mode ParseEntryBytes allocates %v/op, want amortized ~0", interned)
	}

	var e Entry
	into := testing.AllocsPerRun(5000, func() {
		if err := ParseEntryBytesInto(&e, line, it); err != nil {
			t.Fatal(err)
		}
	})
	if into > 0.01 {
		t.Fatalf("intern-mode ParseEntryBytesInto allocates %v/op, want amortized ~0", into)
	}
}

// TestAppendEntryAllocFree pins AppendEntry to zero allocations with a
// pre-sized destination.
func TestAppendEntryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := Entry{Time: 1133856000000, Source: "DPIFormidoc", Host: "ws-034",
		User: "u0117", Severity: SevInfo, Message: "open form F-207"}
	buf := make([]byte, 0, 256)
	n := testing.AllocsPerRun(1000, func() {
		buf = AppendEntry(buf[:0], e)
	})
	if n != 0 {
		t.Fatalf("AppendEntry allocates %v/op into a pre-sized buffer, want 0", n)
	}
}

// --- batched reader --------------------------------------------------------

// TestReadBatch checks that batched reads see exactly the stream's entries
// in order, across batch sizes that do and do not divide the entry count.
func TestReadBatch(t *testing.T) {
	var sb strings.Builder
	var want []Entry
	for i := 0; i < 10; i++ {
		e := Entry{Time: Millis(1000 * i), Source: fmt.Sprintf("s%d", i), Severity: SevInfo,
			Message: fmt.Sprintf("m%d", i)}
		want = append(want, e)
		sb.WriteString(FormatEntry(e))
		sb.WriteByte('\n')
	}
	for _, size := range []int{1, 3, 10, 64} {
		r := NewReader(strings.NewReader(sb.String()))
		buf := make([]Entry, size)
		var got []Entry
		for {
			n, err := r.ReadBatch(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("batch size %d: got %d entries, want %d", size, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch size %d entry %d: got %+v want %+v", size, i, got[i], want[i])
			}
		}
	}
}

// TestReaderLongLine checks the ReadSlice spill path: lines longer than the
// reader's internal buffer parse intact, and lines beyond MaxLineBytes fail
// with bufio.ErrTooLong rather than buffering unboundedly.
func TestReaderLongLine(t *testing.T) {
	long := strings.Repeat("x", 1<<17) // past the 64KiB bufio buffer
	e := Entry{Time: 0, Source: "s", Severity: SevInfo, Message: long}
	r := NewReader(strings.NewReader(FormatEntry(e) + "\n"))
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Message != long {
		t.Fatalf("long message mangled: len %d want %d", len(got.Message), len(long))
	}
}
