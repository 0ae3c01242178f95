package logmodel

// Native fuzz coverage for the wire-format parser, complementing the
// testing/quick round-trip properties in wire_test.go. Seed corpora live
// under testdata/fuzz/.

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadLogs feeds arbitrary byte streams to the wire-format reader. The
// invariants: ReadAll never panics, and any stream it accepts round-trips —
// writing the parsed store and reading it back reproduces every entry
// exactly (timestamps normalize to millisecond UTC, messages through the
// escape/unescape pair).
func FuzzReadLogs(f *testing.F) {
	f.Add("2005-12-06T08:00:00.000Z\tDPIFormidoc\thost1\tu17\tINFO\thello world")
	f.Add("2005-12-06T08:00:00.000Z\tA\t\t\tDEBUG\ttabbed\\tmessage\n" +
		"2005-12-06T08:00:01.500Z\tB\th\tu\tERROR\tline\\nbreak and back\\\\slash")
	f.Add("2005-12-06T23:59:59.999+01:00\tApp2\thost\t\tWARN\toffset timestamp")
	f.Add("\n\n2005-12-06T08:00:00.000Z\tX\th\tu\tINFO\tafter blank lines\n\n")
	f.Add("not a log line")
	f.Add("2005-12-06T08:00:00.000Z\tonly\tfive\tfields\tINFO")
	f.Add("2005-12-06T08:00:02.000Z\tLate\th\tu\tINFO\tsecond\n" +
		"2005-12-06T08:00:01.000Z\tEarly\th\tu\tINFO\tfirst")
	f.Fuzz(func(t *testing.T, data string) {
		store, err := ReadAll(strings.NewReader(data))
		if err != nil {
			return // malformed input is rejected, not a bug
		}
		if !store.Sorted() {
			t.Fatal("ReadAll returned an unsorted store")
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, store); err != nil {
			t.Fatalf("write parsed store: %v", err)
		}
		got, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("reparse serialized store: %v\nserialized:\n%s", err, buf.String())
		}
		if got.Len() != store.Len() {
			t.Fatalf("round trip changed entry count: %d -> %d", store.Len(), got.Len())
		}
		for i := 0; i < store.Len(); i++ {
			if got.Entries()[i] != store.Entries()[i] {
				t.Fatalf("entry %d changed in round trip:\n was %+v\n now %+v",
					i, store.Entries()[i], got.Entries()[i])
			}
		}
	})
}

// FuzzParseEntry narrows the fuzz target to the single-line parser: a line
// that parses must format back to a line that parses to the same entry.
func FuzzParseEntry(f *testing.F) {
	f.Add("2005-12-06T08:00:00.000Z\tDPIFormidoc\thost1\tu17\tINFO\thello")
	f.Add("2005-12-06T08:00:00.000Z\tA\tB\tC\tERROR\t")
	f.Add("x\ty\tz\tw\tINFO\tbad time")
	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseEntry(line)
		if err != nil {
			return
		}
		again, err := ParseEntry(FormatEntry(e))
		if err != nil {
			t.Fatalf("formatted entry does not reparse: %v\nline: %q", err, FormatEntry(e))
		}
		if again != e {
			t.Fatalf("format/parse round trip changed entry:\n was %+v\n now %+v", e, again)
		}
	})
}

// FuzzParseBytes is the differential target pinning the allocation-free
// parser to the string parser: on every input both either produce the same
// Entry or both fail (with the same message), the message matches the string
// reference unescapeMessage, intern mode never modifies the input line, and
// every parsed entry survives an AppendEntry round trip.
func FuzzParseBytes(f *testing.F) {
	f.Add("2005-12-06T08:00:00.000Z\tDPIFormidoc\thost1\tu17\tINFO\thello")
	f.Add("2005-12-06T08:00:00.000Z\tA\tB\tC\tERROR\t")
	f.Add("x\ty\tz\tw\tINFO\tbad time")
	f.Add("2005-12-06T08:00:00.000+05:30\tS\th\tu\tWARN\toffset form")
	f.Add("2005-12-06T08:00:00,000Z\tS\th\tu\tINFO\tcomma fraction")
	f.Add("9999-12-31T23:59:59.999Z\tS\th\tu\tDEBUG\tmax formatted year")
	f.Add("2005-12-06T08:00:00.000Z\tS\th\tu\tINFO\tesc \\t\\n\\r\\\\ bad \\q end \\")
	f.Add("2005-12-06T08:00:00.000Z\t\xff\x00\t\xfe\t\x01\tINFO\tnon-utf8 \xff fields")
	f.Add("2005-12-06T08:00:00.000Z\tS\th\tu\tNOTICE\tunknown severity")
	f.Add("2005-12-06T08:00:00.000Z\t\th\tu\tINFO\tempty source")
	sharedIntern := NewIntern()
	f.Fuzz(func(t *testing.T, line string) {
		want, wantErr := ParseEntry(line)

		raw := []byte(line)
		got, gotErr := ParseEntryBytes(raw, sharedIntern)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("parser disagreement on %q:\n ParseEntry:      %v\n ParseEntryBytes: %v",
				line, wantErr, gotErr)
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text differs on %q:\n ParseEntry:      %v\n ParseEntryBytes: %v",
					line, wantErr, gotErr)
			}
			return
		}
		if got != want {
			t.Fatalf("intern-mode entry differs on %q:\n want %+v\n got  %+v", line, want, got)
		}
		// Both parsers unescape through unescapeAppend; the message field
		// (everything after the fifth tab) must match the string reference.
		if ref := unescapeMessage(strings.SplitN(line, "\t", 6)[5]); want.Message != ref {
			t.Fatalf("message of %q is %q; the reference unescapes it to %q", line, want.Message, ref)
		}
		if string(raw) != line {
			t.Fatalf("intern mode modified its input: %q -> %q", line, raw)
		}

		// want came through ParseEntry's private copy; the nil-Intern parse
		// over a caller's buffer must agree with it and leave the buffer be.
		plain, plainErr := ParseEntryBytes(raw, nil)
		if plainErr != nil {
			t.Fatalf("nil-Intern parse rejected %q accepted by intern mode: %v", line, plainErr)
		}
		if plain != want {
			t.Fatalf("nil-Intern entry differs on %q:\n want %+v\n got  %+v", line, want, plain)
		}
		if string(raw) != line {
			t.Fatalf("nil-Intern parse modified its input: %q -> %q", line, raw)
		}

		// Round trip: the wire form of a parsed entry reparses to the same
		// entry, through the byte-slice writer and parser.
		wire := AppendEntry(nil, got)
		again, err := ParseEntryBytes(wire, nil)
		if err != nil {
			t.Fatalf("AppendEntry output does not reparse: %v\nwire: %q", err, wire)
		}
		if again != got {
			t.Fatalf("AppendEntry round trip changed entry:\n was %+v\n now %+v", got, again)
		}
	})
}
