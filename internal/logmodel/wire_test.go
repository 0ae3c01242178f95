package logmodel

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFormatParseRoundTrip(t *testing.T) {
	e := Entry{
		Time:     FromTime(mustTime(t, "2005-12-06T08:30:15.123Z")),
		Source:   "DPIFormidoc",
		Host:     "pc1234",
		User:     "mdupont",
		Severity: SevWarn,
		Message:  "Invoke externalService [fct [notify] server [myserver.hcuge.ch:9999/myurl]]",
	}
	line := FormatEntry(e)
	got, err := ParseEntry(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, e)
	}
}

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	parsed, err := time.Parse(time.RFC3339, s)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

func TestMessageEscaping(t *testing.T) {
	messages := []string{
		"plain",
		"with\ttab",
		"with\nnewline",
		"with\rcarriage",
		"back\\slash",
		"\\t literal backslash-t",
		"mixed\t\n\\\r end",
		"",
		"trailing backslash\\",
	}
	for _, m := range messages {
		e := Entry{Time: 1000, Source: "S", Severity: SevInfo, Message: m}
		line := FormatEntry(e)
		if strings.ContainsAny(line[strings.LastIndex(line, "\t")+1:], "\n\r") {
			t.Errorf("escaped message contains raw control chars: %q", line)
		}
		got, err := ParseEntry(line)
		if err != nil {
			t.Fatalf("message %q: %v", m, err)
		}
		if got.Message != m {
			t.Errorf("message round trip: got %q, want %q", got.Message, m)
		}
	}
}

// TestEscapeProperty: escape/unescape is the identity for arbitrary strings.
func TestEscapeProperty(t *testing.T) {
	f := func(m string) bool {
		return unescapeMessage(escapeMessage(m)) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseEntryErrors(t *testing.T) {
	cases := []string{
		"", // no fields
		"2005-12-06T08:00:00.000Z\tA\th\tu\tINFO",   // five fields
		"notadate\tA\th\tu\tINFO\tmsg",              // bad timestamp
		"2005-12-06T08:00:00.000Z\tA\th\tu\tX\tm",   // bad severity
		"2005-12-06T08:00:00.000Z\t\th\tu\tINFO\tm", // empty source
	}
	for _, line := range cases {
		if _, err := ParseEntry(line); err == nil {
			t.Errorf("ParseEntry(%q) succeeded, want error", line)
		}
	}
}

func TestWriterReader(t *testing.T) {
	s := NewStore(0)
	for i := 0; i < 100; i++ {
		s.Append(Entry{
			Time: Millis(i * 137), Source: "App", Host: "h", User: "u",
			Severity: Severity(i % 4), Message: "msg\twith tab",
		})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 100 {
		t.Fatalf("read %d entries", got.Len())
	}
	for i := 0; i < 100; i++ {
		if got.Entries()[i] != s.Entries()[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.Entries()[i], s.Entries()[i])
		}
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	in := "\n" + FormatEntry(Entry{Time: 1, Source: "A", Severity: SevInfo}) + "\n\n"
	s, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	in := FormatEntry(Entry{Time: 1, Source: "A", Severity: SevInfo}) + "\nbroken line\n"
	_, err := ReadAll(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 mention", err)
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		if err := w.Write(Entry{Time: Millis(i), Source: "A", Severity: SevInfo}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Errorf("output lines = %d", lines)
	}
}

// TestEntryRoundTripProperty: arbitrary entries survive the wire format
// (modulo the millisecond timestamp resolution and non-empty source, which
// the generator respects).
func TestEntryRoundTripProperty(t *testing.T) {
	f := func(ts int64, src, host, user uint8, sev uint8, msg string) bool {
		e := Entry{
			Time:     Millis(ts % (1 << 40)), // keep within time.Time's formattable range
			Source:   "src" + string(rune('A'+src%26)),
			Host:     "h" + string(rune('a'+host%26)),
			User:     "u" + string(rune('a'+user%26)),
			Severity: Severity(sev % 4),
			Message:  msg,
		}
		if e.Time < 0 {
			e.Time = -e.Time
		}
		got, err := ParseEntry(FormatEntry(e))
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	a := NewStore(0)
	a.Append(mkEntry(1, "A"))
	a.Append(mkEntry(5, "A"))
	b := NewStore(0)
	b.Append(mkEntry(2, "B"))
	b.Append(mkEntry(4, "B"))
	m := Merge(a, b)
	if m.Len() != 4 {
		t.Fatalf("merged Len = %d", m.Len())
	}
	want := []Millis{1, 2, 4, 5}
	for i, w := range want {
		if m.Entries()[i].Time != w {
			t.Errorf("entry %d time = %v, want %v", i, m.Entries()[i].Time, w)
		}
	}
	if empty := Merge(); empty.Len() != 0 {
		t.Error("Merge() should be empty")
	}

	// Ties across inputs follow input order, then order within each input;
	// an unsorted input is accepted and sorted in.
	c := NewStore(0)
	c.Append(mkEntry(5, "C1"))
	c.Append(mkEntry(2, "C2"))
	c.Append(mkEntry(5, "C3"))
	if c.Sorted() {
		t.Fatal("c should be unsorted")
	}
	m = Merge(a, b, c, a)
	var got []string
	for _, e := range m.Entries() {
		got = append(got, fmt.Sprint(e.Time, e.Source))
	}
	wantTies := []string{"1A", "1A", "2B", "2C2", "4B", "5A", "5C1", "5C3", "5A"}
	if !m.Sorted() || strings.Join(got, " ") != strings.Join(wantTies, " ") {
		t.Errorf("Merge(a, b, c, a) = %v, want %v", got, wantTies)
	}
}

// escapeMessage is the string reference for appendEscaped: it makes a
// message safe for the tab-separated wire format. It operates on bytes, not runes, so messages that are not valid UTF-8 pass
// through unaltered instead of being replaced with U+FFFD (found by
// FuzzReadLogs: real log streams carry arbitrary bytes).
func escapeMessage(m string) string {
	if !strings.ContainsAny(m, "\t\n\r\\") {
		return m
	}
	var b strings.Builder
	b.Grow(len(m) + 8)
	for i := 0; i < len(m); i++ {
		switch c := m[i]; c {
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeMessage reverses escapeMessage: the string reference for
// unescapeAppend. Byte-oriented for the same reason.
func unescapeMessage(m string) string {
	if !strings.ContainsRune(m, '\\') {
		return m
	}
	var b strings.Builder
	b.Grow(len(m))
	esc := false
	for i := 0; i < len(m); i++ {
		c := m[i]
		if esc {
			switch c {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte('\\')
				b.WriteByte(c)
			}
			esc = false
			continue
		}
		if c == '\\' {
			esc = true
			continue
		}
		b.WriteByte(c)
	}
	if esc {
		b.WriteByte('\\')
	}
	return b.String()
}
