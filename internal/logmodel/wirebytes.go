package logmodel

import (
	"bytes"
	"fmt"
	"strings"
	"time"
	"unsafe"
)

// This file is the allocation-free twin of the wire format in wire.go:
// ParseEntryBytes and AppendEntry produce byte-for-byte the same results as
// ParseEntry and FormatEntry (a property pinned by FuzzParseBytes and the
// differential tests in wirebytes_test.go) without the per-entry garbage —
// no strings.SplitN, no time.Parse on the fast path, no fmt.Sprintf.
// DESIGN.md §12 describes the ownership rules.

// byteView returns a string sharing b's backing array — zero-copy, so the
// caller must guarantee the bytes are never modified for the lifetime of the
// string. Only the intern arena qualifies: its bytes are write-once.
func byteView(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// internChunk is the arena chunk size: large enough that a chunk turnover
// (one allocation) happens every few hundred entries, small enough that an
// almost-full chunk abandoned for an oversized message wastes little.
const internChunk = 64 << 10

// internMaxEntries caps the intern table. A hostile stream with unbounded
// distinct Source/Host/User values must not turn the table into a memory
// leak; past the cap, new distinct values fall back to plain copies (still
// correct, just one allocation per occurrence).
const internMaxEntries = 1 << 16

// Intern is the string table + copy arena that makes ParseEntryBytes
// allocation-free in steady state. Source, Host and User values are
// deduplicated: each distinct value is copied once into the arena and every
// later occurrence returns the same string header with zero allocations.
// Messages are not deduplicated (they are mostly distinct) but are
// unescape-copied into the arena, so the input line is never modified and
// the returned Entry owns durable strings.
//
// An Intern is not safe for concurrent use. Its strings stay valid forever
// (arena chunks are abandoned when full, never reused), so entries parsed
// with a shared Intern may outlive it. The zero value is ready to use.
type Intern struct {
	tab   map[string]string
	trip  map[string]internTriple
	chunk []byte

	// Single-entry caches exploiting stream locality. Real streams are
	// near-sorted, so consecutive lines almost always share the timestamp's
	// minute prefix; session bursts repeat the same (source, host, user)
	// triple back to back. Both caches only short-circuit work — every hit
	// returns exactly what the slow path would have.
	tsValid  bool
	tsPrefix [17]byte // "YYYY-MM-DDTHH:MM:" of the cached minute
	tsBase   int64    // epoch millis at second 0 of that minute
	// 4-way triple cache, round-robin replacement (tripNext points at the
	// next victim). Real streams interleave a handful of active sessions, so
	// a few recent triples cover half the lines a one-entry cache misses.
	tripLen  [4]int // 0 marks an empty way
	tripKey  [4][64]byte
	tripVal  [4]internTriple
	tripNext int
}

// internTriple caches one distinct (source, host, user) combination under
// its composite "src\thost\tuser" key — the three fields are adjacent in a
// wire line, so the key is a single subslice and one map hit replaces
// three.
type internTriple struct {
	source, host, user string
}

// NewIntern returns an empty intern table.
func NewIntern() *Intern {
	return &Intern{
		tab:  make(map[string]string, 64),
		trip: make(map[string]internTriple, 64),
	}
}

// reserve guarantees at least n free bytes in the current arena chunk,
// starting a fresh chunk if needed. Old chunks are abandoned, not reused:
// strings already handed out keep pointing into them.
func (it *Intern) reserve(n int) {
	if cap(it.chunk)-len(it.chunk) < n {
		c := internChunk
		if n > c {
			c = n
		}
		it.chunk = make([]byte, 0, c)
	}
}

// copyBytes appends b to the arena and returns a string view of the copy.
func (it *Intern) copyBytes(b []byte) string {
	it.reserve(len(b))
	start := len(it.chunk)
	it.chunk = append(it.chunk, b...)
	return byteView(it.chunk[start:len(it.chunk):len(it.chunk)])
}

// Bytes returns the interned string equal to b, copying it into the arena
// on first sight. The compiler-recognized m[string(b)] form makes the hit
// path allocation-free.
func (it *Intern) Bytes(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if it.tab == nil {
		it.tab = make(map[string]string, 64)
	}
	if s, ok := it.tab[string(b)]; ok {
		return s
	}
	s := it.copyBytes(b)
	if len(it.tab) < internMaxEntries {
		it.tab[s] = s
	}
	return s
}

// triple interns the (source, host, user) combination at once. key is the
// composite "src\thost\tuser" slice of the wire line (unambiguous — fields
// cannot contain tabs); src, host, user are its three fields.
func (it *Intern) triple(key, src, host, user []byte) (string, string, string) {
	for w := range it.tripLen {
		if len(key) == it.tripLen[w] && string(key) == string(it.tripKey[w][:it.tripLen[w]]) {
			v := &it.tripVal[w]
			return v.source, v.host, v.user
		}
	}
	if it.trip == nil {
		it.trip = make(map[string]internTriple, 64)
	}
	v, ok := it.trip[string(key)]
	if !ok {
		v = internTriple{it.Bytes(src), it.Bytes(host), it.Bytes(user)}
		if len(it.trip) < internMaxEntries {
			it.trip[it.copyBytes(key)] = v
		}
	}
	if len(key) <= len(it.tripKey[0]) {
		w := it.tripNext
		it.tripNext = (w + 1) & 3
		copy(it.tripKey[w][:], key)
		it.tripLen[w] = len(key)
		it.tripVal[w] = v
	}
	return v.source, v.host, v.user
}

// message unescape-copies a raw wire-format message field into the arena.
// The input is left untouched — callers that quarantine raw lines (the
// hardened feeder) depend on that.
func (it *Intern) message(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	it.reserve(len(b))
	start := len(it.chunk)
	if bytes.IndexByte(b, '\\') < 0 {
		it.chunk = append(it.chunk, b...)
	} else {
		it.chunk = unescapeAppend(it.chunk, b)
	}
	return byteView(it.chunk[start:len(it.chunk):len(it.chunk)])
}

// unescapeAppend appends the unescaped form of m to dst, mirroring the
// test reference unescapeMessage byte for byte: \t \n \r \\ collapse, an
// invalid escape keeps the backslash and the following byte, a trailing lone
// backslash is preserved. Output length never exceeds len(m), which is what
// lets Intern.message reserve len(m) arena bytes up front.
func unescapeAppend(dst, m []byte) []byte {
	for i := 0; i < len(m); i++ {
		c := m[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		if i+1 >= len(m) {
			dst = append(dst, '\\')
			break
		}
		i++
		switch m[i] {
		case 't':
			dst = append(dst, '\t')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case '\\':
			dst = append(dst, '\\')
		default:
			dst = append(dst, '\\', m[i])
		}
	}
	return dst
}

// ParseEntryBytes parses one wire-format line. It is equivalent to
// ParseEntry: the same Entry on success, an error for exactly the same
// inputs (with matching messages).
//
// line is never modified and the Entry is durable — safe to retain after
// the read buffer is reused. With an Intern, Source/Host/User are interned
// and Message is unescape-copied into the arena, so the steady state
// allocates nothing; with a nil Intern every string field is a plain copy
// (one allocation each), the form for one-off parses that have no table to
// share.
func ParseEntryBytes(line []byte, it *Intern) (Entry, error) {
	var e Entry
	if err := ParseEntryBytesInto(&e, line, it); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// ParseEntryBytesInto is ParseEntryBytes writing through a pointer, for hot
// loops that reuse one Entry variable: an Entry is 80 bytes, and parsing
// through a pointer avoids copying it on return for every line of a stream.
// On success every field of *e is overwritten; on error *e is unspecified.
func ParseEntryBytesInto(e *Entry, line []byte, it *Intern) error {
	// Locate the five field separators. The timestamp field is fixed-width
	// in the canonical UTC form, so its tab is usually found with a single
	// byte test; the rest use IndexByte.
	var tabs [5]int
	pos := 0
	if len(line) > 24 && line[24] == '\t' {
		tabs[0] = 24
		pos = 25
	}
	for i := 0; i < 5; i++ {
		if i == 0 && pos != 0 {
			continue
		}
		j := bytes.IndexByte(line[pos:], '\t')
		if j < 0 {
			return fmt.Errorf("logmodel: malformed line: %d fields, want 6", i+1)
		}
		tabs[i] = pos + j
		pos += j + 1
	}
	var f [5][]byte
	f[0] = line[:tabs[0]]
	for i := 1; i < 5; i++ {
		f[i] = line[tabs[i-1]+1 : tabs[i]]
	}
	rest := line[tabs[4]+1:]
	var ts Millis
	var ok bool
	if it != nil {
		ts, ok = it.parseTime(f[0])
	} else {
		ts, ok = parseWireTime(f[0])
	}
	if !ok {
		// The fast path is strict: anything it rejects goes through
		// time.Parse so acceptance (and the error text) matches ParseEntry
		// exactly, including exotica like comma fractional separators or
		// out-of-range zone offsets.
		t, err := time.Parse(TimeLayout, string(f[0]))
		if err != nil {
			return fmt.Errorf("logmodel: bad timestamp %q: %w", f[0], err)
		}
		ts = FromTime(t)
	}
	sev, ok := parseSeverityBytes(f[4])
	if !ok {
		return fmt.Errorf("logmodel: unknown severity %q", f[4])
	}
	if len(f[1]) == 0 {
		return fmt.Errorf("logmodel: empty source field")
	}
	e.Time, e.Severity = ts, sev
	if it != nil {
		// f[1..3] are adjacent subslices of line; the composite slice
		// spanning them is the triple-intern key.
		key := line[tabs[0]+1 : tabs[3]]
		e.Source, e.Host, e.User = it.triple(key, f[1], f[2], f[3])
		e.Message = it.message(rest)
	} else {
		e.Source = string(f[1])
		e.Host = string(f[2])
		e.User = string(f[3])
		e.Message = string(unescapeAppend(nil, rest))
	}
	return nil
}

// parseSeverityBytes parses a canonical severity name, allocation-free.
func parseSeverityBytes(b []byte) (Severity, bool) {
	for i := range severityNames {
		if string(b) == severityNames[i] {
			return Severity(i), true
		}
	}
	return 0, false
}

// AppendEntry appends e as one wire-format line (without trailing newline)
// to dst and returns the extended slice — the allocation-free form of
// FormatEntry. dst must not alias e's string fields.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = appendWireTime(dst, e.Time)
	dst = append(dst, '\t')
	dst = append(dst, e.Source...)
	dst = append(dst, '\t')
	dst = append(dst, e.Host...)
	dst = append(dst, '\t')
	dst = append(dst, e.User...)
	dst = append(dst, '\t')
	if int(e.Severity) < len(severityNames) {
		dst = append(dst, severityNames[e.Severity]...)
	} else {
		dst = fmt.Appendf(dst, "SEV(%d)", uint8(e.Severity))
	}
	dst = append(dst, '\t')
	return appendEscaped(dst, e.Message)
}

// appendEscaped appends m with wire-format escaping, mirroring the test
// reference escapeMessage: tab, newline, carriage return and backslash are
// backslash-escaped; everything else is copied verbatim.
func appendEscaped(dst []byte, m string) []byte {
	if !strings.ContainsAny(m, "\t\n\r\\") {
		return append(dst, m...)
	}
	for i := 0; i < len(m); i++ {
		switch c := m[i]; c {
		case '\t':
			dst = append(dst, '\\', 't')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\\':
			dst = append(dst, '\\', '\\')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// --- fixed-layout timestamp codec ------------------------------------------
//
// The wire timestamp is TimeLayout ("2006-01-02T15:04:05.000Z07:00"):
// RFC3339 with exactly three fractional digits. The fast parser below
// accepts only the canonical shapes — 24 bytes ending in 'Z' or 29 bytes
// with a ±hh:mm offset, every digit and separator in its slot, every field
// in range — and computes the epoch arithmetically. Anything else falls back
// to time.Parse in ParseEntryBytes, so the fast path can be strict without
// changing what the format accepts. The formatter emits the UTC 'Z' shape
// for years 0000–9999 (everything FormatEntry can produce via Time().UTC())
// and falls back to time.Format outside that.

// parseTime is parseWireTime with a one-minute memo: when b shares the
// cached "YYYY-MM-DDTHH:MM:" prefix of a previously parsed canonical UTC
// timestamp, only the seconds and milliseconds digits are parsed and the
// cached minute epoch supplies the rest. Prefix equality covers every digit
// and separator the full parser validated when it populated the cache, so a
// hit computes exactly the full parser's value.
func (it *Intern) parseTime(b []byte) (Millis, bool) {
	if len(b) == 24 && b[23] == 'Z' && b[19] == '.' && it.tsValid &&
		string(b[:17]) == string(it.tsPrefix[:]) {
		sec, ok1 := dig2(b, 17)
		ms, ok2 := dig3(b, 20)
		if ok1 && ok2 && sec <= 59 {
			return Millis(it.tsBase + int64(sec)*1000 + int64(ms)), true
		}
		return 0, false
	}
	ts, ok := parseWireTime(b)
	if ok && len(b) == 24 {
		sec, _ := dig2(b, 17)
		ms, _ := dig3(b, 20)
		copy(it.tsPrefix[:], b[:17])
		it.tsBase = int64(ts) - int64(sec)*1000 - int64(ms)
		it.tsValid = true
	}
	return ts, ok
}

// parseWireTime parses the canonical wire timestamp shapes. ok is false for
// anything the strict fast path does not cover.
func parseWireTime(b []byte) (Millis, bool) {
	n := len(b)
	if n != 24 && n != 29 {
		return 0, false
	}
	if b[4] != '-' || b[7] != '-' || b[10] != 'T' ||
		b[13] != ':' || b[16] != ':' || b[19] != '.' {
		return 0, false
	}
	year, ok1 := dig4(b, 0)
	month, ok2 := dig2(b, 5)
	day, ok3 := dig2(b, 8)
	hour, ok4 := dig2(b, 11)
	min, ok5 := dig2(b, 14)
	sec, ok6 := dig2(b, 17)
	ms, ok7 := dig3(b, 20)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return 0, false
	}
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || min > 59 || sec > 59 {
		return 0, false
	}
	offset := 0
	if n == 29 {
		if b[26] != ':' {
			return 0, false
		}
		oh, okh := dig2(b, 24)
		om, okm := dig2(b, 27)
		if !okh || !okm || oh > 23 || om > 59 {
			return 0, false
		}
		offset = oh*3600 + om*60
		switch b[23] {
		case '+':
		case '-':
			offset = -offset
		default:
			return 0, false
		}
	} else if b[23] != 'Z' {
		return 0, false
	}
	unix := daysFromCivil(year, month, day)*86400 +
		int64(hour*3600+min*60+sec) - int64(offset)
	return Millis(unix*1000 + int64(ms)), true
}

// appendWireTime appends m in TimeLayout (UTC), matching
// m.Time().Format(TimeLayout) exactly.
func appendWireTime(dst []byte, m Millis) []byte {
	ms := int64(m)
	sec := floorDiv(ms, 1000)
	msp := int(ms - sec*1000)
	days := floorDiv(sec, 86400)
	rem := int(sec - days*86400)
	year, month, day := civilFromDays(days)
	if year < 0 || year > 9999 {
		// time.Format pads years outside [0, 9999] differently (sign,
		// variable width); rare enough to delegate.
		return append(dst, m.Time().Format(TimeLayout)...)
	}
	dst = pad4(dst, year)
	dst = append(dst, '-')
	dst = pad2(dst, month)
	dst = append(dst, '-')
	dst = pad2(dst, day)
	dst = append(dst, 'T')
	dst = pad2(dst, rem/3600)
	dst = append(dst, ':')
	dst = pad2(dst, rem/60%60)
	dst = append(dst, ':')
	dst = pad2(dst, rem%60)
	dst = append(dst, '.')
	dst = pad3(dst, msp)
	return append(dst, 'Z')
}

func dig2(b []byte, i int) (int, bool) {
	c0, c1 := b[i]-'0', b[i+1]-'0'
	if c0 > 9 || c1 > 9 {
		return 0, false
	}
	return int(c0)*10 + int(c1), true
}

func dig3(b []byte, i int) (int, bool) {
	hi, ok1 := dig2(b, i)
	c2 := b[i+2] - '0'
	if !ok1 || c2 > 9 {
		return 0, false
	}
	return hi*10 + int(c2), true
}

func dig4(b []byte, i int) (int, bool) {
	hi, ok1 := dig2(b, i)
	lo, ok2 := dig2(b, i+2)
	if !ok1 || !ok2 {
		return 0, false
	}
	return hi*100 + lo, true
}

func pad2(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/10), byte('0'+v%10))
}

func pad3(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
}

func pad4(dst []byte, v int) []byte {
	return append(dst, byte('0'+v/1000), byte('0'+v/100%10),
		byte('0'+v/10%10), byte('0'+v%10))
}

func isLeap(y int) bool {
	return y%4 == 0 && (y%100 != 0 || y%400 == 0)
}

func daysIn(month, year int) int {
	switch month {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if isLeap(year) {
			return 29
		}
		return 28
	}
	return 31
}

// floorDiv is division rounding toward −∞ (Go's / rounds toward zero).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// daysFromCivil converts a proleptic Gregorian date to days since the Unix
// epoch (Howard Hinnant's civil-days algorithm).
func daysFromCivil(y, m, d int) int64 {
	yy := int64(y)
	if m <= 2 {
		yy--
	}
	era := floorDiv(yy, 400)
	yoe := yy - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// civilFromDays is the inverse of daysFromCivil.
func civilFromDays(z int64) (year, month, day int) {
	z += 719468
	era := floorDiv(z, 146097)
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365]
	mp := (5*doy + 2) / 153                  // [0, 11]
	day = int(doy - (153*mp+2)/5 + 1)
	if mp < 10 {
		month = int(mp + 3)
	} else {
		month = int(mp - 9)
	}
	if month <= 2 {
		y++
	}
	return int(y), month, day
}
