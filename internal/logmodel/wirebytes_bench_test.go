package logmodel

import (
	"testing"
)

// The wire micro-benchmarks time the parser and formatter in isolation.
// Their zero-allocation budgets are gated in tier-1 by
// TestParseEntryBytesAllocFree and TestAppendEntryAllocFree; end-to-end
// numbers live in the bench/ ledger (BENCHMARK.json).

var benchLines = [][]byte{
	[]byte("2005-12-06T08:00:00.000Z\tDPIFormidoc\tws-034\tu0117\tINFO\topen form F-207"),
	[]byte("2005-12-06T08:00:00.250Z\tMEDFolder\tws-034\tu0117\tINFO\tfetch folder 88213"),
	[]byte("2005-12-06T08:00:01.000Z\tADTCore\tsrv-01\t\tWARN\tqueue depth 17"),
	[]byte("2005-12-06T08:00:02.750Z\tLabRouter\tws-112\tu0093\tDEBUG\troute specimen \\t tabbed"),
}

func BenchmarkWireParseBytes(b *testing.B) {
	it := NewIntern()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEntryBytes(benchLines[i&3], it); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireAppendEntry(b *testing.B) {
	it := NewIntern()
	var es [4]Entry
	for i, l := range benchLines {
		e, err := ParseEntryBytes(l, it)
		if err != nil {
			b.Fatal(err)
		}
		es[i] = e
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEntry(buf[:0], es[i&3])
	}
	_ = buf
}

func BenchmarkWireParseEntry(b *testing.B) {
	// The string-based compatibility path, for comparison against the
	// byte-slice fast path in bench diffs.
	lines := make([]string, len(benchLines))
	for i, l := range benchLines {
		lines[i] = string(l)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEntry(lines[i&3]); err != nil {
			b.Fatal(err)
		}
	}
}
