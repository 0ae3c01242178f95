package logmodel

import (
	"os"
	"path/filepath"
	"testing"
)

func osStat(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func writeRaw(name, content string) error {
	return os.WriteFile(name, []byte(content), 0o644)
}

func fileTestStore() *Store {
	s := NewStore(0)
	for i := 0; i < 50; i++ {
		s.Append(Entry{Time: Millis(i * 100), Source: "App", Host: "h",
			User: "u", Severity: SevInfo, Message: "message with\ttab"})
	}
	return s
}

func TestWriteReadFilePlain(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "day.log")
	s := fileTestStore()
	if err := WriteFile(name, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got.Entries()[i] != s.Entries()[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestWriteReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "day.log")
	zipped := filepath.Join(dir, "day.log.gz")
	s := fileTestStore()
	if err := WriteFile(plain, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(zipped, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("gz len = %d", got.Len())
	}
	// The compressed file must actually be smaller (highly repetitive
	// content).
	ps, zs := fileSize(t, plain), fileSize(t, zipped)
	if zs >= ps {
		t.Errorf("gz size %d not below plain %d", zs, ps)
	}
}

func fileSize(t *testing.T, name string) int64 {
	t.Helper()
	st, err := osStat(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestReadFilesMerges(t *testing.T) {
	dir := t.TempDir()
	a := NewStore(0)
	a.Append(Entry{Time: 10, Source: "A", Severity: SevInfo})
	b := NewStore(0)
	b.Append(Entry{Time: 5, Source: "B", Severity: SevInfo})
	na := filepath.Join(dir, "a.log")
	nb := filepath.Join(dir, "b.log.gz")
	if err := WriteFile(na, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(nb, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFiles([]string{na, nb})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Entries()[0].Source != "B" {
		t.Errorf("merged = %d entries, first %v", got.Len(), got.Entries()[0])
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile("/nonexistent/file.log"); err == nil {
		t.Error("expected error for missing file")
	}
	// A non-gzip file with .gz suffix must fail cleanly.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.gz")
	if err := writeRaw(bad, "not gzip"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("expected gzip header error")
	}
	if _, err := ReadFiles([]string{bad}); err == nil {
		t.Error("ReadFiles should propagate the error")
	}
}
