package runner_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"logscape/internal/analysis/load"
	"logscape/internal/analysis/runner"
	"logscape/internal/analyzers"
)

// writeModule writes a module named tmpmod holding the given files (paths
// relative to the module root) into a fresh directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// lines joins source lines; each directive below sits on a line that
// opens a string literal first, so this file's own directive scan reads
// it as a quotation, not as a live directive.
func lines(ls ...string) string { return strings.Join(ls, "\n") + "\n" }

// TestRun drives the whole suite over a module with one violation per
// analyzer, one suppressed violation and one malformed directive: every
// analyzer reports once, file names are module-relative, the order is
// sorted, the allowed line is gone and the malformed directive is itself
// a finding.
func TestRun(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"a/a.go": lines(
			"// Package a holds one violation per analyzer.",
			"package a",
			"",
			"import (",
			"	\"fmt\"",
			"	\"time\"",
			")",
			"",
			"// Config is miner-shaped: a Workers knob plus a threshold.",
			"type Config struct {",
			"	MinLogs int",
			"	Workers int",
			"}",
			"",
			"var cfg = Config{Workers: 2}",
			"",
			"func f(m map[string]int, x, y float64) []string {",
			"	go fmt.Println()",
			"	_ = x == y",
			"	_ = time.Now()",
			"	_ = time.Now() //lint:allow wallclock the suppressed line",
			"	//lint:allow",
			"	var keys []string",
			"	for k := range m {",
			"		keys = append(keys, k)",
			"		fmt.Println(k)",
			"	}",
			"	return keys",
			"}",
		),
		"b/b.go": lines("package b"),
	})
	findings, err := runner.Run(analyzers.All(), load.Options{Dir: dir, Tests: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d %s", f.File, f.Line, f.Analyzer))
	}
	want := []string{
		"a/a.go:15 cfgzero",
		"a/a.go:18 bareconc",
		"a/a.go:19 floateq",
		"a/a.go:20 wallclock",
		"a/a.go:22 allowaudit",
		"a/a.go:25 maporder",
		"a/a.go:26 taintorder",
		"b/b.go:1 doclint",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
}

// TestRunRefusesTypeErrors checks that a package that does not type-check
// fails the run instead of being analyzed.
func TestRunRefusesTypeErrors(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"c/c.go": lines("// Package c does not type-check.", "package c", "", "var x int = \"s\""),
	})
	findings, err := runner.Run(analyzers.All(), load.Options{Dir: dir})
	if err == nil {
		t.Fatalf("Run succeeded with %d findings, want the type error", len(findings))
	}
	if !strings.Contains(err.Error(), `"s"`) {
		t.Errorf("Run error %q does not name the type error", err)
	}
}
