package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestFlagsInFile(t *testing.T) {
	src := []byte(`package main

import "flag"

func main() {
	var s string
	flag.StringVar(&s, "alpha", "", "usage")
	flag.Bool("beta", false, "usage")
	fs := flag.NewFlagSet("sub", flag.ContinueOnError)
	fs.Float64("gamma", 0, "usage")
	fs.IntVar(new(int), "delta", 0, "usage")
	_ = flag.Int64("epsilon", 0, "usage")
	println("not-a-flag") // no selector, no match
}
`)
	got := flagsInFile("test.go", src)
	want := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagsInFile = %v, want %v", got, want)
	}
}

func TestDocumentedFlags(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.md")
	md := strings.Join([]string{
		"Inline spans: `-alpha`, `depmine -beta 3 -gamma-x`, and `-`.",
		"Not flags: `-A--B` (uppercase), `-n0` (digit), plain -naked text.",
		"```sh",
		"cmd -fenced  # inside a code block: skipped",
		"```",
		"After the fence `-omega` counts again.",
	}, "\n")
	if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := documentedFlags([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"alpha":   {path},
		"beta":    {path},
		"gamma-x": {path},
		"omega":   {path},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("documentedFlags = %v, want %v", got, want)
	}
}

func TestAuditDetectsBothDirections(t *testing.T) {
	root := t.TempDir()
	depmine := filepath.Join(root, "cmd", "depmine")
	if err := os.MkdirAll(depmine, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package main

import "flag"

func main() {
	flag.String("documented", "", "usage")
	flag.String("hidden", "", "usage")
}
`
	if err := os.WriteFile(filepath.Join(depmine, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	md := "Flags: `-documented` and `-phantom`; toolchain `-race` is fine.\n"
	// The same span in a planning file or process log is out of scope:
	// those name other modules' and future flags by nature.
	for _, name := range []string{"README.md", "ROADMAP.md", "CHANGES.md", "ISSUE.md"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	bad, err := audit(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 {
		t.Fatalf("audit = %v, want 2 violations", bad)
	}
	if !strings.Contains(bad[0], "-hidden") || !strings.Contains(bad[0], "undocumented") {
		t.Errorf("missing registered-but-undocumented violation: %v", bad)
	}
	if !strings.Contains(bad[1], "-phantom (in "+filepath.Join(root, "README.md")+")") || !strings.Contains(bad[1], "no command") {
		t.Errorf("missing documented-but-unregistered violation naming README.md alone: %v", bad)
	}
}

// TestAuditRepo runs the audit over the real repository — the same check
// the CI docs-audit job runs, so a flag/docs mismatch fails locally too.
func TestAuditRepo(t *testing.T) {
	bad, err := audit("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bad {
		t.Error(line)
	}
}
