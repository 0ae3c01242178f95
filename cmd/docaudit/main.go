// Command docaudit cross-checks the CLI flags the documentation mentions
// against the flags the commands actually register, so the docs cannot
// silently drift from the binaries. It is the CI `docs-audit` job.
//
// Registered flags are harvested by parsing every non-test Go file under
// cmd/ and collecting the name argument of each flag.Xxx / flag.XxxVar /
// FlagSet method call. Documented flags are harvested from the Markdown
// files' inline code spans (`-flag`); fenced code blocks are skipped —
// they quote shell transcripts whose flags (go test's -run, tail's -F)
// are not ours to validate.
//
// Two directions are enforced:
//
//  1. Every flag the product docs mention must be registered by some
//     command (or be on the small allowlist of go-toolchain flags the
//     docs legitimately quote inline, e.g. `go test -race`).
//  2. Every flag registered by the operator-facing commands — depmine,
//     depmined and evalrun — must be mentioned somewhere in the docs.
//
// Usage:
//
//	go run ./cmd/docaudit [repo-root]
//
// The root defaults to the current directory. Exit status 1 with one
// line per violation; silence means the docs and binaries agree.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// documentedCommands are the commands whose every flag must appear in the
// docs. The other commands (loggen, logclass, lintscape, docaudit itself)
// are developer tooling: their flags may be documented but do not have to
// be.
var documentedCommands = map[string]bool{"depmine": true, "depmined": true, "evalrun": true}

// toolchainFlags are non-logscape flags the docs legitimately quote in
// inline code spans — go test / go vet options, mostly. Anything else
// documented-but-unregistered fails the audit.
var toolchainFlags = map[string]bool{
	"bench":     true,
	"benchmem":  true,
	"benchtime": true,
	"export":    true, // `go list -export`, quoted in DESIGN.md
	"fuzz":      true,
	"fuzztime":  true,
	"race":      true,
	"run":       true,
	"short":     true,
	"update":    true,
}

// flagCalls maps the flag-registration function names to the index of
// their name argument: flag.String("name", ...) has it first,
// flag.StringVar(&p, "name", ...) second. Both the package-level
// functions and *flag.FlagSet methods share these names.
var flagCalls = map[string]int{
	"Bool": 0, "BoolVar": 1, "BoolFunc": 0,
	"Int": 0, "IntVar": 1,
	"Int64": 0, "Int64Var": 1,
	"Uint": 0, "UintVar": 1,
	"Uint64": 0, "Uint64Var": 1,
	"String": 0, "StringVar": 1,
	"Float64": 0, "Float64Var": 1,
	"Duration": 0, "DurationVar": 1,
	"Func": 0, "TextVar": 1, "Var": 1,
}

// registeredFlags parses every non-test Go file under cmdDir and returns
// command name → sorted flag names.
func registeredFlags(cmdDir string) (map[string][]string, error) {
	cmds, err := os.ReadDir(cmdDir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string)
	for _, c := range cmds {
		if !c.IsDir() {
			continue
		}
		dir := filepath.Join(cmdDir, c.Name())
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool)
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			for _, name := range flagsInFile(f, src) {
				set[name] = true
			}
		}
		out[c.Name()] = sortedKeys(set)
	}
	return out, nil
}

// flagsInFile extracts the flag names one Go source file registers.
// Parse errors are deliberately fatal: an unparseable command source
// would silently shrink the registered set and weaken direction 2.
func flagsInFile(path string, src []byte) []string {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docaudit: %v\n", err)
		os.Exit(1)
	}
	var names []string
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		argAt, ok := flagCalls[sel.Sel.Name]
		if !ok || argAt >= len(call.Args) {
			return true
		}
		lit, ok := call.Args[argAt].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err == nil && name != "" {
			names = append(names, name)
		}
		return true
	})
	return names
}

// spanRE matches inline code spans on a single line. Markdown spans do
// not nest, so non-greedy single-backtick matching is enough for our
// docs (which use no multi-backtick spans).
var spanRE = regexp.MustCompile("`([^`]+)`")

// flagTokenRE is what counts as a documented flag inside a span: a dash,
// then lowercase letters with interior dashes (`-drift-json`). Digits
// are deliberately excluded — no logscape flag has them, and transcripts
// quote things like tail's `-n0` that are not flags of ours.
var flagTokenRE = regexp.MustCompile(`^-([a-z][a-z-]*[a-z])$`)

// documentedFlags scans Markdown files and returns flag name → files
// mentioning it. Fenced code blocks (``` ... ```) are skipped.
func documentedFlags(paths []string) (map[string][]string, error) {
	out := make(map[string][]string)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fenced := false
		seen := make(map[string]bool)
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range spanRE.FindAllStringSubmatch(line, -1) {
				for _, tok := range strings.FieldsFunc(span[1], func(r rune) bool {
					return r == ' ' || r == ',' || r == '/'
				}) {
					if m := flagTokenRE.FindStringSubmatch(tok); m != nil {
						seen[m[1]] = true
					}
				}
			}
		}
		for _, name := range sortedKeys(seen) {
			out[name] = append(out[name], path)
		}
	}
	return out, nil
}

// sortedKeys returns a set's keys in order, for deterministic output.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// docFiles returns the product docs to audit under root. The other
// top-level Markdown files (CHANGES.md, ROADMAP.md, ISSUE.md, PAPERS.md, ...)
// are process logs that name other modules' and future flags by nature, so
// they are out of scope. Missing globs are fine; the audit covers what
// exists.
func docFiles(root string) ([]string, error) {
	var paths []string
	for _, pat := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", "examples/*/README.md"} {
		m, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil {
			return nil, err
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	return paths, nil
}

// audit runs both directions and returns the violations, one line each,
// sorted for stable output.
func audit(root string) ([]string, error) {
	registered, err := registeredFlags(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	paths, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	documented, err := documentedFlags(paths)
	if err != nil {
		return nil, err
	}

	anyCmd := make(map[string]bool)
	cmds := make([]string, 0, len(registered))
	for cmd := range registered {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	for _, cmd := range cmds {
		for _, n := range registered[cmd] {
			anyCmd[n] = true
		}
	}

	var bad []string
	docNames := make([]string, 0, len(documented))
	for name := range documented {
		docNames = append(docNames, name)
	}
	sort.Strings(docNames)
	for _, name := range docNames {
		if !anyCmd[name] && !toolchainFlags[name] {
			bad = append(bad, fmt.Sprintf(
				"documented flag -%s (in %s) is registered by no command",
				name, strings.Join(documented[name], ", ")))
		}
	}
	for _, cmd := range cmds {
		if !documentedCommands[cmd] {
			continue
		}
		for _, n := range registered[cmd] {
			if _, ok := documented[n]; !ok {
				bad = append(bad, fmt.Sprintf(
					"%s flag -%s is undocumented (mention it in README.md or docs/)",
					cmd, n))
			}
		}
	}
	sort.Strings(bad)
	return bad, nil
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad, err := audit(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docaudit: %v\n", err)
		os.Exit(1)
	}
	for _, line := range bad {
		fmt.Fprintln(os.Stderr, "docaudit: "+line)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "docaudit: %d violations\n", len(bad))
		os.Exit(1)
	}
}
