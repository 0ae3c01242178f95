package analysistest

import (
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
)

// Run applies the analyzer to the fixture packages (import paths under
// testdata/src relative to the calling test's directory) as one program:
// every listed package, plus every sibling fixture package any of them
// imports, becomes a Unit of the one Pass, so interprocedural flows across
// fixture packages are summarized. Diagnostics are matched against // want
// expectations; exported summary facts are matched against // wantfact
// expectations anchored to the line of the function declaration they
// describe. Every mismatch is a test error.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	ld := &fixtureLoader{
		testdata: testdata,
		fset:     fset,
		gc:       importer.ForCompiler(fset, "gc", load.StdResolver("")),
		cache:    make(map[string]*analysis.Unit),
	}
	for _, pkg := range pkgs {
		if _, err := ld.load(pkg); err != nil {
			t.Fatalf("%s: loading fixture %s: %v", a.Name, pkg, err)
		}
	}
	for _, err := range ld.errs {
		t.Errorf("%s: %v", a.Name, err)
	}

	// Deterministic unit order over everything loaded (including imported
	// sibling fixtures).
	paths := make([]string, 0, len(ld.cache))
	for p := range ld.cache {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var units []*analysis.Unit
	allSources := make(map[string][]byte)
	for _, p := range paths {
		u := ld.cache[p]
		units = append(units, u)
		for name, src := range u.Sources {
			allSources[name] = src
		}
	}

	var findings []analysis.Finding
	type factRec struct {
		file string
		line int
		fact string
	}
	var facts []factRec
	pass := &analysis.Pass{
		Fset:  fset,
		Units: units,
		Report: func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			findings = append(findings, analysis.Finding{
				Analyzer: a.Name, Pos: pos,
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: d.Message,
			})
		},
		ExportFact: func(pos token.Pos, fact string) {
			p := fset.Position(pos)
			facts = append(facts, factRec{p.Filename, p.Line, fact})
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: Run: %v", a.Name, err)
	}

	findings = analysis.FilterByDirectives(findings, allSources)
	analysis.SortFindings(findings)

	wants := parseWants(t, allSources, wantRe)
	for _, f := range findings {
		if !wants.match(f) {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, rel(f.Pos.Filename), f.Pos.Line, f.Message)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, rel(w.file), w.line, w.re.String())
	}

	// Fact expectations: every // wantfact must match some exported fact on
	// its line. Facts without expectations are not errors (summaries are
	// voluminous); only missing expected facts are.
	for _, w := range parseWants(t, allSources, wantFactRe).wants {
		found := false
		for _, f := range facts {
			if f.file == w.file && f.line == w.line && w.re.MatchString(f.fact) {
				found = true
				break
			}
		}
		if !found {
			var nearby []string
			for _, f := range facts {
				if f.file == w.file && f.line == w.line {
					nearby = append(nearby, f.fact)
				}
			}
			t.Errorf("%s: no exported fact at %s:%d matching %q (facts on line: %v)",
				a.Name, rel(w.file), w.line, w.re.String(), nearby)
		}
	}
}

func rel(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, name); err == nil {
			return r
		}
	}
	return name
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

var (
	wantRe     = regexp.MustCompile("//\\s*want\\s+(`([^`]*)`|\"([^\"]*)\")")
	wantFactRe = regexp.MustCompile("//\\s*wantfact\\s+(`([^`]*)`|\"([^\"]*)\")")
)

// parseWants collects the expectations re matches in the sources, in file
// and line order.
func parseWants(t *testing.T, sources map[string][]byte, re *regexp.Regexp) *wantSet {
	t.Helper()
	ws := &wantSet{}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, line := range strings.Split(string(sources[name]), "\n") {
			m := re.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[2]
			if pat == "" {
				pat = m[3]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
			}
			ws.wants = append(ws.wants, &want{file: name, line: i + 1, re: re})
		}
	}
	return ws
}

func (ws *wantSet) match(f analysis.Finding) bool {
	for _, w := range ws.wants {
		if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

// fixtureLoader type-checks fixture packages, resolving sibling fixture
// imports from source and everything else through export data.
type fixtureLoader struct {
	testdata string
	fset     *token.FileSet
	// gc is a single shared export-data importer so that all fixture
	// packages see identical *types.Package instances for e.g. "sync".
	gc       types.Importer
	cache    map[string]*analysis.Unit
	checking []string // import cycle guard
	errs     []error  // type errors of every fixture loaded
}

func (ld *fixtureLoader) load(pkgPath string) (*analysis.Unit, error) {
	if u, ok := ld.cache[pkgPath]; ok {
		return u, nil
	}
	for _, p := range ld.checking {
		if p == pkgPath {
			return nil, errImportCycle(pkgPath)
		}
	}
	ld.checking = append(ld.checking, pkgPath)
	defer func() { ld.checking = ld.checking[:len(ld.checking)-1] }()

	dir := filepath.Join(ld.testdata, "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	u := &analysis.Unit{RelDir: pkgPath, Sources: make(map[string][]byte)}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		u.Sources[full] = src
		f, err := parser.ParseFile(ld.fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		u.Files = append(u.Files, f)
	}

	u.Info = load.NewInfo()
	conf := types.Config{
		Importer: &fixtureImporter{ld: ld},
		Error: func(err error) {
			ld.errs = append(ld.errs, fmt.Errorf("fixture %s: type error: %v", pkgPath, err))
		},
	}
	u.Pkg, _ = conf.Check(pkgPath, ld.fset, u.Files, u.Info)
	ld.cache[pkgPath] = u
	return u, nil
}

type errImportCycle string

func (e errImportCycle) Error() string { return "fixture import cycle through " + string(e) }

// fixtureImporter satisfies types.Importer for fixture type-checking.
type fixtureImporter struct{ ld *fixtureLoader }

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	// Sibling fixture package?
	if dir := filepath.Join(fi.ld.testdata, "src", filepath.FromSlash(path)); isDir(dir) {
		u, err := fi.ld.load(path)
		if err != nil {
			return nil, err
		}
		return u.Pkg, nil
	}
	return fi.ld.gc.Import(path)
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
