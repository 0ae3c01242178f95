package dataflow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
)

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// compile type-checks one single-file package per source, in order, into
// Units. A package is named by its clause and may import the
// standard library and any package compiled before it.
func compile(t *testing.T, srcs ...string) (*token.FileSet, []*analysis.Unit) {
	t.Helper()
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", load.StdResolver(""))
	done := make(map[string]*types.Package)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := done[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	var units []*analysis.Unit
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, "", src, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		name := f.Name.Name
		if f, err = parser.ParseFile(fset, name+".go", src, parser.SkipObjectResolution); err != nil {
			t.Fatal(err)
		}
		info := load.NewInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(name, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatal(err)
		}
		done[name] = pkg
		units = append(units, &analysis.Unit{
			Pkg: pkg, Files: []*ast.File{f}, Info: info, RelDir: name,
			Sources: map[string][]byte{name + ".go": []byte(src)},
		})
	}
	return fset, units
}

// analyzeSrc runs the engine over the packages, returning diagnostics
// ("line: message") and facts by function ID.
func analyzeSrc(t *testing.T, srcs ...string) (diags []string, facts map[string][]string) {
	t.Helper()
	fset, units := compile(t, srcs...)
	prog := BuildProgram(fset, units)
	facts = make(map[string][]string)
	pass := &analysis.Pass{
		Fset:  fset,
		Units: units,
		Report: func(d analysis.Diagnostic) {
			diags = append(diags, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
		},
		ExportFact: func(pos token.Pos, fact string) {
			name := "?"
			for id, fn := range prog.Funcs {
				if fn.Decl.Name.Pos() == pos {
					name = id
				}
			}
			facts[name] = append(facts[name], fact)
		},
	}
	Analyze(prog, pass)
	return diags, facts
}

// preamble gives every test the engine's three rules: source() returns a
// value in map iteration order, sort.Strings sanitizes, fmt.Println is a
// call sink.
const preamble = `package a

import (
	"fmt"
	"sort"
)

var (
	_ = fmt.Println
	_ = sort.Strings
)

var m map[string]int

// source returns whichever key map iteration yields first.
func source() string {
	for k := range m {
		return k
	}
	return ""
}
`

const printed = "map iteration order reaches output write (Println)"

func wantDiag(t *testing.T, diags []string, frag string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d, frag) {
			return
		}
	}
	t.Errorf("no diagnostic containing %q; got %v", frag, diags)
}

func wantNoDiags(t *testing.T, diags []string) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics, got %v", diags)
	}
}

func TestDirectFlow(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := source()
	fmt.Println(s)
}
`)
	wantDiag(t, diags, printed)
}

func TestSanitizerKillsTaint(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := []string{source()}
	sort.Strings(s)
	fmt.Println(s)
}
`)
	wantNoDiags(t, diags)
}

func TestInterproceduralResultFlow(t *testing.T) {
	// Taint returned by a helper flags at the caller's sink.
	diags, facts := analyzeSrc(t, preamble+`
func helper() string { return source() }

func f() {
	fmt.Println(helper())
}
`)
	wantDiag(t, diags, printed)
	got := strings.Join(facts["a.helper"], "; ")
	if !strings.Contains(got, "result#0 tainted: map iteration order") {
		t.Errorf("helper facts = %q, want result#0 tainted", got)
	}
}

func TestInterproceduralParamEscape(t *testing.T) {
	// A helper that prints its parameter flags at the call site feeding
	// it tainted data — two levels deep.
	diags, facts := analyzeSrc(t, preamble+`
func emit(v string) { fmt.Println(v) }
func indirect(v string) { emit(v) }

func f() {
	indirect(source())
}
`)
	wantDiag(t, diags, "call to indirect")
	got := strings.Join(facts["a.indirect"], "; ")
	if !strings.Contains(got, "param#0 escapes") {
		t.Errorf("indirect facts = %q, want param#0 escapes", got)
	}
}

func TestParamOutFlow(t *testing.T) {
	diags, facts := analyzeSrc(t, preamble+`
func fill(dst *string) { *dst = source() }

func f() {
	var s string
	fill(&s)
	fmt.Println(s)
}
`)
	wantDiag(t, diags, printed)
	got := strings.Join(facts["a.fill"], "; ")
	if !strings.Contains(got, "*param#0 tainted: map iteration order") {
		t.Errorf("fill facts = %q, want *param#0 tainted", got)
	}
}

func TestRecursionFixpoint(t *testing.T) {
	// Mutually recursive helpers still converge and propagate.
	diags, _ := analyzeSrc(t, preamble+`
func ping(n int) string {
	if n == 0 {
		return source()
	}
	return pong(n - 1)
}
func pong(n int) string { return ping(n) }

func f() {
	fmt.Println(pong(3))
}
`)
	wantDiag(t, diags, printed)
}

func TestBranchJoin(t *testing.T) {
	// Taint assigned in one branch survives the join.
	diags, _ := analyzeSrc(t, preamble+`
func f(cond bool) {
	s := "ok"
	if cond {
		s = source()
	}
	fmt.Println(s)
}
`)
	wantDiag(t, diags, printed)
}

func TestLoopCarriedTaint(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := "ok"
	t := "ok"
	for i := 0; i < 3; i++ {
		fmt.Println(t) // t is tainted from the previous iteration
		t = s
		s = source()
	}
}
`)
	wantDiag(t, diags, printed)
}

func TestClosureCaptureStore(t *testing.T) {
	// A closure storing into a captured variable taints it for the
	// enclosing function.
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	var out []string
	s := source()
	fn := func() {
		out = append(out, s)
	}
	fn()
	fmt.Println(out)
}
`)
	wantDiag(t, diags, printed)
}

func TestPackageQualifiedCall(t *testing.T) {
	// A qualified call pkg.F(a, b) has no receiver: a belongs in F's
	// first parameter slot. A method call's receiver takes slot 0.
	diags, facts := analyzeSrc(t, `package b

func First(x, y string) string { return x }

type T struct{}

func (T) First(x, y string) string { return x }
`, `package a

import (
	"b"
	"fmt"
)

var m map[string]int

func source() string {
	for k := range m {
		return k
	}
	return ""
}

func viaPackage() {
	fmt.Println(b.First(source(), "x"))
}

func viaMethod(t b.T) {
	fmt.Println(t.First(source(), "x"))
}

func clean(t b.T) {
	fmt.Println(b.First("x", source()), t.First("x", source()))
}
`)
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics (viaPackage, viaMethod), got %v", diags)
	}
	got := strings.Join(facts["b.First"], "; ")
	if got != "result#0 from param#0" {
		t.Errorf("b.First facts = %q, want result#0 from param#0", got)
	}
}

func TestSCCOrderBottomUp(t *testing.T) {
	fset, units := compile(t, preamble+`
func leaf() string { return source() }
func mid() string { return leaf() }
func top() string { return mid() }
`)
	prog := BuildProgram(fset, units)
	pos := map[string]int{}
	for i, scc := range prog.SCCs {
		for _, id := range scc {
			pos[id] = i
		}
	}
	if !(pos["a.leaf"] < pos["a.mid"] && pos["a.mid"] < pos["a.top"]) {
		t.Errorf("SCC order not bottom-up: %v", prog.SCCs)
	}
}

func TestDeterministicDiagnostics(t *testing.T) {
	src := preamble + `
func h1() string { return source() }
func h2() string { return h1() }
func f() {
	fmt.Println(h2())
	var total float64
	for _, v := range m {
		total += float64(v)
	}
	fmt.Println(h1(), total)
}
`
	first, _ := analyzeSrc(t, src)
	if len(first) < 3 {
		t.Fatalf("want at least 3 diagnostics, got %v", first)
	}
	for i := 0; i < 5; i++ {
		again, _ := analyzeSrc(t, src)
		if strings.Join(first, "\n") != strings.Join(again, "\n") {
			t.Fatalf("diagnostics differ between runs:\n%v\nvs\n%v", first, again)
		}
	}
}
