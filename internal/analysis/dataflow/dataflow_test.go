package dataflow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
)

// compile type-checks one import-free source file into a ProgramUnit.
func compile(t *testing.T, src string) (*token.FileSet, *analysis.ProgramUnit) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := load.NewInfo()
	conf := types.Config{}
	pkg, err := conf.Check("a", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, &analysis.ProgramUnit{
		Pkg: pkg, Files: []*ast.File{f}, Info: info, RelDir: ".",
		Sources: map[string][]byte{"a.go": []byte(src)},
	}
}

// testSpec: calls to functions named "source" taint their result, "clean"
// sanitizes its result, "emit" is a call sink; heap stores sink too.
func testSpec() *Spec {
	named := func(ci *CallInfo, name string) bool {
		return ci.Callee != nil && ci.Callee.Name() == name
	}
	return &Spec{
		HeapStores: true,
		Source: func(ci *CallInfo) (SourceTaint, bool) {
			if named(ci, "source") {
				return SourceTaint{Reason: "test source", Results: 1}, true
			}
			return SourceTaint{}, false
		},
		Sanitize: func(ci *CallInfo) (SanitizeEffect, bool) {
			if named(ci, "clean") {
				return SanitizeEffect{Results: 1}, true
			}
			return SanitizeEffect{}, false
		},
		CallSink: func(ci *CallInfo) (string, bool) {
			if named(ci, "emit") {
				return "emit call", true
			}
			return "", false
		},
		Message: func(src, sink string) string {
			return fmt.Sprintf("%s reaches %s", src, sink)
		},
	}
}

// analyzeSrc runs the test spec over src, returning diagnostics and facts.
func analyzeSrc(t *testing.T, src string) (diags []string, facts map[string][]string) {
	t.Helper()
	fset, unit := compile(t, src)
	prog := BuildProgram(fset, []*analysis.ProgramUnit{unit})
	facts = make(map[string][]string)
	pass := &analysis.ProgramPass{
		Fset:  fset,
		Units: []*analysis.ProgramUnit{unit},
		Report: func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			diags = append(diags, fmt.Sprintf("%d: %s", pos.Line, d.Message))
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
	Analyze(testSpec(), prog, pass)
	return diags, facts
}

const preamble = `package a

var global map[string]string

func source() string { return "s" }
func clean(s string) string { return s }
func emit(s string) {}
`

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
	emit(s)
}
`)
	wantDiag(t, diags, "test source reaches emit call")
}

func TestSanitizerKillsTaint(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := source()
	s = clean(s)
	emit(s)
}
`)
	wantNoDiags(t, diags)
}

func TestHeapStoreSink(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	global["k"] = source()
}
`)
	wantDiag(t, diags, "store into package-level global")
}

func TestFreshContainerAbsorbsThenEscapes(t *testing.T) {
	// Storing into a local map is fine until the map is stored globally.
	diags, _ := analyzeSrc(t, preamble+`
var sink map[string]map[string]string

func ok() {
	m := map[string]string{}
	m["k"] = source()
	_ = m
}

func bad() {
	m := map[string]string{}
	m["k"] = source()
	sink["x"] = m
}
`)
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %v", diags)
	}
	wantDiag(t, diags, "store into package-level sink")
}

func TestInterproceduralResultFlow(t *testing.T) {
	// Taint returned by a helper flags at the caller's sink.
	diags, facts := analyzeSrc(t, preamble+`
func helper() string { return source() }

func f() {
	emit(helper())
}
`)
	wantDiag(t, diags, "test source reaches emit call")
	got := strings.Join(facts["a.helper"], "; ")
	if !strings.Contains(got, "result#0 tainted: test source") {
		t.Errorf("helper facts = %q, want result#0 tainted", got)
	}
}

func TestInterproceduralParamEscape(t *testing.T) {
	// A helper that stores its parameter flags at the call site feeding
	// it tainted data — two levels deep.
	diags, facts := analyzeSrc(t, preamble+`
func store(v string) { global["k"] = v }
func indirect(v string) { store(v) }

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
	emit(s)
}
`)
	wantDiag(t, diags, "test source reaches emit call")
	got := strings.Join(facts["a.fill"], "; ")
	if !strings.Contains(got, "*param#0 tainted: test source") {
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
	emit(pong(3))
}
`)
	wantDiag(t, diags, "test source reaches emit call")
}

func TestBranchJoin(t *testing.T) {
	// Taint assigned in one branch survives the join.
	diags, _ := analyzeSrc(t, preamble+`
func f(cond bool) {
	s := "ok"
	if cond {
		s = source()
	}
	emit(s)
}
`)
	wantDiag(t, diags, "test source reaches emit call")
}

func TestLoopCarriedTaint(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := "ok"
	t := "ok"
	for i := 0; i < 3; i++ {
		emit(t) // t is tainted from the previous iteration
		t = s
		s = source()
	}
}
`)
	wantDiag(t, diags, "test source reaches emit call")
}

func TestClosureCaptureStore(t *testing.T) {
	diags, _ := analyzeSrc(t, preamble+`
func f() {
	s := source()
	fn := func() {
		global["k"] = s
	}
	fn()
}
`)
	wantDiag(t, diags, "store into package-level global")
}

func TestSCCOrderBottomUp(t *testing.T) {
	fset, unit := compile(t, preamble+`
func leaf() string { return source() }
func mid() string { return leaf() }
func top() string { return mid() }
`)
	prog := BuildProgram(fset, []*analysis.ProgramUnit{unit})
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
	emit(h2())
	global["a"] = h1()
	global["b"] = h2()
}
`
	first, _ := analyzeSrc(t, src)
	for i := 0; i < 5; i++ {
		again, _ := analyzeSrc(t, src)
		if strings.Join(first, "\n") != strings.Join(again, "\n") {
			t.Fatalf("diagnostics differ between runs:\n%v\nvs\n%v", first, again)
		}
	}
}
