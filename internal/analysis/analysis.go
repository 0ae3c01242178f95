package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow
	// directives. It must be a lowercase identifier.
	Name string
	// Doc is the one-paragraph description printed by `lintscape -list`:
	// the invariant the analyzer encodes and how to satisfy it.
	Doc string
	// Run applies the analyzer once to the whole loaded program.
	Run func(*Pass) error
}

// Unit is one loaded package: its syntax, its types and its raw sources.
type Unit struct {
	Pkg   *types.Package
	Files []*ast.File
	Info  *types.Info
	// RelDir is the package directory relative to the module root. Drivers
	// without a module root use ".".
	RelDir string
	// Sources maps each file name (as recorded in Fset positions) to its
	// raw content, for analyzers that inspect comments or directives
	// textually (e.g. allowaudit).
	Sources map[string][]byte
}

// Inspect walks every file of the unit in depth-first order, calling fn for
// each node; fn returning false prunes the subtree.
func (u *Unit) Inspect(fn func(ast.Node) bool) {
	for _, f := range u.Files {
		ast.Inspect(f, fn)
	}
}

// Pass carries the whole loaded program through an Analyzer's Run function.
type Pass struct {
	Fset *token.FileSet
	// Units are the loaded packages, in deterministic (load) order.
	// Analyzers must not depend on the order beyond determinism.
	Units []*Unit
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// ExportFact, when non-nil, receives one human-readable fact string
	// per function-summary fact the analyzer derives (anchored at the
	// function's declaration). The test harness matches these against
	// // wantfact expectations; drivers leave it nil.
	ExportFact func(token.Pos, string)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Finding is a Diagnostic resolved to a concrete position and annotated
// with its analyzer; the driver's unit of output.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// SortFindings orders findings by file, line, column, analyzer and message
// — the deterministic output order of the driver.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
