package doclint

import (
	"go/ast"
	"strings"

	"logscape/internal/analysis"
)

// Analyzer flags packages that have no package doc comment.
var Analyzer = &analysis.Analyzer{
	Name: "doclint",
	Doc: "require a package comment on every package so `go doc` explains its purpose " +
		"and invariants; add a doc comment to the primary file or a dedicated doc.go " +
		"(test files and _test packages are exempt)",
	Run: run,
}

func run(pass *analysis.Pass) error {
units:
	for _, u := range pass.Units {
		if strings.HasSuffix(u.Pkg.Name(), "_test") {
			continue
		}
		// The diagnostic anchors to the package clause of the alphabetically
		// first non-test file, so the finding position is deterministic no
		// matter the load order.
		var first *ast.File
		firstName := ""
		for _, f := range u.Files {
			name := pass.Fset.Position(f.Package).Filename
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				continue units
			}
			if first == nil || name < firstName {
				first, firstName = f, name
			}
		}
		if first == nil {
			// Test-only compilation unit.
			continue
		}
		pass.Reportf(first.Package,
			"package %s has no package comment; document its purpose in the primary file or a doc.go",
			u.Pkg.Name())
	}
	return nil
}
