// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture line earns a diagnostic by carrying a comment of the form
//
//	code() // want `regexp`
//
// (a double-quoted form is accepted too). Every reported diagnostic must
// match a want on its line and every want must be matched — so fixtures
// demonstrate both flagged and allowed cases. //lint:allow directives are
// honored exactly as the driver honors them, which lets fixtures assert
// the suppression path as well. A // wantfact comment on a function
// declaration expects a summary fact the analyzer exports for it.
//
// Run is the one entry point: the listed fixtures and the sibling fixtures
// they import are handed to the analyzer as one Pass, exactly as the
// driver hands it the whole module. Fixture imports are resolved from
// source for sibling fixture packages (testdata/src/<path>) and from
// `go list -export` compiler export data for everything else, so fixtures
// may import the standard library freely without testdata ever being part
// of the module build.
//
// See DESIGN.md §8 (Static invariants).
package analysistest
