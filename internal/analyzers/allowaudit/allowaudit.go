// Package allowaudit validates the lint directives themselves: every
// //lint:allow needs a known analyzer list and a justification. An
// unjustified or misspelled directive silently disables (or fails to
// disable) checking, so the audit is itself an analyzer — and the one
// analyzer whose findings //lint:allow can never suppress.
package allowaudit

import (
	"go/token"
	"sort"
	"strings"

	"logscape/internal/analysis"
)

// Known is the set of valid analyzer names directives may reference. The
// registry (internal/analyzers) populates it at init; it is a package
// variable rather than a constructor argument so that the registry can
// list this analyzer without an import cycle.
var Known map[string]bool

// Analyzer flags malformed or unknown-name lint directives.
var Analyzer = &analysis.Analyzer{
	Name: analysis.AuditAnalyzerName,
	Doc: "validate //lint:allow directives: analyzer names must be registered (or \"all\") " +
		"and every directive needs a justification; a malformed directive suppresses " +
		"nothing and is itself a finding that no directive can suppress",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var names []string
	sources := make(map[string][]byte)
	for _, u := range pass.Units {
		for name, src := range u.Sources {
			names = append(names, name)
			sources[name] = src
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range analysis.ParseDirectives(name, sources[name]) {
			at := linePos(pass.Fset, name, d.Line)
			if len(d.Analyzers) == 0 {
				pass.Reportf(at, "//lint:allow without an analyzer list; write //lint:allow <analyzer> <why>")
				continue
			}
			for _, a := range d.Analyzers {
				if a != "all" && !Known[a] {
					pass.Reportf(at, "//lint:allow names unknown analyzer %q (known: %s)", a, knownList())
				}
			}
			if d.Justification == "" {
				pass.Reportf(at, "//lint:allow %s without a justification; say why the finding is acceptable", strings.Join(d.Analyzers, ","))
			}
		}
	}
	return nil
}

// knownList renders the known analyzer names for error messages.
func knownList() string {
	names := make([]string, 0, len(Known))
	for n := range Known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// linePos resolves file:line to a token.Pos through the pass file set, so
// the finding carries a real position even though the scan is textual.
func linePos(fset *token.FileSet, name string, line int) token.Pos {
	var tf *token.File
	fset.Iterate(func(f *token.File) bool {
		if f.Name() == name {
			tf = f
			return false
		}
		return true
	})
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	return tf.LineStart(line)
}
