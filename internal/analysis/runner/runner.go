// Package runner executes the lintscape analyzer suite over a set of
// packages: it loads them, runs every analyzer once over the whole load,
// applies the //lint:allow directives, and returns the surviving findings
// sorted deterministically. cmd/lintscape and the dogfood self-check test
// share this one implementation so the CLI and the test cannot drift.
package runner

import (
	"fmt"
	"path/filepath"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
)

// Run loads the packages opts names, applies the full suite and returns
// the findings no directive suppresses, in SortFindings order, with
// module-relative file names. A load that fails — a package that does not
// type-check included — or an analyzer that fails is an error, not a
// finding.
func Run(suite []*analysis.Analyzer, opts load.Options) ([]analysis.Finding, error) {
	res, err := load.Load(opts)
	if err != nil {
		return nil, err
	}
	var findings []analysis.Finding
	for _, a := range suite {
		pass := &analysis.Pass{
			Fset:  res.Fset,
			Units: res.Units,
			Report: func(d analysis.Diagnostic) {
				pos := res.Fset.Position(d.Pos)
				findings = append(findings, analysis.Finding{
					Analyzer: a.Name, Pos: pos,
					File: relFile(res.ModuleDir, pos.Filename), Line: pos.Line, Col: pos.Column,
					Message: d.Message,
				})
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}

	sources := make(map[string][]byte)
	for _, u := range res.Units {
		for name, src := range u.Sources {
			sources[name] = src
		}
	}
	findings = analysis.FilterByDirectives(findings, sources)
	analysis.SortFindings(findings)
	return findings, nil
}

// relFile renders a finding file name relative to the module root.
func relFile(moduleDir, file string) string {
	if moduleDir != "" {
		if rel, err := filepath.Rel(moduleDir, file); err == nil {
			return filepath.ToSlash(rel)
		}
	}
	return file
}
