// Package runner executes the lintscape analyzer suite over a set of
// packages: it loads them, runs the per-package analyzers in parallel and
// the program-level (dataflow) analyzers over the whole load, applies the
// //lint:allow directives, and returns the surviving findings sorted
// deterministically. cmd/lintscape and the dogfood self-check test share
// this one implementation so the CLI and the test cannot drift.
package runner

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"logscape/internal/analysis"
	"logscape/internal/analysis/load"
	"logscape/internal/parallel"
)

// Options configures one Run.
type Options struct {
	// Dir is the working directory for the go command (default: cwd).
	Dir string
	// Patterns are the package patterns to analyze (default: ./...).
	Patterns []string
	// Tests includes in-package and external _test.go files.
	Tests bool
	// Workers bounds the load and per-package analysis parallelism
	// (0 = GOMAXPROCS, 1 = sequential). Program-level analysis is
	// single-threaded regardless, so findings are identical at any width.
	Workers int
}

// Result is the outcome of a Run.
type Result struct {
	// Findings are the surviving findings (directives filtered), in
	// SortFindings order. File names are module-relative.
	Findings []analysis.Finding
	// ModuleDir is the main module root the load resolved.
	ModuleDir string
}

// Run loads the packages and applies the full suite.
func Run(suite []*analysis.Analyzer, opts Options) (*Result, error) {
	res, err := load.Load(load.Options{
		Dir: opts.Dir, Patterns: opts.Patterns,
		Tests: opts.Tests, Workers: opts.Workers,
	})
	if err != nil {
		return nil, err
	}
	var loadErrs []string
	for _, pkg := range res.Packages {
		for _, e := range pkg.Errors {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %v", pkg.ImportPath, e))
		}
	}
	if len(loadErrs) > 0 {
		return nil, errors.New(strings.Join(loadErrs, "\n"))
	}

	perPkg := parallel.Map(parallel.Workers(opts.Workers), len(res.Packages), func(i int) []analysis.Finding {
		return checkPackage(res.Packages[i], suite, res.ModuleDir)
	})
	var findings []analysis.Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	findings = append(findings, checkProgram(res, suite)...)

	allSources := make(map[string][]byte)
	for _, pkg := range res.Packages {
		for name, src := range pkg.Sources {
			allSources[name] = src
		}
	}
	findings = analysis.FilterByDirectives(findings, allSources)
	analysis.SortFindings(findings)
	return &Result{Findings: findings, ModuleDir: res.ModuleDir}, nil
}

// checkPackage runs every per-package analyzer over one package.
func checkPackage(pkg *load.Package, suite []*analysis.Analyzer, moduleDir string) []analysis.Finding {
	var findings []analysis.Finding
	for _, a := range suite {
		if a.Run == nil {
			continue
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Sources:   pkg.Sources,
			Report: func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, analysis.Finding{
					Analyzer: a.Name, Pos: pos,
					File: relFile(moduleDir, pos.Filename), Line: pos.Line, Col: pos.Column,
					Message: d.Message,
				})
			},
		}
		if _, err := a.Run(pass); err != nil {
			findings = append(findings, analysis.Finding{
				Analyzer: a.Name, File: pkg.RelDir,
				Message: fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	return findings
}

// checkProgram runs the program-level analyzers once over the whole load.
func checkProgram(res *load.Result, suite []*analysis.Analyzer) []analysis.Finding {
	units := make([]*analysis.ProgramUnit, 0, len(res.Packages))
	for _, pkg := range res.Packages {
		units = append(units, &analysis.ProgramUnit{
			Pkg: pkg.Types, Files: pkg.Files, Info: pkg.Info,
			RelDir: pkg.RelDir, Sources: pkg.Sources,
		})
	}

	var findings []analysis.Finding
	for _, a := range suite {
		if a.RunProgram == nil {
			continue
		}
		pass := &analysis.ProgramPass{
			Analyzer: a,
			Fset:     res.Fset,
			Units:    units,
			Report: func(d analysis.Diagnostic) {
				pos := res.Fset.Position(d.Pos)
				findings = append(findings, analysis.Finding{
					Analyzer: a.Name, Pos: pos,
					File: relFile(res.ModuleDir, pos.Filename), Line: pos.Line, Col: pos.Column,
					Message: d.Message,
				})
			},
		}
		if err := a.RunProgram(pass); err != nil {
			findings = append(findings, analysis.Finding{
				Analyzer: a.Name,
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	return findings
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
