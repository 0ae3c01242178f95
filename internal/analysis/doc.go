// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that lintscape's analyzers build
// on. The build environment vendors no external modules, so the framework
// is grown from the standard library instead: syntax from go/ast, types
// from go/types, and export data for imports resolved through
// `go list -export` (see internal/analysis/load).
//
// Every analyzer has one shape: a Name, a Doc and a Run function that is
// called once with a Pass holding the whole loaded program — one Unit per
// package (parsed files, type-checked package, type info, raw sources) —
// and reports Diagnostics through it. Syntactic analyzers range over the
// units; the interprocedural one (taintorder) builds its call graph over
// them (see internal/analysis/dataflow).
//
// See DESIGN.md §8 (Static invariants).
package analysis
