// Package taintorder owns every order-dependent use of map iteration
// (maporder keeps only the unsorted append): instead of flagging syntax
// inside range-over-map bodies, it taints every value derived from map
// iteration order (range over a map, maps.Keys/Values/All) and flags only
// when the taint actually reaches an order-sensitive sink — output
// writers, non-commutative accumulators, or RNG seeding. Sorting (any
// callee whose name mentions "sort", matching maporder's heuristic)
// launders the taint, wherever it happens: in the same function, in a
// helper, or on a value returned through any chain of in-module calls.
//
// Order-taint is a value property, not an aliasing property: it survives
// copies, conversions, operators and external calls (strings.Join of keys
// collected in map order is still in map order). The rules live with the
// engine, in internal/analysis/dataflow, which has no other client.
package taintorder

import (
	"logscape/internal/analysis"
	"logscape/internal/analysis/dataflow"
)

// Analyzer flags map-iteration-order values reaching order-sensitive sinks.
var Analyzer = &analysis.Analyzer{
	Name: "taintorder",
	Doc: "flag values derived from map iteration order (range over a map, maps.Keys/Values/All) " +
		"that reach an output writer, a non-commutative accumulator (string/float/complex " +
		"+= or any -= /=), or RNG seeding without an intervening sort — interprocedural: " +
		"taint follows values through helpers and returns; any call whose name mentions " +
		"\"sort\" canonicalizes",
	Run: run,
}

func run(pass *analysis.Pass) error {
	prog := dataflow.BuildProgram(pass.Fset, pass.Units)
	dataflow.Analyze(prog, pass)
	return nil
}
