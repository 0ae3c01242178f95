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
// collected in map order is still in map order), which is why the spec
// runs the engine in value mode.
package taintorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

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
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := dataflow.BuildProgram(pass.Fset, pass.Units)
	dataflow.Analyze(spec, prog, pass)
	return nil
}

// writeNames are method/function names that emit output directly.
var writeNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteRune": true, "WriteByte": true,
}

// rngNames seed or construct random sources; feeding them map-order data
// makes the stream's determinism depend on iteration order.
var rngNames = map[string]bool{"Seed": true, "NewSource": true}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// qualifiedName renders pkg.Name for the sort heuristic, so sort.Strings
// matches on its package just as slices.Sort matches on its name.
func qualifiedName(fn *types.Func) string {
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + fn.Name()
	}
	return fn.Name()
}

var spec = &dataflow.Spec{
	ValueMode: true,

	RangeSource: func(unit *analysis.ProgramUnit, rng *ast.RangeStmt) (string, bool) {
		if t := unit.Info.TypeOf(rng.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				return "map iteration order", true
			}
		}
		return "", false
	},

	Source: func(ci *dataflow.CallInfo) (dataflow.SourceTaint, bool) {
		if ci.CalleeIs("maps", "Keys") || ci.CalleeIs("maps", "Values") || ci.CalleeIs("maps", "All") {
			return dataflow.SourceTaint{Reason: "map iteration order", Results: 1 << 0}, true
		}
		return dataflow.SourceTaint{}, false
	},

	Sanitize: func(ci *dataflow.CallInfo) (dataflow.SanitizeEffect, bool) {
		if ci.Callee != nil && strings.Contains(strings.ToLower(qualifiedName(ci.Callee)), "sort") {
			// Sorting canonicalizes everything it touches: results, and
			// arguments sorted in place (sort.Strings, slices.Sort).
			return dataflow.SanitizeEffect{Results: ^uint64(0), Args: ^uint64(0)}, true
		}
		return dataflow.SanitizeEffect{}, false
	},

	CallSink: func(ci *dataflow.CallInfo) (string, bool) {
		if ci.Callee == nil {
			return "", false
		}
		if writeNames[ci.Callee.Name()] {
			return fmt.Sprintf("output write (%s)", ci.Callee.Name()), true
		}
		if rngNames[ci.Callee.Name()] {
			if pkg := ci.Callee.Pkg(); pkg != nil && isRandPkg(pkg.Path()) {
				return fmt.Sprintf("RNG seeding (rand.%s)", ci.Callee.Name()), true
			}
		}
		return "", false
	},

	AccumSink: func(op token.Token, t types.Type) bool {
		switch op {
		case token.SUB_ASSIGN, token.QUO_ASSIGN:
			return true
		case token.ADD_ASSIGN, token.MUL_ASSIGN:
			// Integer += / *= commute exactly; string += concatenates in
			// visit order and float += / *= round in visit order.
			if t == nil {
				return false
			}
			b, ok := t.Underlying().(*types.Basic)
			return ok && b.Info()&(types.IsString|types.IsFloat|types.IsComplex) != 0
		}
		return false
	},

	Message: func(src, sink string) string {
		return fmt.Sprintf("value derived from %s reaches %s; iteration order is randomized — sort or canonicalize before the value becomes output", src, sink)
	},
}
