package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The engine's rules: where order-taint is born, what launders it, and
// where it must not arrive. They are the taintorder analyzer's contract
// (DESIGN.md §8), kept in this one file.

// mapOrder is the taint reason every source carries.
const mapOrder = "map iteration order"

// writeNames are method/function names that emit output directly.
var writeNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteRune": true, "WriteByte": true,
}

// rngNames seed or construct random sources; feeding them map-order data
// makes the stream's determinism depend on iteration order.
var rngNames = map[string]bool{"Seed": true, "NewSource": true}

// matchCallee resolves the callee for the rules: like StaticCallee but
// also returning interface methods, so name-based sink matching sees
// io.Writer.Write and friends. The engine never has summaries for
// interface methods, so the permissive resolution cannot misroute the
// interprocedural step.
func matchCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if fn := StaticCallee(info, call); fn != nil {
		return fn
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
	}
	return nil
}

// isSource reports whether fn returns its first result in map iteration
// order (maps.Keys, maps.Values, maps.All).
func isSource(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// isSanitizer reports whether fn canonicalizes everything it touches — its
// results, and its arguments sorted in place (sort.Strings, slices.Sort):
// any callee whose package-qualified name mentions "sort", maporder's
// heuristic.
func isSanitizer(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil {
		name = pkg.Name() + "." + name
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// sinkDesc describes the call sink fn is — an output write or RNG seeding
// — or returns "" when fn is none.
func sinkDesc(fn *types.Func) string {
	switch {
	case fn == nil:
		return ""
	case writeNames[fn.Name()]:
		return fmt.Sprintf("output write (%s)", fn.Name())
	case rngNames[fn.Name()] && fn.Pkg() != nil &&
		(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2"):
		return fmt.Sprintf("RNG seeding (rand.%s)", fn.Name())
	}
	return ""
}

// accumSink reports whether the compound assignment op on a target of
// type t is an order-sensitive accumulation: any -= or /=, and += or *=
// on strings (concatenation in visit order) and floats or complexes
// (rounding in visit order).
func accumSink(op token.Token, t types.Type) bool {
	switch op {
	case token.SUB_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ADD_ASSIGN, token.MUL_ASSIGN:
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsString|types.IsFloat|types.IsComplex) != 0
	}
	return false
}

// exactCommutativeFold reports whether the compound-assignment token op on
// a target of type t is an exact, commutative accumulation (integer +=,
// *=, |=, &=, ^=): any complete fold with it is order-independent.
func exactCommutativeFold(op token.Token, t types.Type) bool {
	switch op {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.AND_ASSIGN,
		token.OR_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// message renders a diagnostic from the taint reason and the sink
// description.
func message(src, sink string) string {
	return fmt.Sprintf("value derived from %s reaches %s; iteration order is randomized — sort or canonicalize before the value becomes output", src, sink)
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isGlobal reports whether obj is a package-level variable.
func isGlobal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
