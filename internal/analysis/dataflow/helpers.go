package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MatchCallee resolves the callee for Spec matchers: like StaticCallee but
// also returning interface methods, so name-based sink matching sees
// io.Writer.Write and friends. The engine never has summaries for
// interface methods, so the permissive resolution cannot misroute the
// interprocedural step.
func MatchCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// CalleeIs reports whether the call's statically resolved callee is the
// package-level function or method name of the package at pkgPath.
func (ci *CallInfo) CalleeIs(pkgPath, name string) bool {
	fn := ci.Callee
	if fn == nil || fn.Name() != name {
		return false
	}
	pkg := fn.Pkg()
	return pkg != nil && pkg.Path() == pkgPath
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
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

// pointerFree reports whether values of type t cannot hold references into
// other memory: basic non-string types, and arrays/structs thereof. Such
// values can be stored anywhere without retaining aliased buffers, so
// alias-mode analyses drop their taint. Value-field recursion cannot cycle
// (a struct cannot contain itself by value), so no visited set is needed.
func pointerFree(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString == 0 && u.Kind() != types.UnsafePointer
	case *types.Array:
		return pointerFree(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFree(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}
