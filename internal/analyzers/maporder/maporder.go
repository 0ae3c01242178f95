package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"logscape/internal/analysis"
)

// Analyzer flags slices assembled in map iteration order and never sorted.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map loops whose body appends to a slice that the enclosing function " +
		"never sorts afterwards — map iteration order is randomized, and such a slice carries " +
		"it wherever it goes (taintorder owns the flows that reach an output or an accumulator)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, u := range pass.Units {
		for _, file := range u.Files {
			for _, fn := range functionsOf(file) {
				checkFunc(pass, u.Info, fn)
			}
		}
	}
	return nil
}

// functionsOf collects every function body in the file (declarations and
// literals).
func functionsOf(file *ast.File) []ast.Node {
	var fns []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fns = append(fns, n)
		}
		return true
	})
	return fns
}

func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// checkFunc inspects the map-range loops whose nearest enclosing function
// is fn.
func checkFunc(pass *analysis.Pass, info *types.Info, fn ast.Node) {
	body := funcBody(fn)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			// Nested functions are visited on their own.
			return n == fn
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && isMap(tv.Type) {
				checkMapRange(pass, info, body, n)
			}
		}
		return true
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange flags the appends inside one map-range body, unless a sort
// after the loop normalizes the order. funcBody is the body of the
// enclosing function, where that sort is looked for.
func checkMapRange(pass *analysis.Pass, info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	if sortsAfter(funcBody, rng.End()) {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && (as.Tok == token.ASSIGN || as.Tok == token.DEFINE) && hasAppend(info, as.Rhs) {
			pass.Reportf(as.Pos(), "append in map iteration order without a subsequent sort; sort the result or iterate sorted keys")
		}
		return true
	})
}

func hasAppend(info *types.Info, exprs []ast.Expr) bool {
	for _, e := range exprs {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, ok := info.Uses[id].(*types.Builtin); ok {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// sortsAfter reports whether the function body contains a sort call
// positioned after pos — the "subsequent sort" that makes an append safe.
// A sort call is any call whose callee name mentions sort (sort.Strings,
// slices.SortFunc, a local sortPairs helper, ...).
func sortsAfter(body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if strings.Contains(strings.ToLower(calleeName(call)), "sort") {
			found = true
			return false
		}
		return true
	})
	return found
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return ""
}
