package floateq

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"logscape/internal/analysis"
)

// Analyzer flags == and != between computed floating-point expressions.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "flag ==/!= between floating-point expressions except against sentinel literals " +
		"(constants) and the x != x NaN probe; use a tolerance comparison such as " +
		"stats.ApproxEqual instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, u := range pass.Units {
		u.Inspect(func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(u.Info, bin.X) || !isFloat(u.Info, bin.Y) {
				return true
			}
			// Sentinel comparison: one side is a compile-time constant.
			if isConst(u.Info, bin.X) || isConst(u.Info, bin.Y) {
				return true
			}
			// The canonical NaN probe compares an expression with itself.
			if exprString(pass.Fset, bin.X) == exprString(pass.Fset, bin.Y) {
				return true
			}
			pass.Reportf(bin.Pos(), "floating-point %s between computed values; use a tolerance comparison (e.g. stats.ApproxEqual)", bin.Op)
			return true
		})
	}
	return nil
}

func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}
