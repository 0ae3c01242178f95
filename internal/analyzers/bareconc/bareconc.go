package bareconc

import (
	"go/ast"
	"go/types"

	"logscape/internal/analysis"
)

// parallelPath is the shared engine: the one package whose job is to write
// the go statements, WaitGroups and channels everyone else routes through.
const parallelPath = "logscape/internal/parallel"

// Analyzer flags bare go statements, sync.WaitGroup uses and channel
// creation outside the shared parallel engine.
var Analyzer = &analysis.Analyzer{
	Name: "bareconc",
	Doc: "forbid hand-rolled concurrency (go statements, sync.WaitGroup, channel fan-out) " +
		"outside internal/parallel; route fan-out through parallel.Map or parallel.MapShards " +
		"so the deterministic ordered-merge contract keeps holding",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, u := range pass.Units {
		if u.Pkg.Path() == parallelPath {
			continue
		}
		u.Inspect(func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "bare go statement outside internal/parallel; use parallel.Map or parallel.MapShards")
			case *ast.SelectorExpr:
				if isPkgSymbol(u.Info, n, "sync", "WaitGroup") {
					pass.Reportf(n.Pos(), "sync.WaitGroup outside internal/parallel; use the shared worker pool instead")
				}
			case *ast.CallExpr:
				if isMakeChan(u.Info, n) {
					pass.Reportf(n.Pos(), "channel fan-out outside internal/parallel; shard work with parallel.MapShards instead")
				}
			}
			return true
		})
	}
	return nil
}

// isPkgSymbol reports whether sel is a reference to pkgPath.name.
func isPkgSymbol(info *types.Info, sel *ast.SelectorExpr, pkgPath, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == pkgPath
}

// isMakeChan reports whether call is make(chan ...).
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.IsType() {
		_, isChan := tv.Type.Underlying().(*types.Chan)
		return isChan
	}
	// Syntactic fallback when type info is incomplete.
	_, isChan := call.Args[0].(*ast.ChanType)
	return isChan
}
