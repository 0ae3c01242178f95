package wallclock

import (
	"go/ast"
	"go/types"

	"logscape/internal/analysis"
)

// banned are the time package functions that read the machine clock,
// directly (Now/Since/Until) or through timers that fire off it
// (NewTimer/NewTicker/Tick/After).
var banned = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "After": true,
}

// Analyzer flags reads of the wall clock.
var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/time.Since/time.Until and the timer constructors " +
		"time.NewTimer/time.NewTicker/time.Tick/time.After in mining code: all time must " +
		"derive from log-entry timestamps so that mined models are a pure function of the " +
		"input; allowlist real timing code per call site with //lint:allow wallclock <why>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, u := range pass.Units {
		u.Inspect(func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !banned[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkgName, ok := u.Info.Uses[id].(*types.PkgName); ok && pkgName.Imported().Path() == "time" {
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock; derive time from log-entry timestamps (logmodel.Millis)", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
