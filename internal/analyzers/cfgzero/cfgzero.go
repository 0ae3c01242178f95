package cfgzero

import (
	"go/ast"
	"go/types"

	"logscape/internal/analysis"
)

// Analyzer flags Config literals that set Workers but no threshold field.
var Analyzer = &analysis.Analyzer{
	Name: "cfgzero",
	Doc: "flag miner Config composite literals that set Workers while leaving every " +
		"threshold field zero; half-initialized configs silently inherit defaults — set the " +
		"thresholds explicitly or start from the package's DefaultConfig()",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, u := range pass.Units {
		u.Inspect(func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := u.Info.Types[lit]
			if !ok || !isWorkersConfig(tv.Type) {
				return true
			}
			setsWorkers, setsOther := false, false
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					// Positional literals set every field; nothing to flag.
					return true
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Workers" {
					setsWorkers = true
				} else {
					setsOther = true
				}
			}
			if setsWorkers && !setsOther {
				pass.Reportf(lit.Pos(), "%s literal sets Workers but every threshold field is left zero; set thresholds explicitly or start from DefaultConfig()", typeLabel(tv.Type))
			}
			return true
		})
	}
	return nil
}

// isWorkersConfig reports whether t is a struct type named Config with an
// int field named Workers — the shape shared by all miner configurations.
func isWorkersConfig(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Config" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "Workers" {
			b, ok := f.Type().Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0
		}
	}
	return false
}

func typeLabel(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return t.String()
	}
	if pkg := named.Obj().Pkg(); pkg != nil {
		return pkg.Name() + "." + named.Obj().Name()
	}
	return named.Obj().Name()
}
