package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"logscape/internal/analysis"
)

// interp interprets one function body abstractly, computing its Summary
// and (in the reporting pass) emitting diagnostics at sinks.
type interp struct {
	a   *analyzer
	fn  *Func
	env map[types.Object]Cell
	sum *Summary
	// rets is the return-context stack: the function's result flow at the
	// bottom, one extra frame per nested function literal.
	rets     []*retCtx
	report   bool
	reported map[string]bool
}

type retCtx struct {
	flow  []Cell
	named []*types.Var
}

// interpret runs one abstract interpretation of fn. With report unset it
// is the summary pass (run to fixpoint by Analyze); with report set it is
// the final diagnostics pass.
func (a *analyzer) interpret(fn *Func, report bool) *Summary {
	in := &interp{
		a:      a,
		fn:     fn,
		env:    make(map[types.Object]Cell),
		sum:    newSummary(fn),
		report: report,
	}
	if report {
		in.reported = make(map[string]bool)
	}
	in.rets = []*retCtx{{flow: in.sum.ResultFlow, named: fn.Results}}

	for i, p := range fn.Params {
		if p.Obj == nil {
			continue
		}
		cell := Cell{}
		if i < 64 {
			cell.Params = 1 << i
		}
		in.env[p.Obj] = cell
	}
	in.stmt(fn.Decl.Body)
	return in.sum
}

func (in *interp) info() *types.Info            { return in.fn.Unit.Info }
func (in *interp) typeOf(e ast.Expr) types.Type { return in.info().TypeOf(e) }
func (in *interp) obj(id *ast.Ident) types.Object {
	if o := in.info().Uses[id]; o != nil {
		return o
	}
	return in.info().Defs[id]
}

// paramIndex returns the parameter slot of obj, or -1.
func (in *interp) paramIndex(obj types.Object) int {
	for i, p := range in.fn.Params {
		if p.Obj != nil && p.Obj == obj {
			return i
		}
	}
	return -1
}

// reportf emits one deduplicated diagnostic at pos (reporting pass only).
func (in *interp) reportf(pos token.Pos, src, sink string) {
	if !in.report || src == "" {
		return
	}
	msg := message(src, sink)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if in.reported[key] {
		return
	}
	in.reported[key] = true
	in.a.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
}

// escapeBits records that the parameters in cell reach the described sink,
// so callers passing tainted values here inherit the finding.
func (in *interp) escapeBits(cell Cell, desc string) {
	for i := 0; i < len(in.sum.ParamEscape) && i < 64; i++ {
		if cell.Params&(1<<i) != 0 && in.sum.ParamEscape[i] == "" {
			in.sum.ParamEscape[i] = desc
		}
	}
}

// sink handles a tainted value arriving at a sink: report (if the taint
// has a concrete source) and record parameter escapes.
func (in *interp) sink(pos token.Pos, cell Cell, desc string) {
	if !cell.Tainted() {
		return
	}
	in.reportf(pos, cell.Src, desc)
	in.escapeBits(cell, desc)
}

// joinWith merges another environment into the current one (least upper
// bound per variable).
func (in *interp) joinWith(env map[types.Object]Cell) {
	for k, v := range env {
		in.env[k] = in.env[k].Join(v)
	}
}

// ---- statements ----

func (in *interp) stmts(list []ast.Stmt) {
	for _, s := range list {
		in.stmt(s)
	}
}

func (in *interp) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		in.stmts(s.List)
	case *ast.ExprStmt:
		in.eval(s.X)
	case *ast.AssignStmt:
		in.assignStmt(s)
	case *ast.DeclStmt:
		in.declStmt(s)
	case *ast.ReturnStmt:
		in.returnStmt(s)
	case *ast.IfStmt:
		in.ifStmt(s)
	case *ast.ForStmt:
		in.stmt(s.Init)
		if s.Cond != nil {
			in.eval(s.Cond)
		}
		in.loop(func() { in.stmt(s.Body); in.stmt(s.Post) })
	case *ast.RangeStmt:
		in.rangeStmt(s)
	case *ast.SwitchStmt:
		in.stmt(s.Init)
		if s.Tag != nil {
			in.eval(s.Tag)
		}
		in.branches(s.Body.List, nil)
	case *ast.TypeSwitchStmt:
		in.stmt(s.Init)
		in.typeSwitch(s)
	case *ast.SelectStmt:
		in.branches(s.Body.List, nil)
	case *ast.SendStmt:
		in.eval(s.Chan)
		in.eval(s.Value)
	case *ast.GoStmt:
		in.evalCall(s.Call)
	case *ast.DeferStmt:
		in.evalCall(s.Call)
	case *ast.LabeledStmt:
		in.stmt(s.Stmt)
	case *ast.IncDecStmt:
		in.eval(s.X)
	case *ast.CommClause:
		in.stmt(s.Comm)
		in.stmts(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			in.eval(e)
		}
		in.stmts(s.Body)
	}
}

// loop runs body until the environment stops changing (at most 16 times),
// so taint carried across iterations through a chain of assignments
// propagates fully, and then joins the zero-iteration state back in.
func (in *interp) loop(body func()) {
	pre := cloneEnv(in.env)
	// Strong updates make single runs non-monotone, so the cap backstops
	// oscillation.
	const maxIter = 16
	for i := 0; i < maxIter; i++ {
		before := cloneEnv(in.env)
		body()
		if envEqual(before, in.env) {
			break
		}
	}
	in.joinWith(pre)
}

func envEqual(a, b map[types.Object]Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// branches interprets each clause from the same pre-state and joins the
// results, modelling that exactly one (or none) executes.
func (in *interp) branches(clauses []ast.Stmt, extra func(ast.Stmt)) {
	base, acc := cloneEnv(in.env), in.env
	for _, c := range clauses {
		in.env = cloneEnv(base)
		if extra != nil {
			extra(c)
		}
		in.stmt(c)
		out := in.env
		in.env = acc
		in.joinWith(out)
	}
}

func cloneEnv(m map[types.Object]Cell) map[types.Object]Cell {
	out := make(map[types.Object]Cell, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (in *interp) ifStmt(s *ast.IfStmt) {
	in.stmt(s.Init)
	in.eval(s.Cond)
	base := cloneEnv(in.env)
	in.stmt(s.Body)
	then := in.env
	in.env = base
	in.stmt(s.Else)
	in.joinWith(then)
}

func (in *interp) typeSwitch(s *ast.TypeSwitchStmt) {
	// The asserted expression's taint flows into each clause's implicit
	// binding.
	var cell Cell
	switch assign := s.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(assign.X).(*ast.TypeAssertExpr); ok {
			cell = in.eval(ta.X)
		}
	case *ast.AssignStmt:
		if len(assign.Rhs) == 1 {
			if ta, ok := ast.Unparen(assign.Rhs[0]).(*ast.TypeAssertExpr); ok {
				cell = in.eval(ta.X)
			}
		}
	}
	in.branches(s.Body.List, func(c ast.Stmt) {
		if obj := in.info().Implicits[c]; obj != nil {
			in.env[obj] = cell
		}
	})
}

func (in *interp) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := in.obj(name)
			if obj == nil || name.Name == "_" {
				continue
			}
			cell := Cell{}
			if i < len(vs.Values) {
				cell = in.eval(vs.Values[i])
			} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
				cells := in.evalMulti(vs.Values[0])
				if i < len(cells) {
					cell = cells[i]
				}
			}
			in.env[obj] = cell
		}
	}
}

func (in *interp) returnStmt(s *ast.ReturnStmt) {
	ctx := in.rets[len(in.rets)-1]
	switch {
	case len(s.Results) == 0:
		for j, v := range ctx.named {
			if j < len(ctx.flow) && v != nil {
				ctx.flow[j] = ctx.flow[j].Join(in.env[v])
			}
		}
	case len(s.Results) == len(ctx.flow):
		for j, r := range s.Results {
			ctx.flow[j] = ctx.flow[j].Join(in.eval(r))
		}
	case len(s.Results) == 1:
		cells := in.evalMulti(s.Results[0])
		for j := range ctx.flow {
			if j < len(cells) {
				ctx.flow[j] = ctx.flow[j].Join(cells[j])
			}
		}
	}
}

func (in *interp) rangeStmt(s *ast.RangeStmt) {
	elem := in.eval(s.X)
	if isMapType(in.typeOf(s.X)) {
		elem = elem.Join(Cell{Src: mapOrder})
	}
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			if obj := in.obj(id); obj != nil {
				in.env[obj] = elem
				return
			}
		}
		in.storeInto(e, elem)
	}
	in.loop(func() {
		bind(s.Key)
		bind(s.Value)
		in.stmt(s.Body)
	})
}

func (in *interp) assignStmt(s *ast.AssignStmt) {
	switch s.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) == len(s.Rhs) {
			cells := make([]Cell, len(s.Rhs))
			for i, r := range s.Rhs {
				cells[i] = in.eval(r)
			}
			for i, l := range s.Lhs {
				in.assign(l, cells[i])
			}
			return
		}
		// x, y := f() / m[k] / <-ch / v.(T)
		if len(s.Rhs) == 1 {
			cells := in.evalMulti(s.Rhs[0])
			for i, l := range s.Lhs {
				var cell Cell
				if i < len(cells) {
					cell = cells[i]
				}
				in.assign(l, cell)
			}
		}
	default:
		// Compound assignment: x op= y.
		lhs := s.Lhs[0]
		old := in.eval(lhs)
		rhs := in.eval(s.Rhs[0])
		cell := old.Join(rhs)
		if exactCommutativeFold(s.Tok, in.typeOf(lhs)) {
			// Integer +=, *=, |=, &=, ^= are exact and commutative, so an
			// accumulation over a complete iteration yields the same value
			// in any order: the fold canonicalizes the taint away. (A fold
			// cut short by break stays order-dependent and is missed —
			// documented false negative.)
			cell = old
		}
		if rhs.Tainted() && accumSink(s.Tok, in.typeOf(lhs)) {
			in.sink(s.TokPos, rhs, fmt.Sprintf("order-sensitive accumulation (%s)", s.Tok))
		}
		in.assign(lhs, cell)
	}
}

// assign writes cell to the lvalue target. Package-level variables are
// not tracked.
func (in *interp) assign(target ast.Expr, cell Cell) {
	if id, ok := ast.Unparen(target).(*ast.Ident); ok {
		if obj := in.obj(id); obj != nil && id.Name != "_" && !isGlobal(obj) {
			in.env[obj] = cell // strong update
		}
		return
	}
	in.storeInto(target, cell)
}

// storeInto models a write into the memory reachable through target
// (x.f = v, m[k] = v, *p = v, sl[i] = v and chains thereof).
func (in *interp) storeInto(target ast.Expr, cell Cell) {
	baseObj, crossed, viaMap := in.storeBase(target)
	switch {
	case viaMap, baseObj == nil:
		// A store through a map index is keyed, not positional — the map's
		// content does not depend on the order the stores happened in, and
		// iterating the map re-introduces the taint at the range
		// statement. A store with no variable root (into a call result)
		// reaches nothing tracked.
	case !crossed:
		// Pure value-field chain: mutates the local copy only.
		in.env[baseObj] = in.env[baseObj].Join(cell)
	case in.paramIndex(baseObj) >= 0:
		// Caller-visible memory: record the out-flow; the caller decides
		// whether its target was durable.
		i := in.paramIndex(baseObj)
		in.sum.ParamOut[i] = in.sum.ParamOut[i].Join(cell)
	case !isGlobal(baseObj):
		in.env[baseObj] = in.env[baseObj].Join(cell)
	}
}

// storeBase resolves the root variable of an lvalue chain, whether the
// chain crosses into shared memory (pointer deref, slice element, map),
// and whether it passes through a map index.
func (in *interp) storeBase(target ast.Expr) (types.Object, bool, bool) {
	crossed, viaMap := false, false
	e := target
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			crossed = true
			e = t.X
		case *ast.IndexExpr:
			if typ := in.typeOf(t.X); typ != nil {
				switch typ.Underlying().(type) {
				case *types.Array:
					// Array value element: still the local copy.
				case *types.Map:
					crossed = true
					viaMap = true
				default:
					crossed = true // slice, pointer-to-array
				}
			} else {
				crossed = true
			}
			e = t.X
		case *ast.SelectorExpr:
			if xid, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if _, isPkg := in.info().Uses[xid].(*types.PkgName); isPkg {
					return in.obj(t.Sel), true, viaMap
				}
			}
			if typ := in.typeOf(t.X); typ != nil {
				if _, isPtr := typ.Underlying().(*types.Pointer); isPtr {
					crossed = true
				}
			}
			e = t.X
		case *ast.Ident:
			return in.obj(t), crossed, viaMap
		default:
			return nil, crossed, viaMap
		}
	}
}
