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
	// fresh marks locals currently holding locally allocated containers:
	// stores into them taint the local instead of reporting.
	fresh map[types.Object]bool
	sum   *Summary
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
		fresh:  make(map[types.Object]bool),
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
		if a.spec.ParamSource != nil {
			if reason, ok := a.spec.ParamSource(fn, i, p.Obj); ok {
				cell = cell.Join(Cell{Src: reason})
			}
		}
		in.env[p.Obj] = cell
	}
	in.stmt(fn.Decl.Body)
	return in.sum
}

func (in *interp) spec() *Spec                  { return in.a.spec }
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
	msg := in.spec().Message(src, sink)
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

// ---- environment snapshots for branch joins ----

func (in *interp) snapshot() (map[types.Object]Cell, map[types.Object]bool) {
	env := make(map[types.Object]Cell, len(in.env))
	for k, v := range in.env {
		env[k] = v
	}
	fresh := make(map[types.Object]bool, len(in.fresh))
	for k, v := range in.fresh {
		fresh[k] = v
	}
	return env, fresh
}

func (in *interp) restore(env map[types.Object]Cell, fresh map[types.Object]bool) {
	in.env, in.fresh = env, fresh
}

// joinWith merges another environment into the current one (least upper
// bound per variable; fresh only survives if fresh on both paths).
func (in *interp) joinWith(env map[types.Object]Cell, fresh map[types.Object]bool) {
	for k, v := range env {
		in.env[k] = in.env[k].Join(v)
	}
	for k := range in.fresh {
		if !fresh[k] {
			delete(in.fresh, k)
		}
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

// loop runs body twice (propagating loop-carried taint) and then joins the
// zero-iteration state back in.
func (in *interp) loop(body func()) {
	preEnv, preFresh := in.snapshot()
	// Iterate the body until the environment stabilises so taint carried
	// across iterations through a chain of assignments propagates fully.
	// Strong updates make single runs non-monotone, so a cap backstops
	// oscillation.
	const maxIter = 16
	for i := 0; i < maxIter; i++ {
		before := cloneEnv(in.env)
		body()
		if envEqual(before, in.env) {
			break
		}
	}
	in.joinWith(preEnv, preFresh)
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
	baseEnv, baseFresh := in.snapshot() // pre-state, shared read-only
	accEnv, accFresh := in.env, in.fresh
	for _, c := range clauses {
		in.restore(cloneEnv(baseEnv), cloneFresh(baseFresh))
		if extra != nil {
			extra(c)
		}
		in.stmt(c)
		outEnv, outFresh := in.env, in.fresh
		in.restore(accEnv, accFresh)
		in.joinWith(outEnv, outFresh)
		accEnv, accFresh = in.env, in.fresh
	}
	in.restore(accEnv, accFresh)
}

func cloneEnv(m map[types.Object]Cell) map[types.Object]Cell {
	out := make(map[types.Object]Cell, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneFresh(m map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (in *interp) ifStmt(s *ast.IfStmt) {
	in.stmt(s.Init)
	in.eval(s.Cond)
	baseEnv, baseFresh := in.snapshot()
	in.stmt(s.Body)
	thenEnv, thenFresh := in.snapshot()
	in.restore(baseEnv, baseFresh)
	if s.Else != nil {
		in.stmt(s.Else)
	}
	in.joinWith(thenEnv, thenFresh)
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
			freshVal := true // zero values are locally owned
			if i < len(vs.Values) {
				cell = in.eval(vs.Values[i])
				freshVal = in.freshExpr(vs.Values[i], cell)
			} else if len(vs.Values) == 1 && len(vs.Names) > 1 {
				cells := in.evalMulti(vs.Values[0])
				if i < len(cells) {
					cell = cells[i]
				}
				freshVal = !cell.Tainted()
			}
			in.env[obj] = cell
			in.fresh[obj] = freshVal
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
	cellX := in.eval(s.X)
	spec := in.spec()

	var elem Cell
	if spec.ValueMode {
		elem = cellX
	}
	if spec.RangeSource != nil {
		if reason, ok := spec.RangeSource(in.fn.Unit, s); ok {
			elem = elem.Join(Cell{Src: reason})
		}
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
				in.fresh[obj] = false
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
			freshes := make([]bool, len(s.Rhs))
			for i, r := range s.Rhs {
				cells[i] = in.eval(r)
				freshes[i] = in.freshExpr(r, cells[i])
			}
			for i, l := range s.Lhs {
				in.assign(l, cells[i], freshes[i])
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
				in.assign(l, cell, !cell.Tainted())
			}
		}
	default:
		// Compound assignment: x op= y.
		lhs := s.Lhs[0]
		old := in.eval(lhs)
		rhs := in.eval(s.Rhs[0])
		cell := old.Join(rhs)
		if !in.spec().ValueMode {
			// Alias modes: operators produce fresh values.
			cell = Cell{}
		} else if exactCommutativeFold(s.Tok, in.typeOf(lhs)) {
			// Integer +=, *=, |=, &=, ^= are exact and commutative, so an
			// accumulation over a complete iteration yields the same value
			// in any order: the fold canonicalizes the taint away. (A fold
			// cut short by break stays order-dependent and is missed —
			// documented false negative.)
			cell = old
		}
		if as := in.spec().AccumSink; as != nil && rhs.Tainted() && as(s.Tok, in.typeOf(lhs)) {
			in.sink(s.TokPos, rhs, fmt.Sprintf("order-sensitive accumulation (%s)", s.Tok))
		}
		in.assign(lhs, cell, false)
	}
}

// assign writes cell to the lvalue target. freshVal reports whether the
// assigned value is a locally allocated container.
func (in *interp) assign(target ast.Expr, cell Cell, freshVal bool) {
	if id, ok := ast.Unparen(target).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := in.obj(id)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Assignment to a package-level variable.
			if in.spec().HeapStores {
				in.sink(id.Pos(), cell, fmt.Sprintf("assignment to package-level variable %s", id.Name))
			}
			return
		}
		in.env[obj] = cell // strong update
		in.fresh[obj] = freshVal
		return
	}
	in.storeInto(target, cell)
}

// storeInto models a write into the memory reachable through target
// (x.f = v, m[k] = v, *p = v, sl[i] = v and chains thereof).
func (in *interp) storeInto(target ast.Expr, cell Cell) {
	baseObj, crossed, viaMap := in.storeBase(target)
	if viaMap && in.spec().ValueMode {
		// Order-taint mode: a store through a map index is keyed, not
		// positional — the map's content does not depend on the order the
		// stores happened in, and iterating the map re-introduces the
		// taint at the range statement. The container stays clean.
		return
	}
	switch {
	case baseObj == nil:
		// Store through an expression with no variable root (call result,
		// etc.): treat as a heap store.
		if crossed && in.spec().HeapStores {
			in.sink(target.Pos(), cell, "store into heap-reachable memory")
		}
	case !crossed:
		// Pure value-field chain: mutates the local copy only.
		in.env[baseObj] = in.env[baseObj].Join(cell)
	default:
		if i := in.paramIndex(baseObj); i >= 0 {
			if in.spec().ParamStores {
				// Contract modes (recycleuse): retaining tainted data in
				// caller-visible memory is the violation itself.
				in.sink(target.Pos(), cell, fmt.Sprintf("store through parameter %s", baseObj.Name()))
				return
			}
			// Caller-visible memory: record the out-flow; the caller
			// decides whether its target was durable.
			if i < len(in.sum.ParamOut) {
				in.sum.ParamOut[i] = in.sum.ParamOut[i].Join(cell)
			}
			return
		}
		if v, ok := baseObj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			if in.spec().HeapStores {
				in.sink(target.Pos(), cell, fmt.Sprintf("store into package-level %s", v.Name()))
			}
			return
		}
		if in.fresh[baseObj] {
			// Locally allocated container absorbs the taint; it only
			// flags if the container itself escapes later.
			in.env[baseObj] = in.env[baseObj].Join(cell)
			return
		}
		in.env[baseObj] = in.env[baseObj].Join(cell)
		if in.spec().HeapStores {
			in.sink(target.Pos(), cell, fmt.Sprintf("store into heap-reachable %s", baseObj.Name()))
		}
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

// freshExpr reports whether e evaluates to locally allocated memory.
func (in *interp) freshExpr(e ast.Expr, cell Cell) bool {
	if cell.Tainted() {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return in.freshExpr(e.X, cell)
		}
	case *ast.Ident:
		if obj := in.obj(e); obj != nil {
			return in.fresh[obj]
		}
	case *ast.SliceExpr:
		return in.freshExpr(e.X, cell)
	case *ast.CallExpr:
		// make/new, append chains rooted in fresh slices, and untainted
		// constructor results all count as locally owned: treating them
		// as shared heap would flag every store into a just-built
		// container. A container that later escapes still flags there.
		return true
	case *ast.BasicLit:
		return true
	}
	return false
}
