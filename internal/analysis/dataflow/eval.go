package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// eval computes the abstract value of a single-valued expression,
// interpreting any side effects (calls, function literals) along the way.
// Order-taint is a value property, so it rides through copies, operators,
// conversions and element loads alike.
func (in *interp) eval(e ast.Expr) Cell {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := in.obj(e); obj != nil {
			return in.env[obj]
		}
	case *ast.ParenExpr:
		return in.eval(e.X)
	case *ast.SelectorExpr:
		// Qualified identifier (pkg.X) or method value: no tracked taint.
		if xid, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := in.info().Uses[xid].(*types.PkgName); isPkg {
				return Cell{}
			}
		}
		if sel, ok := in.info().Selections[e]; ok && sel.Kind() != types.FieldVal {
			in.eval(e.X)
			return Cell{}
		}
		return in.eval(e.X) // a field is part of its container's value
	case *ast.IndexExpr:
		// Generic instantiation f[T] is a function value, not an index.
		if tv, ok := in.info().Types[e.X]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return Cell{}
			}
		}
		base := in.eval(e.X)
		idx := in.eval(e.Index)
		if isMapType(in.typeOf(e.X)) {
			// A map lookup is keyed, not positional: maps impose no
			// observable order, so the container's order-taint does not
			// reach the value. An order-derived key still taints the
			// result (the lookup selects by it).
			return idx
		}
		return base.Join(idx)
	case *ast.SliceExpr:
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			in.eval(ix)
		}
		return in.eval(e.X)
	case *ast.StarExpr:
		return in.eval(e.X)
	case *ast.UnaryExpr:
		base := in.eval(e.X)
		if e.Op == token.ARROW {
			return Cell{} // channel receive: sender-side taint untracked
		}
		return base
	case *ast.BinaryExpr:
		return in.eval(e.X).Join(in.eval(e.Y))
	case *ast.CallExpr:
		if cells := in.evalCall(e); len(cells) == 1 {
			return cells[0]
		}
	case *ast.CompositeLit:
		var out Cell
		for _, elt := range e.Elts {
			out = out.Join(in.eval(elt))
		}
		return out
	case *ast.FuncLit:
		in.funcLit(e, nil)
	case *ast.TypeAssertExpr:
		return in.eval(e.X)
	case *ast.KeyValueExpr:
		return in.eval(e.Value)
	}
	return Cell{}
}

// evalMulti computes the abstract values of a possibly multi-valued
// expression (call, map index with comma-ok, receive, type assertion).
func (in *interp) evalMulti(e ast.Expr) []Cell {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return in.evalCall(call)
	}
	// v, ok := m[k] / <-ch / x.(T): the first value carries the taint.
	return []Cell{in.eval(e), {}}
}

// funcLit interprets a function literal inline against the shared
// environment, so closures that capture and store tainted values are seen.
// argCells, when non-nil, seed the literal's parameters (direct calls).
func (in *interp) funcLit(lit *ast.FuncLit, argCells []Cell) []Cell {
	sig, _ := in.typeOf(lit).(*types.Signature)
	nResults := 0
	if sig != nil {
		nResults = sig.Results().Len()
	}
	ctx := &retCtx{flow: make([]Cell, nResults)}
	if lit.Type.Params != nil {
		i := 0
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := in.info().Defs[name]; obj != nil {
					var cell Cell
					if i < len(argCells) {
						cell = argCells[i]
					}
					in.env[obj] = cell
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	in.rets = append(in.rets, ctx)
	in.stmt(lit.Body)
	in.rets = in.rets[:len(in.rets)-1]
	return ctx.flow
}

// evalCall interprets one call expression: conversions, builtins, the
// rules' sources, sanitizers and sinks, and summary application for
// statically resolved in-program callees.
func (in *interp) evalCall(call *ast.CallExpr) []Cell {
	info := in.info()

	// Type conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return []Cell{in.eval(call.Args[0])}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return in.evalBuiltin(b.Name(), call)
		}
	}

	// Direct call of a function literal: interpret inline with arguments.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		argCells := make([]Cell, len(call.Args))
		for i, a := range call.Args {
			argCells[i] = in.eval(a)
		}
		return in.funcLit(lit, argCells)
	}

	callee := matchCallee(info, call)
	out := make([]Cell, callResults(info, call))

	if isSanitizer(callee) {
		in.applySanitize(call)
		return out
	}
	if isSource(callee) {
		if len(out) > 0 {
			out[0] = Cell{Src: mapOrder}
		}
		for _, a := range call.Args {
			in.eval(a) // for their side effects
		}
		return out
	}

	// Evaluate arguments (and receiver) once, aligned to callee params.
	argExprs, recv := in.alignedArgs(call)
	argCells := make([]Cell, len(argExprs))
	for i, a := range argExprs {
		argCells[i] = in.eval(a)
	}

	if desc := sinkDesc(callee); desc != "" {
		// Receiver taint is not a sink (writing *into* a tainted buffer is
		// the buffer's problem); arguments are.
		for _, cell := range argCells[recv:] {
			in.sink(call.Lparen, cell, desc)
		}
		return out
	}

	// Interprocedural step: apply the callee's summary.
	if callee != nil {
		if sum, ok := in.a.summaries[FuncID(callee)]; ok {
			return in.applySummary(callee.Name(), call, sum, argExprs, argCells, len(out))
		}
	}
	// External calls propagate order-taint from arguments to results
	// (strings.Join, fmt.Sprintf preserve the order the inputs were
	// assembled in); only sanitizers launder it.
	var all Cell
	for _, c := range argCells {
		all = all.Join(c)
	}
	for j := range out {
		out[j] = all
	}
	return out
}

// alignedArgs returns the call's argument expressions aligned to the
// callee's parameter slots, and how many leading slots hold a receiver:
// the receiver expression comes first for method calls (a method
// selection), never for package-qualified functions or method expressions.
func (in *interp) alignedArgs(call *ast.CallExpr) ([]ast.Expr, int) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := in.info().Selections[sel]; ok && s.Kind() == types.MethodVal {
			return append([]ast.Expr{sel.X}, call.Args...), 1
		}
	}
	return call.Args, 0
}

// applySummary instantiates the callee's summary at this call site.
func (in *interp) applySummary(calleeName string, call *ast.CallExpr, sum *Summary, argExprs []ast.Expr, argCells []Cell, nResults int) []Cell {
	// A method call via a selector carries the receiver; a plain function
	// call does not. Align lengths with the summary's parameter count by
	// folding variadic extras onto the last slot.
	nParams := len(sum.ParamEscape)
	slot := func(i int) int {
		if i >= nParams && nParams > 0 {
			return nParams - 1 // variadic tail
		}
		return i
	}
	slotCells := make([]Cell, nParams)
	slotExprs := make([]ast.Expr, nParams)
	for i, cell := range argCells {
		s := slot(i)
		if s < 0 || s >= nParams {
			continue
		}
		slotCells[s] = slotCells[s].Join(cell)
		if slotExprs[s] == nil {
			slotExprs[s] = argExprs[i]
		}
	}

	// Tainted arguments reaching a sink inside the callee.
	for i, desc := range sum.ParamEscape {
		if desc == "" || !slotCells[i].Tainted() {
			continue
		}
		in.sink(call.Lparen, slotCells[i], "call to "+calleeName+" ("+desc+")")
	}

	// Out-parameter flows.
	for i, po := range sum.ParamOut {
		if !po.Tainted() {
			continue
		}
		inst := Cell{Src: po.Src}
		for j := 0; j < nParams && j < 64; j++ {
			if po.Params&(1<<j) != 0 {
				inst = inst.Join(slotCells[j])
			}
		}
		if !inst.Tainted() || slotExprs[i] == nil {
			continue
		}
		in.paramOutTarget(slotExprs[i], inst)
	}

	// Result flows.
	out := make([]Cell, nResults)
	for j := 0; j < nResults && j < len(sum.ResultFlow); j++ {
		rf := sum.ResultFlow[j]
		inst := Cell{Src: rf.Src}
		for i := 0; i < nParams && i < 64; i++ {
			if rf.Params&(1<<i) != 0 {
				inst = inst.Join(slotCells[i])
			}
		}
		out[j] = inst
	}
	return out
}

// paramOutTarget delivers a callee's out-parameter taint into the caller's
// argument target (f(&x, ...), f(m, ...)).
func (in *interp) paramOutTarget(arg ast.Expr, cell Cell) {
	switch t := ast.Unparen(arg).(type) {
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			in.storeInto(t.X, cell)
		}
	case *ast.Ident:
		if obj := in.obj(t); obj != nil && !isGlobal(obj) {
			if i := in.paramIndex(obj); i >= 0 {
				in.sum.ParamOut[i] = in.sum.ParamOut[i].Join(cell)
			} else {
				in.env[obj] = in.env[obj].Join(cell)
			}
		}
	}
}

// applySanitize strong-cleans the values a sanitizer sorts in place: the
// root of every argument. For parameters the pending ParamOut record is
// reset too: the summary pass is one linear abstract execution, so a
// sanitizer running after the stores means the caller-visible memory is
// canonical at return. (A sanitizer on only one branch over-clears —
// accepted, sanitizers are explicit.)
func (in *interp) applySanitize(call *ast.CallExpr) {
	clean := func(obj types.Object) {
		in.env[obj] = Cell{}
		if i := in.paramIndex(obj); i >= 0 {
			in.sum.ParamOut[i] = Cell{}
		}
	}
	for _, a := range call.Args {
		if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
			a = u.X
		}
		switch t := ast.Unparen(a).(type) {
		case *ast.Ident:
			if obj := in.obj(t); obj != nil {
				clean(obj)
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
			// sort.Strings(g.nodes) canonicalizes memory reached through
			// the chain's root. The env has no field sensitivity, so the
			// whole root is strong-cleaned — over-broad, but sanitizers
			// are explicit canonicalization points.
			if obj, _, _ := in.storeBase(t.(ast.Expr)); obj != nil && !isGlobal(obj) {
				clean(obj)
			}
		}
	}
}

// evalBuiltin interprets builtin calls.
func (in *interp) evalBuiltin(name string, call *ast.CallExpr) []Cell {
	var out Cell
	switch name {
	case "append", "min", "max":
		// append retains its operands; min and max select among theirs.
		for _, a := range call.Args {
			out = out.Join(in.eval(a))
		}
	case "copy":
		if len(call.Args) == 2 {
			if src := in.eval(call.Args[1]); src.Tainted() {
				in.storeInto(call.Args[0], src)
			}
		}
	default:
		// len, cap, delete, clear, close, make, new, panic, print... Length
		// and capacity are properties of the container, not of the order
		// its contents were assembled in: len of a slice built during map
		// iteration is the same every run. Always clean.
		for _, a := range call.Args {
			in.eval(a)
		}
	}
	return []Cell{out}
}

// callResults returns the number of values the call produces.
func callResults(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return 1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len()
	default:
		if t == types.Typ[types.Invalid] {
			return 1
		}
		if tv.IsVoid() {
			return 0
		}
		return 1
	}
}
