package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// eval computes the abstract value of a single-valued expression,
// interpreting any side effects (calls, function literals) along the way.
func (in *interp) eval(e ast.Expr) Cell {
	spec := in.spec()
	switch e := e.(type) {
	case nil:
		return Cell{}
	case *ast.Ident:
		if obj := in.obj(e); obj != nil {
			return in.env[obj]
		}
		return Cell{}
	case *ast.BasicLit:
		return Cell{}
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
		// Field read: the field is part of the container's memory. In alias
		// modes a pointer-free field (b.Index, b.Range) cannot retain the
		// aliased buffer, so its taint drops.
		cell := in.eval(e.X)
		if !spec.ValueMode && pointerFree(in.typeOf(e)) {
			return Cell{Params: 0}
		}
		return cell
	case *ast.IndexExpr:
		// Generic instantiation f[T] is a function value, not an index.
		if tv, ok := in.info().Types[e.X]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return Cell{}
			}
		}
		base := in.eval(e.X)
		idx := in.eval(e.Index)
		if spec.ValueMode {
			if isMapType(in.typeOf(e.X)) {
				// A map lookup is keyed, not positional: maps impose no
				// observable order, so the container's order-taint does not
				// reach the value. An order-derived key still taints the
				// result (the lookup selects by it).
				return idx
			}
			return base.Join(idx)
		}
		return Cell{} // element load is a durable copy
	case *ast.IndexListExpr:
		return Cell{}
	case *ast.SliceExpr:
		// A subslice shares the backing array in every mode.
		for _, ix := range []ast.Expr{e.Low, e.High, e.Max} {
			in.eval(ix)
		}
		return in.eval(e.X)
	case *ast.StarExpr:
		// A deref copies the pointed-to value, but the copy still carries
		// any slice/map/pointer headers inside it, so taint propagates
		// unless the copied type is pointer-free.
		base := in.eval(e.X)
		if spec.ValueMode || !pointerFree(in.typeOf(e)) {
			return base
		}
		return Cell{}
	case *ast.UnaryExpr:
		base := in.eval(e.X)
		switch e.Op {
		case token.AND:
			return base // pointer into tainted memory stays tainted
		case token.ARROW:
			return Cell{} // channel receive: sender-side taint untracked
		default:
			if spec.ValueMode {
				return base
			}
			return Cell{}
		}
	case *ast.BinaryExpr:
		x, y := in.eval(e.X), in.eval(e.Y)
		if spec.ValueMode {
			return x.Join(y)
		}
		return Cell{} // operators build fresh values in alias modes
	case *ast.CallExpr:
		cells := in.evalCall(e)
		if len(cells) == 1 {
			return cells[0]
		}
		return Cell{}
	case *ast.CompositeLit:
		var out Cell
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				out = out.Join(in.eval(kv.Value))
				continue
			}
			out = out.Join(in.eval(elt))
		}
		return out
	case *ast.FuncLit:
		in.funcLit(e, nil)
		return Cell{}
	case *ast.TypeAssertExpr:
		return in.eval(e.X)
	case *ast.KeyValueExpr:
		return in.eval(e.Value)
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.StructType,
		*ast.InterfaceType, *ast.FuncType, *ast.Ellipsis:
		return Cell{}
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

// evalCall interprets one call expression: conversions, builtins, unsafe
// reinterpretations, spec sources/sanitizers/sinks, and summary
// application for statically resolved in-program callees.
func (in *interp) evalCall(call *ast.CallExpr) []Cell {
	spec := in.spec()
	info := in.info()

	// Type conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		arg := in.eval(call.Args[0])
		if !spec.ValueMode && isStringByteConversion(tv.Type, in.typeOf(call.Args[0])) {
			return []Cell{{}} // string <-> []byte conversions copy
		}
		return []Cell{arg}
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return in.evalBuiltin(b.Name(), call)
		}
	}

	// unsafe.String / unsafe.Slice / unsafe.Pointer reinterpretations
	// alias their argument's memory in every mode.
	if callee := StaticCallee(info, call); callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "unsafe" {
		var out Cell
		for _, a := range call.Args {
			out = out.Join(in.eval(a))
		}
		return []Cell{out}
	}

	// Direct call of a function literal: interpret inline with arguments.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		argCells := make([]Cell, len(call.Args))
		for i, a := range call.Args {
			argCells[i] = in.eval(a)
		}
		return in.funcLit(lit, argCells)
	}

	ci := &CallInfo{Call: call, Callee: MatchCallee(info, call)}
	nResults := callResults(info, call)

	if spec.Sanitize != nil {
		if _, ok := spec.Sanitize(ci); ok {
			in.applySanitize(call)
			return make([]Cell, nResults)
		}
	}
	if spec.Source != nil {
		if st, ok := spec.Source(ci); ok {
			return in.applySource(call, st, nResults)
		}
	}

	// Evaluate arguments (and receiver) once, aligned to callee params.
	argExprs := alignedArgs(call)
	argCells := make([]Cell, len(argExprs))
	for i, a := range argExprs {
		argCells[i] = in.eval(a)
	}

	if spec.CallSink != nil {
		if desc, ok := spec.CallSink(ci); ok {
			for i, a := range call.Args {
				// Receiver taint is not a sink (writing *into* a tainted
				// buffer is the buffer's problem); arguments are.
				_ = i
				cell := in.eval(a)
				if cell.Tainted() {
					in.sink(call.Lparen, cell, desc)
				}
			}
			return make([]Cell, nResults)
		}
	}

	// Interprocedural step: apply the callee's summary.
	if ci.Callee != nil {
		if sum, ok := in.a.summaries[FuncID(ci.Callee)]; ok {
			return in.applySummary(ci, sum, argExprs, argCells, nResults)
		}
	}
	out := make([]Cell, nResults)
	if spec.ValueMode {
		// External calls propagate order-taint from arguments to results
		// (strings.Join, fmt.Sprintf preserve the order the inputs were
		// assembled in); only matched sanitizers launder it.
		var all Cell
		for _, c := range argCells {
			all = all.Join(c)
		}
		if all.Tainted() {
			for j := range out {
				out[j] = all
			}
		}
	}
	return out
}

// alignedArgs returns the call's argument expressions aligned to the
// callee's parameter slots: the receiver expression first for method
// calls, then the arguments.
func alignedArgs(call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return append([]ast.Expr{sel.X}, call.Args...)
	}
	return call.Args
}

// applySummary instantiates the callee's summary at this call site.
func (in *interp) applySummary(ci *CallInfo, sum *Summary, argExprs []ast.Expr, argCells []Cell, nResults int) []Cell {
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

	calleeName := ci.Callee.Name()

	// Tainted arguments reaching a sink inside the callee.
	for i, desc := range sum.ParamEscape {
		if desc == "" || !slotCells[i].Tainted() {
			continue
		}
		in.sink(ci.Call.Lparen, slotCells[i], "call to "+calleeName+" ("+desc+")")
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
		in.paramOutTarget(slotExprs[i], inst, calleeName)
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
func (in *interp) paramOutTarget(arg ast.Expr, cell Cell, calleeName string) {
	switch t := ast.Unparen(arg).(type) {
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			if id, ok := ast.Unparen(t.X).(*ast.Ident); ok {
				if obj := in.obj(id); obj != nil {
					if v, ok := obj.(*types.Var); !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
						in.env[obj] = in.env[obj].Join(cell)
						in.fresh[obj] = false
						return
					}
				}
			}
			in.storeInto(t.X, cell)
			return
		}
	case *ast.Ident:
		if obj := in.obj(t); obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				if in.spec().HeapStores {
					in.sink(arg.Pos(), cell, "call to "+calleeName+" writing into package-level "+t.Name)
				}
				return
			}
			if i := in.paramIndex(obj); i >= 0 && i < len(in.sum.ParamOut) {
				in.sum.ParamOut[i] = in.sum.ParamOut[i].Join(cell)
				return
			}
			in.env[obj] = in.env[obj].Join(cell)
			return
		}
	}
	// Pointer into arbitrary memory: a store the caller can see.
	if in.spec().HeapStores {
		in.sink(arg.Pos(), cell, "call to "+calleeName+" writing through "+exprString(arg))
	}
}

// applySource seeds taint from a matched source call.
func (in *interp) applySource(call *ast.CallExpr, st SourceTaint, nResults int) []Cell {
	out := make([]Cell, nResults)
	for j := 0; j < nResults && j < 64; j++ {
		if st.Results&(1<<j) != 0 {
			out[j] = Cell{Src: st.Reason}
		}
	}
	// Still evaluate arguments for their side effects.
	for _, a := range call.Args {
		in.eval(a)
	}
	return out
}

// applySanitize clears taint from the values a sanitizer call cleans.
func (in *interp) applySanitize(call *ast.CallExpr) {
	eff, _ := in.spec().Sanitize(&CallInfo{Call: call, Callee: StaticCallee(in.info(), call)})
	// cleanObj strong-cleans one root object. For parameters the pending
	// ParamOut record is reset too: the summary pass is one linear abstract
	// execution, so a sanitizer running after the stores means the
	// caller-visible memory is canonical at return. (A sanitizer on only
	// one branch over-clears — accepted, sanitizers are explicit.)
	cleanObj := func(obj types.Object) {
		in.env[obj] = Cell{}
		if i := in.paramIndex(obj); i >= 0 && i < len(in.sum.ParamOut) {
			in.sum.ParamOut[i] = Cell{}
		}
	}
	var clean func(e ast.Expr)
	clean = func(e ast.Expr) {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := in.obj(t); obj != nil {
				cleanObj(obj)
				in.fresh[obj] = true
			}
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				clean(t.X)
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr:
			// sort.Strings(g.nodes) canonicalizes memory reached through
			// the chain's root. The env has no field sensitivity, so the
			// whole root is strong-cleaned — over-broad, but sanitizers
			// are explicit canonicalization points.
			if obj, _, _ := in.storeBase(t.(ast.Expr)); obj != nil {
				if v, ok := obj.(*types.Var); !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
					cleanObj(obj)
				}
			}
		}
	}
	for i, a := range call.Args {
		if i < 64 && eff.Args&(1<<i) != 0 {
			clean(a)
		}
	}
}

// evalBuiltin interprets builtin calls.
func (in *interp) evalBuiltin(name string, call *ast.CallExpr) []Cell {
	spec := in.spec()
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return []Cell{{}}
		}
		base := in.eval(call.Args[0])
		var elems Cell
		for i, a := range call.Args[1:] {
			c := in.eval(a)
			if !spec.ValueMode && call.Ellipsis.IsValid() && i == len(call.Args)-2 {
				// Element-copy mode, spread append: the elements are
				// copied out of the tainted slice, and copies are durable.
				continue
			}
			elems = elems.Join(c)
		}
		// In every mode appending a tainted value itself retains it (e.g.
		// a pooled slice header appended into a [][]Entry); in value mode
		// spread elements carry taint too.
		return []Cell{base.Join(elems)}
	case "copy":
		if len(call.Args) == 2 {
			src := in.eval(call.Args[1])
			if spec.ValueMode {
				if src.Tainted() {
					in.storeInto(call.Args[0], src)
				}
			} else {
				in.eval(call.Args[0])
			}
		}
		return []Cell{{}}
	case "min", "max":
		// In value mode these select among their arguments, so order-taint
		// rides through; in alias modes the result is a fresh scalar
		// aliasing nothing.
		var out Cell
		for _, a := range call.Args {
			c := in.eval(a)
			if spec.ValueMode {
				out = out.Join(c)
			}
		}
		return []Cell{out}
	case "len", "cap":
		// Length and capacity are properties of the container, not of the
		// order its contents were assembled in: len of a slice built during
		// map iteration is the same every run. Always clean.
		for _, a := range call.Args {
			in.eval(a)
		}
		return []Cell{{}}
	default:
		// len, cap, delete, clear, close, make, new, panic, print...
		for _, a := range call.Args {
			in.eval(a)
		}
		return []Cell{{}}
	}
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

// isStringByteConversion reports whether a conversion between from and to
// copies its data (string <-> []byte / []rune).
func isStringByteConversion(to, from types.Type) bool {
	return isStringOrBytes(to) && isStringOrBytes(from) && !types.Identical(to.Underlying(), from.Underlying())
}

func isStringOrBytes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			k := b.Kind()
			return k == types.Byte || k == types.Rune || k == types.Uint8 || k == types.Int32
		}
	}
	return false
}

func exprString(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	default:
		return "pointer argument"
	}
}
