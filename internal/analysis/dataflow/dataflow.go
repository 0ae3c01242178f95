package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"logscape/internal/analysis"
)

// Func is one function declaration with a body, indexed by its stable ID.
type Func struct {
	// ID is the types.Func full name (package path qualified), the key
	// that bridges the separate type-check universes of each package.
	ID   string
	Decl *ast.FuncDecl
	Obj  *types.Func
	Sig  *types.Signature
	Unit *analysis.Unit
	// Params holds the receiver (if any) followed by the declared
	// parameters; entries with a nil Obj are unnamed (or _).
	Params []Param
	// Results holds the named result objects (nil entries when unnamed),
	// for naked returns.
	Results []*types.Var
	// callees are the IDs of statically resolved callees, sorted.
	callees []string
}

// Param is one parameter slot of a Func.
type Param struct {
	Obj  *types.Var
	Name string
}

// Program is the indexed whole-program view the engine analyzes.
type Program struct {
	Fset  *token.FileSet
	Units []*analysis.Unit
	// Funcs maps Func.ID to the function. Only declarations with bodies
	// appear; external and export-data-only functions are absent.
	Funcs map[string]*Func
	// SCCs are the strongly connected components of the call graph in
	// bottom-up (callee-before-caller) order; each component is sorted.
	SCCs [][]string
}

// BuildProgram indexes the functions and static call graph of the units.
func BuildProgram(fset *token.FileSet, units []*analysis.Unit) *Program {
	p := &Program{
		Fset:  fset,
		Units: units,
		Funcs: make(map[string]*Func),
	}
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{
					ID:   FuncID(obj),
					Decl: fd,
					Obj:  obj,
					Sig:  obj.Type().(*types.Signature),
					Unit: u,
				}
				fn.Params = declParams(fd, u.Info)
				fn.Results = declResults(fd, u.Info)
				p.Funcs[fn.ID] = fn
			}
		}
	}
	for _, fn := range p.Funcs {
		fn.callees = p.collectCallees(fn)
	}
	p.SCCs = p.tarjan()
	return p
}

// FuncID returns the stable cross-universe identifier of fn: the full name
// of its generic origin (e.g. "pkg/path.Name" or "(*pkg/path.T).Name").
func FuncID(fn *types.Func) string {
	return fn.Origin().FullName()
}

func declParams(fd *ast.FuncDecl, info *types.Info) []Param {
	var out []Param
	addField := func(field *ast.Field) {
		if len(field.Names) == 0 {
			out = append(out, Param{})
			return
		}
		for _, n := range field.Names {
			v, _ := info.Defs[n].(*types.Var)
			out = append(out, Param{Obj: v, Name: n.Name})
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			addField(field)
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			addField(field)
		}
	}
	return out
}

func declResults(fd *ast.FuncDecl, info *types.Info) []*types.Var {
	if fd.Type.Results == nil {
		return nil
	}
	var out []*types.Var
	for _, field := range fd.Type.Results.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, n := range field.Names {
			v, _ := info.Defs[n].(*types.Var)
			out = append(out, v)
		}
	}
	return out
}

// StaticCallee resolves the called function of a call expression to a
// concrete *types.Func, or nil when the call is a conversion, a builtin,
// an interface method, or a call through a function value.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil
			}
			return fn
		}
		// Package-qualified function: pkg.F.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr:
		// Generic instantiation f[T](...).
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

func (p *Program) collectCallees(fn *Func) []string {
	seen := make(map[string]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := StaticCallee(fn.Unit.Info, call); callee != nil {
			id := FuncID(callee)
			if _, inProgram := p.Funcs[id]; inProgram {
				seen[id] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// tarjan computes the SCCs of the call graph. Tarjan's algorithm emits a
// component only after all components it calls into, so the output order
// is already bottom-up. Roots are visited in sorted ID order so the
// decomposition (and with it every downstream iteration) is deterministic.
func (p *Program) tarjan() [][]string {
	ids := make([]string, 0, len(p.Funcs))
	for id := range p.Funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	type nodeState struct {
		index, lowlink int
		onStack        bool
	}
	states := make(map[string]*nodeState, len(ids))
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		st := &nodeState{index: next, lowlink: next}
		next++
		states[v] = st
		stack = append(stack, v)
		st.onStack = true

		for _, w := range p.Funcs[v].callees {
			ws, seen := states[w]
			if !seen {
				strongconnect(w)
				if l := states[w].lowlink; l < st.lowlink {
					st.lowlink = l
				}
			} else if ws.onStack {
				if ws.index < st.lowlink {
					st.lowlink = ws.index
				}
			}
		}

		if st.lowlink == st.index {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				states[w].onStack = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, id := range ids {
		if _, seen := states[id]; !seen {
			strongconnect(id)
		}
	}
	return sccs
}
