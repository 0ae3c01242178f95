package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"logscape/internal/analysis"
)

// Cell is the abstract value lattice: which taint a value may carry.
// The zero Cell is "untainted".
type Cell struct {
	// Src is the reason the value is (transitively) derived from a taint
	// source; "" when it is not. Joins keep the lexicographically smallest
	// reason so the analysis is deterministic.
	Src string
	// Params is the bitset of the enclosing function's parameters whose
	// taint may reach this value (parameter i = bit i, receiver first;
	// parameters beyond 63 are untracked).
	Params uint64
}

// Tainted reports whether the cell carries any taint at all.
func (c Cell) Tainted() bool { return c.Src != "" || c.Params != 0 }

// Join returns the least upper bound of c and d.
func (c Cell) Join(d Cell) Cell {
	out := Cell{Src: c.Src, Params: c.Params | d.Params}
	if out.Src == "" || (d.Src != "" && d.Src < out.Src) {
		out.Src = d.Src
	}
	return out
}

// Summary is the per-function dataflow summary of one Spec.
type Summary struct {
	// ResultFlow[j] is the taint reaching result j.
	ResultFlow []Cell
	// ParamOut[i] is the taint written through pointer-like parameter i
	// (pointer, map, slice, channel), visible to the caller after return.
	ParamOut []Cell
	// ParamEscape[i] describes the sink that taint entering parameter i
	// reaches inside the function ("" when none).
	ParamEscape []string
}

func newSummary(fn *Func) *Summary {
	return &Summary{
		ResultFlow:  make([]Cell, fn.Sig.Results().Len()),
		ParamOut:    make([]Cell, len(fn.Params)),
		ParamEscape: make([]string, len(fn.Params)),
	}
}

func (s *Summary) equal(t *Summary) bool {
	if len(s.ResultFlow) != len(t.ResultFlow) || len(s.ParamOut) != len(t.ParamOut) || len(s.ParamEscape) != len(t.ParamEscape) {
		return false
	}
	for i := range s.ResultFlow {
		if s.ResultFlow[i] != t.ResultFlow[i] {
			return false
		}
	}
	for i := range s.ParamOut {
		if s.ParamOut[i] != t.ParamOut[i] {
			return false
		}
	}
	for i := range s.ParamEscape {
		if s.ParamEscape[i] != t.ParamEscape[i] {
			return false
		}
	}
	return true
}

// Facts renders the summary as stable human-readable fact strings, the
// form analysistest matches // wantfact expectations against.
func (s *Summary) Facts() []string {
	var out []string
	for j, c := range s.ResultFlow {
		if c.Src != "" {
			out = append(out, fmt.Sprintf("result#%d tainted: %s", j, c.Src))
		}
		for i := 0; i < 64; i++ {
			if c.Params&(1<<i) != 0 {
				out = append(out, fmt.Sprintf("result#%d from param#%d", j, i))
			}
		}
	}
	for i, c := range s.ParamOut {
		if c.Src != "" {
			out = append(out, fmt.Sprintf("*param#%d tainted: %s", i, c.Src))
		}
		for j := 0; j < 64; j++ {
			if c.Params&(1<<j) != 0 {
				out = append(out, fmt.Sprintf("*param#%d from param#%d", i, j))
			}
		}
	}
	for i, desc := range s.ParamEscape {
		if desc != "" {
			out = append(out, fmt.Sprintf("param#%d escapes: %s", i, desc))
		}
	}
	sort.Strings(out)
	return out
}

// CallInfo hands a call site to the Spec's matchers.
type CallInfo struct {
	Call *ast.CallExpr
	// Callee is the statically resolved target; nil for calls through
	// function values. Interface methods resolve to the interface method
	// object (useful for name-based sink matching) even though the engine
	// has no summary for them.
	Callee *types.Func
}

// SourceTaint describes which outputs of a matched source call become
// tainted.
type SourceTaint struct {
	// Reason labels the taint (it becomes Cell.Src and appears in
	// diagnostics).
	Reason string
	// Results is the bitset of tainted call results.
	Results uint64
}

// SanitizeEffect describes which values a matched sanitizer call cleans.
type SanitizeEffect struct {
	// Results is the bitset of call results that are clean copies.
	Results uint64
	// Args is the bitset of arguments cleaned in place (sort.Strings).
	Args uint64
}

// Spec instantiates the engine for one analyzer: where taint is born, how
// it propagates, what kills it, and where it must not arrive.
type Spec struct {
	// ValueMode selects order-taint semantics (taintorder): taint rides
	// through operators, conversions, copies and element loads, because
	// the property ("derived from map-iteration order") survives copying.
	// When false (alias mode, recycleuse's: the taint means "shares recycled
	// memory"), copy operations (string conversion, concatenation, loading
	// an element out of a container) produce durable values and clear it.
	ValueMode bool
	// HeapStores makes stores into non-fresh heap memory (maps, fields
	// and elements reached through pointers, package-level variables) and
	// assignments to package-level variables sinks.
	HeapStores bool
	// ParamStores makes stores through pointer-like parameters (including
	// the receiver) sinks instead of ParamOut flows: for contracts like
	// bucket recycling, a method retaining contract-tainted data in its
	// own receiver state is itself the violation — there is no caller
	// able to judge durability.
	ParamStores bool

	// Source matches taint-source calls.
	Source func(ci *CallInfo) (SourceTaint, bool)
	// RangeSource matches range statements whose iteration variables are
	// taint sources (map iteration for taintorder); it returns the taint
	// reason.
	RangeSource func(unit *analysis.ProgramUnit, rng *ast.RangeStmt) (string, bool)
	// ParamSource marks function parameters that are tainted by contract
	// (e.g. Bucket parameters under RecycleBuckets); it returns the taint
	// reason.
	ParamSource func(fn *Func, i int, v *types.Var) (string, bool)
	// Sanitize matches calls that launder taint (slices.Clone, sorts).
	Sanitize func(ci *CallInfo) (SanitizeEffect, bool)
	// CallSink matches calls that must not receive tainted arguments
	// (writers for taintorder); it returns the sink description.
	CallSink func(ci *CallInfo) (string, bool)
	// AccumSink reports whether a compound assignment with op on a value
	// of type t is an order-sensitive accumulation sink (taintorder).
	AccumSink func(op token.Token, t types.Type) bool

	// Message renders a diagnostic from the taint reason and the sink
	// description.
	Message func(src, sink string) string
}

// Analyze runs the spec over the program: bottom-up summaries with a
// fixpoint per SCC, then a reporting pass per function, then fact export
// when the pass requests it.
func Analyze(spec *Spec, prog *Program, pass *analysis.ProgramPass) {
	a := &analyzer{spec: spec, prog: prog, pass: pass, summaries: make(map[string]*Summary)}

	// maxRounds bounds a fixpoint that fails to converge (it cannot, the
	// lattice being finite, but an engine bug must not hang the driver).
	const maxRounds = 64
	for _, scc := range prog.SCCs {
		for round := 0; round < maxRounds; round++ {
			changed := false
			for _, id := range scc {
				sum := a.interpret(prog.Funcs[id], false)
				if old, ok := a.summaries[id]; !ok || !old.equal(sum) {
					a.summaries[id] = sum
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	ids := make([]string, 0, len(prog.Funcs))
	for id := range prog.Funcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a.interpret(prog.Funcs[id], true)
	}

	if pass.ExportFact != nil {
		for _, id := range ids {
			fn := prog.Funcs[id]
			for _, fact := range a.summaries[id].Facts() {
				pass.ExportFact(fn.Decl.Name.Pos(), fact)
			}
		}
	}
}

// analyzer is the per-Spec analysis state shared by all interpretations.
type analyzer struct {
	spec      *Spec
	prog      *Program
	pass      *analysis.ProgramPass
	summaries map[string]*Summary
}
