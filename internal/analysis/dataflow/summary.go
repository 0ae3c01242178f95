package dataflow

import (
	"fmt"
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

// Summary is the per-function dataflow summary.
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

// Analyze runs the engine over the program: bottom-up summaries with a
// fixpoint per SCC, then a reporting pass per function, then fact export
// when the pass requests it.
func Analyze(prog *Program, pass *analysis.Pass) {
	a := &analyzer{pass: pass, summaries: make(map[string]*Summary)}

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

// analyzer is the analysis state shared by all interpretations.
type analyzer struct {
	pass      *analysis.Pass
	summaries map[string]*Summary
}
