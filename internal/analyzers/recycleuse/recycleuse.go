// Package recycleuse enforces the bucket-recycling half of the DESIGN.md
// §12 ownership contract: under Config.RecycleBuckets the ingester reuses
// the Entries slice of every bucket that retires from the window, so code
// receiving a stream.Bucket (miners' Advance, OnAdvance hooks, helpers
// they call) must not retain the slice — only element copies are durable.
//
// The analyzer runs the internal/analysis/dataflow engine with
// element-copy semantics: ranging over a pooled slice and copying entries
// out is clean (Entry values are self-contained once interned), but
// storing the slice header itself — or the whole Bucket — into anything
// that outlives the call flags, through any chain of in-module calls.
package recycleuse

import (
	"fmt"
	"go/types"

	"logscape/internal/analysis"
	"logscape/internal/analysis/dataflow"
)

const streamPath = "logscape/internal/stream"

// Analyzer flags retention of pooled bucket slices.
var Analyzer = &analysis.Analyzer{
	Name: "recycleuse",
	Doc: "forbid retaining the Entries slice of a stream.Bucket (or a whole Bucket) " +
		"beyond the receiving call: under Config.RecycleBuckets the " +
		"ingester reuses retired bucket slices, so only element copies are durable — copy " +
		"what you keep (append to a fresh slice) instead of keeping the slice (DESIGN.md §12)",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	prog := dataflow.BuildProgram(pass.Fset, pass.Units)
	dataflow.Analyze(spec, prog, pass)
	return nil
}

// isBucket reports whether t is stream.Bucket or *stream.Bucket.
func isBucket(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Bucket" && obj.Pkg() != nil && obj.Pkg().Path() == streamPath
}

// spec leaves ValueMode off: element loads are durable copies. An Entry
// copied out of a pooled slice survives recycling (its strings live in the
// intern arena); only the slice header (and the Bucket carrying it) is
// pooled.
var spec = &dataflow.Spec{
	HeapStores: true,
	// A miner retaining the bucket in its own receiver state is the
	// violation — report at the store, not as a caller out-flow.
	ParamStores: true,

	ParamSource: func(fn *dataflow.Func, i int, v *types.Var) (string, bool) {
		if isBucket(v.Type()) {
			return "pooled bucket (Config.RecycleBuckets)", true
		}
		return "", false
	},

	Sanitize: func(ci *dataflow.CallInfo) (dataflow.SanitizeEffect, bool) {
		if ci.CalleeIs("slices", "Clone") {
			return dataflow.SanitizeEffect{Results: 1 << 0}, true
		}
		return dataflow.SanitizeEffect{}, false
	},

	Message: func(src, sink string) string {
		return fmt.Sprintf("%s is retained via %s; the slice is reused after the bucket retires from the window — copy the entries you keep (DESIGN.md §12)", src, sink)
	},
}
