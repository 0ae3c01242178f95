// Package dataflow is the interprocedural taint/escape engine under the
// recycleuse and taintorder analyzers (see DESIGN.md §8).
//
// The engine is built for one job: proving lifetime and ordering contracts
// ("this slice is recycled after the call", "this value is in map-iteration
// order") across function boundaries, using only the standard library —
// packages are type-checked against compiler export data (go list -export),
// never re-implemented.
//
// # Model
//
// A Program indexes every function declaration in the loaded packages and
// the static call graph between them (direct calls and method calls on
// concrete receivers; interface dispatch and calls through function values
// are unresolved edges). Functions are grouped into strongly connected
// components and processed bottom-up, so a callee's summary exists before
// any caller reads it; components with recursion iterate to a fixpoint.
//
// Per function and per Spec the engine computes a Summary:
//
//   - ResultFlow[j]: the taint reaching result j — a source reason and/or a
//     bitset of parameters whose taint flows through.
//   - ParamOut[i]: the taint written through pointer-like parameter i
//     (pointers, maps, slices), so out-parameters propagate.
//   - ParamEscape[i]: non-empty when taint entering parameter i reaches a
//     sink inside the function (heap store, reporting call),
//     so a violation buried two helpers deep surfaces at the call site that
//     supplied the tainted value.
//
// The abstract value lattice is Cell: a least source reason (deterministic
// joins pick the lexicographically smallest) plus a parameter bitset.
// Within a function an AST-ordered abstract interpreter propagates Cells
// through assignments, composite literals, slicing, field selection,
// closures (analyzed inline against the shared environment), branches
// (join of both arms) and loops (two iterations, then join with the
// zero-iteration state). Locally allocated containers stay "fresh": a
// store into a fresh map or struct taints the local instead of reporting,
// and only flags if the container later escapes.
//
// # Soundness caveats
//
// The engine is a linter, not a verifier. Known approximations, documented
// here and in DESIGN.md §8: interface method calls and calls through
// function-typed values are not summarized (taint dies at the boundary);
// closures are only analyzed where the literal appears, with unknown
// arguments; branch joins mean a sanitizer inside one arm cleans the value
// for both; aliasing through non-fresh pointers is approximated by
// reporting stores whose value carries a concrete source. False negatives
// are possible by design; false positives should be rare and are
// suppressed with //lint:allow plus a justification.
package dataflow
