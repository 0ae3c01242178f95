// Package dataflow is the interprocedural order-taint engine under the
// taintorder analyzer (see DESIGN.md §8).
//
// The engine is built for one job: proving that no value derived from map
// iteration order reaches an output write, an order-sensitive
// accumulation or an RNG seed, across function boundaries, using only the
// standard library — packages are type-checked against compiler export
// data (go list -export), never re-implemented. Its rules (sources,
// sanitizers, sinks) live in rules.go; there is no other client and no
// mode.
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
// Per function the engine computes a Summary:
//
//   - ResultFlow[j]: the taint reaching result j — a source reason and/or a
//     bitset of parameters whose taint flows through.
//   - ParamOut[i]: the taint written through pointer-like parameter i
//     (pointers, maps, slices), so out-parameters propagate.
//   - ParamEscape[i]: non-empty when taint entering parameter i reaches a
//     sink inside the function, so a violation buried two helpers deep
//     surfaces at the call site that supplied the tainted value.
//
// The abstract value lattice is Cell: a least source reason (deterministic
// joins pick the lexicographically smallest) plus a parameter bitset.
// Order-taint is a value property, so within a function an AST-ordered
// abstract interpreter propagates Cells through copies, operators,
// conversions, element loads, assignments, composite literals, slicing,
// field selection, external calls (arguments to results), closures
// (analyzed inline against the shared environment), branches (join of
// both arms) and loops (iterated to a fixed point, then joined with the
// zero-iteration state). Maps are keyed, not positional: a lookup drops
// the container's taint and a store does not add to it.
//
// # Soundness caveats
//
// The engine is a linter, not a verifier. Known approximations, documented
// here and in DESIGN.md §8: interface method calls and calls through
// function-typed values are not summarized (taint dies at the boundary);
// closures are only analyzed where the literal appears, with unknown
// arguments; branch joins mean a sanitizer inside one arm cleans the value
// for both; assignments to package-level variables are not tracked; an
// integer fold cut short by break counts as complete. False negatives are
// possible by design; false positives should be rare and are suppressed
// with //lint:allow plus a justification.
package dataflow
