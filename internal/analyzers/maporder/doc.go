// Package maporder defines an analyzer that catches Go's classic silent
// determinism breaker: folding map iteration order into an ordered result.
//
// Ranging over a map is fine when the body is commutative (set inserts,
// integer counting). It silently breaks the repo's bit-identical-output
// contract when the body appends to a slice that is never sorted
// afterwards: the slice then carries iteration order to whoever receives
// it, in this module or outside it. The analyzer flags exactly that shape
// and stands down when the enclosing function visibly sorts afterwards.
//
// It has one rule on purpose. Writing output or folding into a
// non-commutative accumulator (string concatenation, floating-point
// accumulation) in map order is taintorder's finding: it follows the value
// to the sink, through helpers and returns, so each such line is reported
// once, by the analyzer that can see the whole flow.
//
// See DESIGN.md §8 (Static invariants).
package maporder
