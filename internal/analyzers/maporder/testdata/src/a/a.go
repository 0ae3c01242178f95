// Fixture for the maporder analyzer: an append in map iteration order that
// no later sort normalizes is flagged; sorted appends, commutative folds and
// justified directives stay quiet. Writes and non-commutative accumulators
// in map order are taintorder's finding (see its fixture).
package a

import "sort"

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append in map iteration order without a subsequent sort`
	}
	return keys
}

// goodSortedAppend is the sanctioned pattern: collect, then sort.
func goodSortedAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodCount folds commutatively (integer addition) — allowed.
func goodCount(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// goodSetInsert builds a set — allowed, no order dependence.
func goodSetInsert(m map[string]int) map[int]bool {
	out := make(map[int]bool)
	for _, v := range m {
		out[v] = true
	}
	return out
}

// goodSliceRange ranges a slice, which iterates in index order.
func goodSliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// allowedDirective shows the escape hatch for a caller-normalized result.
func allowedDirective(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //lint:allow maporder caller treats the result as an unordered set
	}
	return keys
}
