// Fixture for the taintorder analyzer: map-iteration-order values must be
// sorted before reaching output, non-commutative folds, or RNG seeds.
package a

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
)

// badJoin emits keys joined in map order: the taint survives append,
// strings.Join and the fmt call chain.
func badJoin(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Println(strings.Join(keys, ",")) // want `map iteration order reaches output write \(Println\)`
}

// goodJoin sorts first: the sort launders the taint.
func goodJoin(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println(strings.Join(keys, ","))
}

// keysOf returns keys in map iteration order; the summary records the
// tainted result so callers inherit it.
func keysOf(m map[string]int) []string { // wantfact `result#0 tainted: map iteration order`
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// badViaHelper writes helper-collected keys without sorting.
func badViaHelper(m map[string]int, w io.Writer) {
	for _, k := range keysOf(m) {
		fmt.Fprintln(w, k) // want `map iteration order reaches output write \(Fprintln\)`
	}
}

// goodViaHelper sorts the helper's result before writing.
func goodViaHelper(m map[string]int, w io.Writer) {
	ks := keysOf(m)
	sort.Strings(ks)
	for _, k := range ks {
		fmt.Fprintln(w, k)
	}
}

// badFloatFold accumulates floats in map order: rounding differs per run.
func badFloatFold(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `map iteration order reaches order-sensitive accumulation \(\+=\)`
	}
	return total
}

// goodIntFold is commutative: integer addition is exact.
func goodIntFold(m map[string]int) int {
	var total int
	for _, v := range m {
		total += v
	}
	return total
}

// badConcat builds a string in map order.
func badConcat(m map[string]int) string {
	var s string
	for k := range m {
		s += k // want `map iteration order reaches order-sensitive accumulation \(\+=\)`
	}
	return s
}

// badSub subtracts in map order: never commutative.
func badSub(m map[string]int) int {
	n := 1 << 20
	for _, v := range m {
		n -= v // want `map iteration order reaches order-sensitive accumulation \(-=\)`
	}
	return n
}

// badSeed derives an RNG seed from whichever key iteration yields first —
// a different seed every run.
func badSeed(m map[string]int) *rand.Rand {
	var seed int64
	for k := range m {
		seed = int64(k[0])
		break
	}
	return rand.New(rand.NewSource(seed)) // want `map iteration order reaches RNG seeding \(rand\.NewSource\)`
}

// goodLen: the length of a map-derived container is a property of the
// container, not of assembly order.
func goodLen(m map[string]int, w io.Writer) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Fprintf(w, "%d keys\n", len(keys))
}

// goodCountFold: integer addition is exact and commutative, so the total
// is order-independent even though each addend came from iteration.
func goodCountFold(m map[string][]int, w io.Writer) {
	total := 0
	for _, vs := range m {
		total += len(vs)
	}
	fmt.Fprintln(w, total)
}

// goodMapRebuild: maps impose no observable order — storing
// iteration-derived keys into another map and reading it back by key is
// canonical. (Iterating idx would re-introduce the taint at that range.)
func goodMapRebuild(m map[string]int) int {
	idx := make(map[string]int, len(m))
	for k, v := range m {
		idx[k] = v * 2
	}
	return idx["a"]
}

// badPrint prints inside the loop body.
func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `map iteration order reaches output write \(Println\)`
	}
}

// badBuilder assembles a string in map order through a builder.
func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map iteration order reaches output write \(WriteString\)`
	}
	return b.String()
}

// badWriteDirect writes inside the loop body.
func badWriteDirect(m map[string]int, w io.Writer) {
	for k := range m {
		io.WriteString(w, k) // want `map iteration order reaches output write \(WriteString\)`
	}
}

// goodSortedSlice passes through a sorting helper in another function.
func sortKeys(keys []string) []string {
	sort.Strings(keys)
	return keys
}

func goodViaSortHelper(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	fmt.Println(strings.Join(sortKeys(keys), ","))
}

// allowedDebugDump is the sanctioned escape hatch for debug output whose
// order genuinely does not matter.
func allowedDebugDump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) //lint:allow taintorder debug dump, order irrelevant
	}
}
