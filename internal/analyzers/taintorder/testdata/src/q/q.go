// Package q calls qb.First through its package name. A qualified call has
// no receiver, so k must land in First's first parameter slot, not behind
// the package name.
package q

import (
	"fmt"

	"qb"
)

func badQualified(m map[string]int) {
	for k := range m {
		fmt.Println(qb.First(k, "x")) // want `map iteration order reaches output write \(Println\)`
	}
}

func goodQualified(m map[string]int) {
	for k := range m {
		fmt.Println(qb.First("x", k))
	}
}
