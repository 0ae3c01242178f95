package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Pair is an unordered pair of application names, normalized so A < B.
// Approaches L1 and L2 produce models over Pairs; the paper's first
// reference model is a set of dependent Pairs (§4.3).
type Pair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// MakePair returns the normalized unordered pair of a and b.
func MakePair(a, b string) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// String renders the pair.
func (p Pair) String() string { return fmt.Sprintf("{%s, %s}", p.A, p.B) }

func (p Pair) compare(q Pair) int {
	return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
}

// AppServicePair is a directed dependency of an application on a
// service-directory entry — the element of approach L3's model and of the
// paper's second reference model (§4.3).
type AppServicePair struct {
	App   string `json:"app"`
	Group string `json:"group"`
}

// String renders the dependency.
func (p AppServicePair) String() string { return fmt.Sprintf("%s -> %s", p.App, p.Group) }

func (p AppServicePair) compare(q AppServicePair) int {
	return cmp.Or(cmp.Compare(p.App, q.App), cmp.Compare(p.Group, q.Group))
}

// element is what the two model kinds share: a comparable struct with a
// lexicographic order. Sorting, scoring and diffing are written once over it.
type element[T any] interface {
	comparable
	compare(T) int
}

// sortedElements returns a set's elements in lexicographic order.
func sortedElements[T element[T]](s map[T]bool) []T {
	out := make([]T, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	slices.SortFunc(out, T.compare)
	return out
}

// PairSet is a set of unordered application pairs.
type PairSet map[Pair]bool

// SortedPairs returns the set's elements in lexicographic order.
func (s PairSet) SortedPairs() []Pair { return sortedElements(s) }

// AppServiceSet is a set of application→service dependencies.
type AppServiceSet map[AppServicePair]bool

// SortedPairs returns the set's elements in lexicographic order.
func (s AppServiceSet) SortedPairs() []AppServicePair { return sortedElements(s) }

// Confusion compares a mined set of positives against a reference model
// restricted to a universe of possible decisions.
type Confusion struct {
	// TP, FP, FN, TN are the confusion-matrix counts.
	TP, FP, FN, TN int
}

// Precision returns TP / (TP + FP), or 0 when nothing was predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN), or 0 when the reference is empty.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FalsePositiveRate returns FP / (FP + TN), the classification error on
// unrelated pairs the paper quotes for approach L1 ("a number of 25 false
// positives would result in an error rate of only 2%").
func (c Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// ComparePairs scores predicted pairs against the true pairs over a
// universe of n possible pairs (TN is derived from n).
func ComparePairs(predicted, truth PairSet, universe int) Confusion {
	return compareSets(predicted, truth, universe)
}

// CompareAppService scores predicted dependencies against the truth over a
// universe of n possible (app, group) combinations.
func CompareAppService(predicted, truth AppServiceSet, universe int) Confusion {
	return compareSets(predicted, truth, universe)
}

func compareSets[T comparable](predicted, truth map[T]bool, universe int) Confusion {
	var c Confusion
	for p := range predicted {
		if truth[p] {
			c.TP++
		} else {
			c.FP++
		}
	}
	for p := range truth {
		if !predicted[p] {
			c.FN++
		}
	}
	c.TN = max(universe-c.TP-c.FP-c.FN, 0)
	return c
}
