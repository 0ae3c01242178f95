package core

import (
	"reflect"
	"slices"
	"testing"
)

func TestMakePair(t *testing.T) {
	if p := MakePair("Z", "A"); p.A != "A" || p.B != "Z" {
		t.Errorf("MakePair = %+v", p)
	}
	if MakePair("A", "Z") != MakePair("Z", "A") {
		t.Error("not symmetric")
	}
	if s := MakePair("B", "A").String(); s != "{A, B}" {
		t.Errorf("String = %q", s)
	}
}

func TestAppServicePairString(t *testing.T) {
	p := AppServicePair{App: "A", Group: "S"}
	if p.String() != "A -> S" {
		t.Errorf("String = %q", p.String())
	}
}

// kind binds one model kind's exported entry points, so the pair and the
// dependency sets run through the same cases. Elements are written as
// [2]string{first, second} with first < second, which both kinds keep as is.
type kind[T element[T]] struct {
	mk      func(first, second string) T
	sorted  func(map[T]bool) []T
	compare func(predicted, truth map[T]bool, universe int) Confusion
	diff    func(a, b map[T]bool) (onlyA, onlyB []T)
}

var pairKind = kind[Pair]{
	mk:      MakePair,
	sorted:  func(s map[Pair]bool) []Pair { return PairSet(s).SortedPairs() },
	compare: func(p, tr map[Pair]bool, u int) Confusion { return ComparePairs(p, tr, u) },
	diff:    func(a, b map[Pair]bool) ([]Pair, []Pair) { return DiffModels(a, b) },
}

var depKind = kind[AppServicePair]{
	mk:      func(app, group string) AppServicePair { return AppServicePair{App: app, Group: group} },
	sorted:  func(s map[AppServicePair]bool) []AppServicePair { return AppServiceSet(s).SortedPairs() },
	compare: func(p, tr map[AppServicePair]bool, u int) Confusion { return CompareAppService(p, tr, u) },
	diff:    func(a, b map[AppServicePair]bool) ([]AppServicePair, []AppServicePair) { return DiffDeps(a, b) },
}

func (k kind[T]) list(elems [][2]string) []T {
	var out []T
	for _, e := range elems {
		out = append(out, k.mk(e[0], e[1]))
	}
	return out
}

func (k kind[T]) set(elems [][2]string) map[T]bool {
	out := make(map[T]bool)
	for _, p := range k.list(elems) {
		out[p] = true
	}
	return out
}

func testSorted[T element[T]](t *testing.T, k kind[T]) {
	for _, tc := range []struct{ in, want [][2]string }{
		{in: nil, want: nil},
		{in: [][2]string{{"B", "C"}, {"A", "B"}, {"A", "C"}}, want: [][2]string{{"A", "B"}, {"A", "C"}, {"B", "C"}}},
		// The second field breaks ties on the first, and only then.
		{in: [][2]string{{"B", "X"}, {"A", "Y"}, {"A", "X"}}, want: [][2]string{{"A", "X"}, {"A", "Y"}, {"B", "X"}}},
	} {
		got := k.sorted(k.set(tc.in))
		if got == nil {
			t.Errorf("sorted(%v) = nil, want an empty slice", tc.in)
		}
		if !slices.Equal(got, k.list(tc.want)) {
			t.Errorf("sorted(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestSortedPairs(t *testing.T)           { testSorted(t, pairKind) }
func TestSortedAppServicePairs(t *testing.T) { testSorted(t, depKind) }

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 30, FP: 10, FN: 70, TN: 890}
	if p := c.Precision(); p != 0.75 {
		t.Errorf("Precision = %v", p)
	}
	if r := c.Recall(); r != 0.3 {
		t.Errorf("Recall = %v", r)
	}
	if f := c.F1(); f < 0.42 || f > 0.43 {
		t.Errorf("F1 = %v", f)
	}
	if fpr := c.FalsePositiveRate(); fpr < 0.011 || fpr > 0.0112 {
		t.Errorf("FPR = %v", fpr)
	}
	var zero Confusion
	if zero.Precision() != 0 || zero.Recall() != 0 || zero.F1() != 0 || zero.FalsePositiveRate() != 0 {
		t.Error("zero confusion metrics should be 0")
	}
}

func testCompare[T element[T]](t *testing.T, k kind[T]) {
	for _, tc := range []struct {
		predicted, truth [][2]string
		universe         int
		want             Confusion
	}{
		{universe: 5, want: Confusion{TN: 5}},
		{
			predicted: [][2]string{{"A", "B"}, {"B", "C"}}, truth: [][2]string{{"A", "B"}, {"A", "C"}},
			universe: 10, want: Confusion{TP: 1, FP: 1, FN: 1, TN: 7},
		},
		{
			predicted: [][2]string{{"A", "S"}, {"A", "T"}}, truth: [][2]string{{"A", "S"}},
			universe: 100, want: Confusion{TP: 1, FP: 1, TN: 98},
		},
		// A universe smaller than the counts floors TN at zero.
		{
			predicted: [][2]string{{"A", "B"}, {"B", "C"}}, truth: [][2]string{{"A", "B"}, {"A", "C"}},
			universe: 2, want: Confusion{TP: 1, FP: 1, FN: 1, TN: 0},
		},
	} {
		if got := k.compare(k.set(tc.predicted), k.set(tc.truth), tc.universe); got != tc.want {
			t.Errorf("compare(%v, %v, %d) = %+v, want %+v", tc.predicted, tc.truth, tc.universe, got, tc.want)
		}
	}
}

func TestComparePairs(t *testing.T)      { testCompare(t, pairKind) }
func TestCompareAppService(t *testing.T) { testCompare(t, depKind) }

func testDiff[T element[T]](t *testing.T, k kind[T]) {
	for _, tc := range []struct{ a, b, onlyA, onlyB [][2]string }{
		{},
		{a: [][2]string{{"A", "B"}}, b: [][2]string{{"A", "B"}}},
		{
			a: [][2]string{{"A", "B"}, {"A", "C"}}, b: [][2]string{{"A", "B"}, {"B", "C"}},
			onlyA: [][2]string{{"A", "C"}}, onlyB: [][2]string{{"B", "C"}},
		},
		{
			a: [][2]string{{"B", "H"}, {"A", "H"}, {"A", "G"}}, b: nil,
			onlyA: [][2]string{{"A", "G"}, {"A", "H"}, {"B", "H"}},
		},
	} {
		a, b := k.set(tc.a), k.set(tc.b)
		onlyA, onlyB := k.diff(a, b)
		// reflect.DeepEqual, not slices.Equal: an empty side is nil.
		if !reflect.DeepEqual(onlyA, k.list(tc.onlyA)) || !reflect.DeepEqual(onlyB, k.list(tc.onlyB)) {
			t.Errorf("diff(%v, %v) = %v, %v, want %v, %v", tc.a, tc.b, onlyA, onlyB, tc.onlyA, tc.onlyB)
		}
		// Symmetry: swapping the arguments swaps the results.
		swappedA, swappedB := k.diff(b, a)
		if !reflect.DeepEqual(swappedA, onlyB) || !reflect.DeepEqual(swappedB, onlyA) {
			t.Errorf("diff(%v, %v) = %v, %v: not the mirror of %v, %v", tc.b, tc.a, swappedA, swappedB, onlyA, onlyB)
		}
	}
}

func TestDiffModels(t *testing.T) { testDiff(t, pairKind) }
func TestDiffDeps(t *testing.T)   { testDiff(t, depKind) }
