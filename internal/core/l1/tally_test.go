package l1

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"logscape/internal/core"
	"logscape/internal/obs"
)

// The Tally's oracle is a plain re-count of the outcome lists in the
// window, written here: FoldOutcomes folds through a Tally, so it cannot be
// the Tally's oracle. Failures shrink deterministically: each property is a
// pure function of (seed, number of ops), and the harness replays
// ever-shorter prefixes of the same seeded sequence.

// checkTallyPrefixes runs property(seed, n) for the full sequence and, on
// failure, reports the minimal failing prefix of the same seed.
func checkTallyPrefixes(t *testing.T, seed int64, ops int, property func(seed int64, ops int) error) {
	t.Helper()
	if err := property(seed, ops); err == nil {
		return
	}
	min := ops
	for n := 1; n <= ops; n++ {
		if property(seed, n) != nil {
			min = n
			break
		}
	}
	t.Fatalf("property failed (seed %d); minimal failing prefix: %d ops: %v", seed, min, property(seed, min))
}

// tallyPairs is the pair universe of the property: four sources, six pairs,
// in pair order.
var tallyPairs = func() []core.Pair {
	names := []string{"a", "b", "c", "d"}
	var out []core.Pair
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			out = append(out, core.MakePair(names[i], names[j]))
		}
	}
	return out
}()

// randomOutcomes is one slot's outcome list: a random subset of the pairs,
// in pair order, all positive, all negative or mixed. A pair absent from a
// slot was not supported there.
func randomOutcomes(rng *rand.Rand) []SlotOutcome {
	mode := rng.Intn(4) // 0 all negative, 1 all positive, 2 and 3 mixed
	var out []SlotOutcome
	for _, p := range tallyPairs {
		if rng.Intn(3) == 0 {
			continue
		}
		pos := mode == 1 || mode >= 2 && rng.Intn(2) == 0
		out = append(out, SlotOutcome{Pair: p, Positive: pos})
	}
	return out
}

// recount is the oracle: support and positive counts of the lists, and the
// §3.1 decision over n slots written out.
func recount(lists [][]SlotOutcome, n int, cfg Config) (map[core.Pair]slotCount, core.PairSet) {
	counts := make(map[core.Pair]slotCount)
	for _, l := range lists {
		for _, o := range l {
			c := counts[o.Pair]
			c.support++
			if o.Positive {
				c.positive++
			}
			counts[o.Pair] = c
		}
	}
	dep := make(core.PairSet)
	for p, c := range counts {
		if float64(c.positive)/float64(c.support) >= cfg.ThPr && float64(c.support)/float64(n) >= cfg.ThS {
			dep[p] = true
		}
	}
	return counts, dep
}

// TestTallyMatchesRecount drives a Tally the way the streaming miner does —
// a slot's outcome list added as its bucket enters a window of W slots, and
// removed as it retires — over random slot sequences, and after every step
// requires the tally's (support, positive) per pair, its dependent set over
// the window's slot count (warm-up included) and the counter it feeds to
// equal the re-count; FoldOutcomes over the same lists must agree too. The
// sequences hold W = 1, gaps longer than W, empty, all-positive and
// all-negative slots, and pairs that appear and vanish. Once the window has
// drained the tally must be empty: a pair whose support returns to zero is
// deleted.
func TestTallyMatchesRecount(t *testing.T) {
	property := func(seed int64, ops int) error {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(6)
		if seed%5 == 0 {
			w = 1
		}
		cfg := DefaultConfig()
		cfg.Metrics = obs.New()
		counter := cfg.Metrics.Counter("l1.dependent_pairs")
		type slot struct {
			index int64
			outs  []SlotOutcome
		}
		var tally Tally
		var win []slot
		index := int64(-1)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 6:
				index++
			case r < 9: // a gap inside the window
				index += 1 + int64(rng.Intn(w))
			default: // a gap longer than the window
				index += int64(w) + 1 + int64(rng.Intn(3))
			}
			if outs := randomOutcomes(rng); len(outs) > 0 {
				win = append(win, slot{index, outs})
				tally.Add(outs)
			}
			lo := max(index-int64(w)+1, 0)
			for len(win) > 0 && win[0].index < lo {
				tally.Remove(win[0].outs)
				win = win[1:]
			}
			n := int(index - lo + 1)
			lists := make([][]SlotOutcome, len(win))
			for i := range win {
				lists[i] = win[i].outs
			}
			wantCounts, wantDep := recount(lists, n, cfg)
			if !maps.Equal(tally.counts, wantCounts) {
				return fmt.Errorf("op %d (W %d, slot %d): counts %v, want %v", op, w, index, tally.counts, wantCounts)
			}
			before := counter.Value()
			if dep := tally.Dependent(n, cfg); !reflect.DeepEqual(dep, wantDep) {
				return fmt.Errorf("op %d (W %d, slot %d over %d slots): dependent %v, want %v", op, w, index, n, dep, wantDep)
			}
			if got := counter.Value() - before; got != int64(len(wantDep)) {
				return fmt.Errorf("op %d: l1.dependent_pairs grew by %d, want %d", op, got, len(wantDep))
			}
			res := FoldOutcomes(nil, n, lists, cfg)
			if dep := res.DependentPairs(); !reflect.DeepEqual(dep, wantDep) {
				return fmt.Errorf("op %d: FoldOutcomes dependent %v, want %v", op, dep, wantDep)
			}
			for p, c := range wantCounts {
				if pr := res.Pairs[p]; pr.Support != c.support || pr.Positive != c.positive || pr.Slots != n {
					return fmt.Errorf("op %d: FoldOutcomes %v = %+v, want %+v over %d slots", op, p, pr, c, n)
				}
			}
		}
		for _, s := range win {
			tally.Remove(s.outs)
		}
		if len(tally.counts) != 0 {
			return fmt.Errorf("drained tally still holds %v", tally.counts)
		}
		return nil
	}
	for seed := int64(1); seed <= 200; seed++ {
		checkTallyPrefixes(t, seed, 80, property)
	}
}

// TestTallyRemoveRefusesUnknown: removing outcomes that were never added is
// a bookkeeping bug the tally reports, not a count it lets go negative.
func TestTallyRemoveRefusesUnknown(t *testing.T) {
	p := core.MakePair("a", "b")
	for _, c := range []struct {
		name           string
		added, removed []SlotOutcome
	}{
		{"never added", nil, []SlotOutcome{{Pair: p}}},
		{"positive over a negative", []SlotOutcome{{Pair: p}}, []SlotOutcome{{Pair: p, Positive: true}}},
		{"negative over a positive", []SlotOutcome{{Pair: p, Positive: true}}, []SlotOutcome{{Pair: p}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Remove did not panic")
				}
			}()
			var tally Tally
			tally.Add(c.added)
			tally.Remove(c.removed)
		})
	}
}

// TestFoldOutcomesKeepsSourcePairs: FoldOutcomes keeps its Result shape —
// every pair of sources present, unsupported ones with zero counts over
// the slot count and not dependent.
func TestFoldOutcomesKeepsSourcePairs(t *testing.T) {
	ab, ac, bc := core.MakePair("a", "b"), core.MakePair("a", "c"), core.MakePair("b", "c")
	res := FoldOutcomes([]string{"a", "b", "c"}, 4, [][]SlotOutcome{
		{{Pair: ab, Positive: true}, {Pair: bc}},
		{{Pair: ab, Positive: true}},
	}, Config{})
	want := map[core.Pair]PairResult{
		ab: {Pair: ab, Slots: 4, Support: 2, Positive: 2, Dependent: true},
		ac: {Pair: ac, Slots: 4},
		bc: {Pair: bc, Slots: 4, Support: 1},
	}
	if !reflect.DeepEqual(res.Pairs, want) {
		t.Fatalf("pairs = %+v, want %+v", res.Pairs, want)
	}
}
