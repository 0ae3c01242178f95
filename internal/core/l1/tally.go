package l1

import "logscape/internal/core"

// Tally is L1's fold state over a set of slots: per pair, the support s
// (slots where both applications reached MinLogs, i.e. outcomes seen) and
// the positive count p (outcomes whose slot test was positive). The counts
// are exact integers: Remove undoes Add, and a pair whose support returns
// to zero is deleted, so the tally holds exactly the pairs of the outcome
// lists added and not yet removed — the discipline L2's streaming bigram
// counts keep. FoldOutcomes folds the batch's slots through one; the
// streaming miner keeps one over its window, adding each slot as it enters
// and removing it as it retires. The zero Tally is empty and ready to use.
type Tally struct {
	counts map[core.Pair]slotCount
}

// slotCount is one pair's (support, positive) tally.
type slotCount struct{ support, positive int }

// Add tallies one slot's outcome list.
func (t *Tally) Add(outcomes []SlotOutcome) {
	if t.counts == nil {
		t.counts = make(map[core.Pair]slotCount)
	}
	for _, o := range outcomes {
		c := t.counts[o.Pair]
		c.support++
		if o.Positive {
			c.positive++
		}
		t.counts[o.Pair] = c
	}
}

// Remove un-tallies one slot's outcome list, which must have been added.
func (t *Tally) Remove(outcomes []SlotOutcome) {
	for _, o := range outcomes {
		c := t.counts[o.Pair]
		c.support--
		if o.Positive {
			c.positive--
		}
		switch {
		case c.support < 0 || c.positive < 0 || c.positive > c.support:
			panic("l1: Tally.Remove of an outcome list that was never added")
		case c.support == 0:
			delete(t.counts, o.Pair)
		default:
			t.counts[o.Pair] = c
		}
	}
}

// Dependent returns the tallied pairs the §3.1 rule declares dependent over
// slots slots — the set result(nil, slots, cfg).DependentPairs() holds,
// without building a result per pair — and adds their number to the
// l1.dependent_pairs counter. The decision reads only the counts and slots,
// so a window in warm-up is decided against the slots it spans so far.
func (t *Tally) Dependent(slots int, cfg Config) core.PairSet {
	cfg = cfg.withDefaults()
	out := make(core.PairSet)
	for p, c := range t.counts {
		if cfg.dependent(PairResult{Slots: slots, Support: c.support, Positive: c.positive}) {
			out[p] = true
		}
	}
	cfg.Metrics.Counter("l1.dependent_pairs").Add(int64(len(out)))
	return out
}

// result is the per-pair Result over slots slots. sources, when non-nil,
// pre-initializes every pair of them, so support and ratio diagnostics are
// defined even for never-supported pairs; they are decided like the rest
// (an unsupported pair never clears ThPr). It adds the number of dependent
// pairs to l1.dependent_pairs, as Dependent does.
func (t *Tally) result(sources []string, slots int, cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Pairs: make(map[core.Pair]PairResult, len(t.counts)), Config: cfg}
	for i := range sources {
		for j := i + 1; j < len(sources); j++ {
			p := core.MakePair(sources[i], sources[j])
			res.Pairs[p] = PairResult{Pair: p, Slots: slots}
		}
	}
	for p, c := range t.counts {
		res.Pairs[p] = PairResult{Pair: p, Slots: slots, Support: c.support, Positive: c.positive}
	}
	dependent := int64(0)
	for p, pr := range res.Pairs {
		if pr.Dependent = cfg.dependent(pr); pr.Dependent {
			dependent++
		}
		res.Pairs[p] = pr
	}
	cfg.Metrics.Counter("l1.dependent_pairs").Add(dependent)
	return res
}

// dependent is the §3.1 decision: pr = p/s ≥ ThPr and s/n ≥ ThS. c has its
// defaults filled.
func (c Config) dependent(r PairResult) bool {
	return r.Ratio() >= c.ThPr && r.SupportFraction() >= c.ThS
}
