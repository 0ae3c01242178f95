package main

import (
	"fmt"
	"math"
)

// aaRounds is how many runs each side of the A/A comparison makes of every
// workload. Five a side is ten runs a workload, the number the acceptance
// rule's spread is taken over.
const aaRounds = 5

// runAA is the A/A mode: the benchmark's own acceptance rule, applied to two
// sets of runs of the same code. In round r every workload runs twice at seed
// seed+r, once for set A and once for set B, back to back, A first in even
// rounds and B first in odd ones, so a slow spell of the machine falls on
// both sets alike. Per workload and end-to-end metric it prints the two
// medians, their relative difference, the quartile spread of all ten runs,
// and the bound. A difference beyond the bound, or a spread beyond it on any
// metric but setup_s (one short sample a run; only its medians are held to
// the bound), is the benchmark disagreeing with itself, and an error.
func runAA(h *harness) error {
	type sides [2][]float64
	vals := make(map[string]map[string]*sides) // workload → metric → runs of A and of B
	seed := h.seed
	for r := 0; r < aaRounds; r++ {
		h.seed = seed + int64(r)
		for _, w := range h.ledger.Workloads {
			for k := 0; k < 2; k++ {
				set := (k + r) % 2
				fmt.Printf("A/A round %d, set %c, seed %d: %s\n", r+1, 'A'+set, h.seed, w.Name)
				res, err := h.runWorkload(w.Name)
				if err != nil {
					return err
				}
				if res.failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed: %v", w.Name, res.failed, res.attempted, res.failures)
				}
				if vals[w.Name] == nil {
					vals[w.Name] = make(map[string]*sides)
				}
				for _, m := range h.ledger.EndToEnd {
					if vals[w.Name][m.Name] == nil {
						vals[w.Name][m.Name] = new(sides)
					}
					s := vals[w.Name][m.Name]
					s[set] = append(s[set], res.endToEnd[m.Name])
				}
			}
		}
	}
	fmt.Printf("\n%-18s %-22s %14s %14s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound")
	over := 0
	for _, w := range h.ledger.Workloads {
		for _, m := range h.ledger.EndToEnd {
			s := vals[w.Name][m.Name]
			a, b := median(s[0]), median(s[1])
			diff := math.Abs(a-b) / math.Min(a, b)
			spread := quartileSpread(append(append([]float64(nil), s[0]...), s[1]...))
			mark := ""
			switch {
			case diff > m.Bound || (spread > m.Bound && m.Name != "setup_s"):
				mark = "  OVER"
				over++
			case diff > m.Bound/2:
				mark = "  over half"
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %7.2f%% %7.2f%% %6.1f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*spread, 100*m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between two sets of runs of the same code by more than their bound", over)
	}
	return nil
}
