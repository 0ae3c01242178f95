// Package l1 implements the paper's approach L1 (§3.1): discovering
// dependencies between applications by treating their logs as a pure
// activity measure.
//
// For an ordered pair of applications (A, B), the technique compares the
// typical distance of B's log timestamps to the *nearest* log of A against
// the typical distance of uniformly random points to A. Distances are
// summarized by their median with a robust order-statistics confidence
// interval (Le Boudec); B is "closer than random" when its interval lies
// entirely below the random one. Because the overall system load makes even
// unrelated applications correlate over long horizons, the test is applied
// locally per time slot (one hour) and the local outcomes are combined: a
// pair is declared dependent when the ratio of positive slots pr and the
// support s (the fraction of slots where both applications logged at least
// MinLogs entries) clear the thresholds th_pr and th_s.
//
// The test is one-sided and uses the distance to the nearest arrival; the
// original two-sided, next-arrival variant of Li & Ma (ICDM'04) is
// available through Config for the ablations in DESIGN.md.
//
// The random points' distances to A do not depend on B, so the miner draws
// per (slot, source), never per pair (draw schedule v2, DESIGN.md §5): every
// test against A in a slot shares A's reference interval and is decided by
// counting B's distances against its two bounds. DirectionTest and SlotTest
// draw the same pieces per call, from the caller's generator.
package l1
