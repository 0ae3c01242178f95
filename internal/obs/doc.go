// Package obs is the pipeline's deterministic observability layer: a
// registry of named counters, gauges and duration histograms — Timer, into
// a histogram, is the one way to time a section — and a stable JSON snapshot
// of them: the numbers behind `depmine -stats`, the `/metrics` endpoints of
// follow mode and the daemon, and the metrics section of evalrun's report.
//
// Two properties make the layer safe to thread through the whole mining
// pipeline:
//
//   - Collection never perturbs results. A nil *Registry is a valid no-op
//     collector (every method is nil-receiver safe), so un-instrumented
//     runs pay nothing, and instrumented runs only ever *add* counts —
//     mined models are byte-identical with metrics on or off, at any
//     worker count (asserted by determinism_test.go).
//   - Counter and gauge values are themselves deterministic: they count
//     work that is a pure function of the input (entries ingested, pairs
//     tested, G² evaluations), never scheduling. Only histograms may hold
//     timings (worker busy time, queue waits), and only when a clock is
//     injected; the wall clock enters through exactly one sanctioned edge,
//     SystemClock (see the wallclock analyzer).
//
// See DESIGN.md §10 "Observability" for the metric name inventory and the
// snapshot JSON schema, and docs/operations.md for the operator's view.
package obs
