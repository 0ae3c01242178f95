// Package follow is the reusable streaming-follow engine: it composes the
// hardened ingest stack (internal/stream), the incremental miners, the
// drift detector and the model store into one run loop that tails a log
// stream and, per closed bucket, runs a fixed list of stages: mine and
// snapshot on the goroutine that reads the stream, then render, store,
// delta, drift, checkpoint and progress — the bucket's commit — on one
// commit goroutine beside it, while the reader mines the next bucket. The
// reader joins each commit before it hands over the next, so commits keep
// the bucket order and every side effect the order of a serial loop. The
// loop, not the stages, takes the advance lock (around the commit only:
// mining runs outside it), times each stage into its follow.<stage>_ns
// histogram and the reader's waits into follow.commit_wait_ns, and ends
// the run on the first error.
//
// cmd/depmine's -follow mode is a thin adapter over Run; cmd/depmined
// hosts many concurrent engines — one per tenant stream — which is why
// the engine is a package and not CLI code. What a stream mines is
// described once, by Spec: depmine's flags bind into one, a daemon
// stream's JSON document embeds one, Config embeds one, and
// Spec.Validate is the one check all of them pass through. Everything
// else a host wires in is a Config field — the model store it opened
// and keeps the handle of, a cooperative stop, tail-wait, per-bucket
// progress, an advance lock for read-your-writes queries — and
// everything a host reports after a run (depmine's summary line, a
// status document's totals) is the returned Result, not something the
// engine wrote.
//
// The determinism contract holds per engine: the model documents written
// to stdout, the checkpoint files and the store directory are a pure
// function of the stream's accepted entries and geometry — independent of
// the Workers knob, of metrics collection, and of whatever other engines
// share the process (they share only the internal/parallel helper pool,
// which never influences results). See DESIGN.md §15.
package follow
