// Package daemon is the multi-tenant mining server behind cmd/depmined:
// many named follow engines (internal/follow) run concurrently in one
// process, multiplexed over the single shared worker pool
// (internal/parallel), administered and queried over an HTTP/JSON control
// API.
//
// Each stream is a tenant with its own directory under the daemon's state
// root:
//
//	<state>/<name>/stream.json      the stream's persisted configuration
//	<state>/<name>/out.log          every emitted model document, in order
//	<state>/<name>/events.log       delta lines and DRIFT alerts; a failed run's error, last
//	<state>/<name>/follow.ckpt      the resume checkpoint (the window is in the store)
//	<state>/<name>/quarantine.log   rejected lines, fault-class prefixed
//	<state>/<name>/store/           the tenant's model store
//
// stream.json is the follow.Spec depmine's flags bind to, plus "live";
// it is written last, once the store and the logs have opened, so a PUT
// that is refused or fails to launch leaves none behind. The tenant
// keeps the store handle its engine appends through and answers /model,
// /diff and /trajectory from it under the engine's advance lock.
//
// The tenant determinism contract: every one of those artifacts is
// byte-identical to what a solo `depmine -follow` run over the same
// stream with the same geometry would produce — independent of worker
// count, of metrics collection, and of how many neighbor tenants share
// the daemon. The shared pool hands helpers only to engines that can use
// them and never influences any engine's output, so multi-tenancy is a
// scheduling concern, not a correctness one.
//
// Stops are hard by design (the SIGKILL-equivalent): a stopping engine
// never flushes its open bucket, because an uninterrupted run would not
// have emitted that partial-bucket document either. Restarting the daemon
// rehydrates every tenant from its stream.json and resumes from its
// checkpoint; a stream whose source has not grown emits nothing new, so
// restarts are idempotent.
package daemon
