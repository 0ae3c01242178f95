// Package modelstore persists the model stream that follow mode emits:
// every closed bucket's model document, the evidence (wire-format log
// entries) that produced it, and the per-key drift scores, appended to an
// on-disk segment store that can answer "what did the landscape look like
// at time T?" long after the bucket scrolled out of the window.
//
// The store is append-only and deterministic. Records are framed with a
// CRC; the open granule grows by one appended frame per record, and every
// other file is written whole with the same tmp+rename discipline as the
// stream checkpoint, so a crash at any byte leaves whole, verifiable files
// behind but for an incomplete last frame of the open granule, which the
// next Open cuts back (segment.go has why). Model bytes are stored
// verbatim — querying model-at-time T returns exactly the document the
// follower printed live at T, which is what makes the store's round-trip
// contract testable byte-for-byte.
//
// Old segments are compacted on a fixed ladder (raw → hour → day → week):
// compaction only selects records and strips evidence, never rewrites
// model bytes, so retained instants stay byte-identical across any number
// of compaction passes. The raw tier is retained at least as long as the
// ingest window spans, which is what lets a killed follower resume by
// replaying the window from local segments instead of re-tailing the
// source logs (see Store.Hydrate).
package modelstore
