package main

// Follow mode: instead of mining a finished corpus once, tail a log stream
// and re-emit the dependency model of a sliding time window as it moves.
// Pair with `tail -f | depmine -follow -` for live operation.
//
// The machinery lives in internal/follow (the same engine cmd/depmined
// hosts once per tenant stream); this file wraps the follow.Spec the flags
// were parsed into in a follow.Config, opens the -store directory the engine
// writes through, and prints the end-of-run summary from the Result.

import (
	"fmt"
	"io"

	"logscape/internal/follow"
)

// followStream tails one wire-format log stream ("-" = stdin, ".gz"
// transparently decompressed) and, on every closed bucket, writes the
// window's model document to stdout and a delta summary against the
// previous window to stderr (the golden-file tests pass their own). What
// Spec.Validate refuses — exactly what depmined refuses on a PUT — is
// refused here before anything is opened. With -listen, the run's metrics
// and net/http/pprof are served over HTTP while it tails.
func followStream(o options, stdout, stderr io.Writer) error {
	if len(o.files) != 1 {
		return fmt.Errorf("follow mode tails exactly one log stream (a file or - for stdin)")
	}
	cfg := follow.Config{Spec: o.spec, ResumePath: o.resumePath, QuarantinePath: o.quarantinePath, Metrics: o.metrics}
	cfg.Source = o.files[0]
	if err := cfg.Validate(); err != nil {
		return err
	}
	if o.storePath != "" {
		var err error
		if cfg.Store, err = cfg.OpenStore(o.storePath, o.metrics); err != nil {
			return err
		}
	}
	if o.listen != "" {
		stop, err := serveObs(o.listen, o.metrics)
		if err != nil {
			return err
		}
		defer stop()
	}
	res, err := follow.Run(cfg, stdout, stderr)
	if err != nil {
		return err
	}
	torn := ""
	if res.TornGzip {
		torn = ", torn gzip tail"
	}
	fmt.Fprintf(stderr, "follow done: %d entries in %d buckets (%d late, %d corrupt, %d malformed, %d oversized, %d quarantined; %d rotations%s)\n",
		res.Entries, res.Buckets, res.Late, res.Corrupt, res.Malformed, res.Oversized, res.Quarantined,
		res.Rotations, torn)
	printStats(o)
	return nil
}
