package main

// Follow mode: instead of mining a finished corpus once, tail a log stream
// and re-emit the dependency model of a sliding time window as it moves.
// Pair with `tail -f | depmine -follow -` for live operation.
//
// The machinery lives in internal/follow (the same engine cmd/depmined
// hosts once per tenant stream); this file only adapts the parsed flags
// to a follow.Config and prints the end-of-run summary the engine reports
// back.

import (
	"fmt"
	"io"

	"logscape/internal/follow"
)

// followConfig adapts the parsed flags to the engine's configuration.
func followConfig(o options) (follow.Config, error) {
	if len(o.files) != 1 {
		return follow.Config{}, fmt.Errorf("follow mode tails exactly one log stream (a file or - for stdin)")
	}
	return follow.Config{
		Method:         o.method,
		Source:         o.files[0],
		DirPath:        o.dirPath,
		MinLogs:        o.minlogs,
		TimeoutSec:     o.timeout,
		NoStops:        o.nostops,
		Workers:        o.workers,
		BucketSec:      o.bucketSec,
		WindowBuckets:  o.windowN,
		ResumePath:     o.resumePath,
		QuarantinePath: o.quarantinePath,
		StorePath:      o.storePath,
		Drift:          o.drift,
		Metrics:        o.metrics,
	}, nil
}

// followStream tails one wire-format log stream ("-" = stdin, ".gz"
// transparently decompressed) and, on every closed bucket, writes the
// window's model document to stdout and a delta summary against the
// previous window to stderr (the golden-file tests pass their own). With
// -listen, the run's metrics and net/http/pprof are served over HTTP while
// it tails.
func followStream(o options, stdout, stderr io.Writer) error {
	cfg, err := followConfig(o)
	if err != nil {
		return err
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
	s, fs := res.Ingest, res.Feed
	torn := ""
	if res.TornGzip {
		torn = ", torn gzip tail"
	}
	fmt.Fprintf(stderr, "follow done: %d entries in %d buckets (%d late, %d corrupt, %d malformed, %d oversized, %d quarantined; %d rotations%s)\n",
		s.Accepted, s.Buckets, s.Late, s.Corrupt, fs.Malformed, fs.Oversized, fs.Quarantined,
		res.Rotations, torn)
	printStats(o)
	return nil
}
