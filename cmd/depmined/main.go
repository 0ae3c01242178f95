// Command depmined is the multi-tenant mining daemon: many named follow
// streams — each with its own source, geometry, checkpoint, quarantine,
// drift detector and model store — run concurrently in one process,
// multiplexed over the single shared worker pool, and are administered
// and queried over an HTTP/JSON control API (see internal/daemon and
// docs/operations.md):
//
//	depmined -state /var/lib/depmined -listen 127.0.0.1:7340
//
// Every tenant's artifacts are byte-identical to a solo `depmine -follow`
// run over the same stream: multi-tenancy shares compute, never results.
// Stopping the daemon (SIGINT/SIGTERM) hard-stops every engine without
// flushing open buckets; the next start rehydrates each stream from its
// checkpoint and continues byte-exactly.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"logscape/internal/daemon"
	"logscape/internal/obs"
	"logscape/internal/parallel"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7340", "control API listen address")
	state := flag.String("state", "", "state directory, one subdirectory per stream (required)")
	pool := flag.Int("pool", 0, "shared worker-pool size, multiplexed across all streams (0 = all cores)")
	flag.Parse()
	if err := run(*listen, *state, *pool); err != nil {
		fmt.Fprintln(os.Stderr, "depmined:", err)
		os.Exit(1)
	}
}

func run(listen, state string, pool int) error {
	if state == "" {
		return fmt.Errorf("-state DIR is required")
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("depmined takes no positional arguments")
	}
	if pool > 0 {
		if err := parallel.SetPoolSize(pool); err != nil {
			return err
		}
	}
	// SystemClock is injected here, at the process edge: every tenant
	// registry gets real timings, while the library defaults stay
	// deterministic for tests.
	d, err := daemon.New(daemon.Config{StateDir: state, Clock: obs.SystemClock})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return fmt.Errorf("-listen %s: %w", listen, err)
	}
	srv := daemon.NewServer(d.Handler())
	go srv.Serve(ln) //lint:allow bareconc HTTP serving is process-edge I/O concurrency, not mining work; every handler goes through the daemon's per-tenant locks
	fmt.Fprintf(os.Stderr, "depmined: control API on http://%s (state %s)\n", ln.Addr(), state)

	sig := make(chan os.Signal, 1) //lint:allow bareconc the standard library's signal delivery requires a channel; this is process lifecycle, not mining fan-out
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "depmined: stopping (hard; streams resume from their checkpoints)")
	srv.Close()
	d.Kill()
	return nil
}
