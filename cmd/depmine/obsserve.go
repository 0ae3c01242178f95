package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"logscape/internal/daemon"
	"logscape/internal/obs"
)

// obsHandler returns the follow-mode observability endpoints:
//
//	/metrics       the full metrics document (sorted JSON)
//	/debug/pprof/  the standard net/http/pprof profiles
//
// The handlers only read the registry — serving can never perturb the mined
// models.
func obsHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveObs starts the observability endpoint on addr and returns a function
// that shuts it down. The bound address is printed to stderr (addr may be
// ":0" for an ephemeral port).
func serveObs(addr string, reg *obs.Registry) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-listen %s: %w", addr, err)
	}
	srv := daemon.NewServer(obsHandler(reg)) // depmined's server: the same connection limits
	// The listener goroutine lives outside internal/parallel by necessity:
	// it is I/O concurrency at the process edge, not mining work, and it
	// never touches miner state — the handlers only read the registry.
	go srv.Serve(ln) //lint:allow bareconc HTTP serving is process-edge I/O concurrency, not mining work; handlers only read the metrics registry
	fmt.Fprintf(os.Stderr, "observability endpoint on http://%s (/metrics, /debug/pprof/)\n", ln.Addr())
	return func() { srv.Close() }, nil
}
