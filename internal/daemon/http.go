package daemon

// The HTTP/JSON control API, a thin layer over the Daemon methods:
//
//	GET    /streams                     every stream's status, name-sorted
//	PUT    /streams/{name}              create or reconfigure (body: StreamConfig)
//	GET    /streams/{name}              one stream's status
//	DELETE /streams/{name}              stop and forget (state dir kept)
//	GET    /streams/{name}/model        model document (?at=TIME; default latest)
//	GET    /streams/{name}/diff         edge delta (?from=TIME&to=TIME)
//	GET    /streams/{name}/trajectory   one key's history (?key=KEY)
//	GET    /streams/{name}/alerts       the stream's DRIFT lines
//	GET    /streams/{name}/metrics      the tenant's metrics document
//	GET    /metrics                     daemon-wide: pool stats + stream names
//
// Errors are JSON bodies {"error": "..."} with 400 (bad config/params),
// 404 (unknown stream, unretained instant), 409 (geometry mismatch) or
// 500. Query endpoints serve the same bytes the equivalent depmine
// subcommand prints — both render through internal/modelstore.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/parallel"
)

// maxConfigBytes bounds a PUT body; a stream config is a small document.
const maxConfigBytes = 1 << 20

// NewServer returns the server both hosts serve from — depmined its control
// API, depmine -listen its metrics and pprof endpoint — with the connection
// limits they share: a client that never finishes its request headers, or
// parks an idle keep-alive connection, is cut off. There is no ReadTimeout
// or WriteTimeout on purpose — either would also cut a slow PUT body or a
// long response such as /debug/pprof/profile, which streams for 30 s.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
}

// Handler returns the control API handler.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /streams", d.handleList)
	mux.HandleFunc("PUT /streams/{name}", d.handlePut)
	mux.HandleFunc("GET /streams/{name}", d.handleGet)
	mux.HandleFunc("DELETE /streams/{name}", d.handleDelete)
	mux.HandleFunc("GET /streams/{name}/model", d.handleModel)
	mux.HandleFunc("GET /streams/{name}/diff", d.handleDiff)
	mux.HandleFunc("GET /streams/{name}/trajectory", d.handleTrajectory)
	mux.HandleFunc("GET /streams/{name}/alerts", d.handleAlerts)
	mux.HandleFunc("GET /streams/{name}/metrics", d.handleTenantMetrics)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

// writeJSON writes v as indented JSON with a trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

// fail maps a daemon error to its HTTP status and writes the JSON body.
func fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadConfig) || errors.Is(err, ErrBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrGeometry):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"streams": d.List()})
}

func (d *Daemon) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	cfg, err := DecodeStreamConfig(http.MaxBytesReader(w, r.Body, maxConfigBytes))
	if err != nil {
		fail(w, err)
		return
	}
	st, err := d.Upsert(name, cfg)
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := d.Status(r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (d *Daemon) handleDelete(w http.ResponseWriter, r *http.Request) {
	st, err := d.Remove(r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// when parses an instant query parameter, defaulting to def when absent.
func when(r *http.Request, param string, def logmodel.Millis) (logmodel.Millis, error) {
	s := r.URL.Query().Get(param)
	if s == "" {
		if def != 0 {
			return def, nil
		}
		return 0, fmt.Errorf("%w: missing ?%s=TIME", ErrBadRequest, param)
	}
	t, err := modelstore.ParseWhen(s)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return t, nil
}

// query answers one read of a tenant as text/plain. fn renders the body
// under the tenant's advance lock, which orders it after any in-flight
// bucket commit; the store it reads is the handle the engine appends
// through, whose active granule is the records its last append wrote
// (modelstore's records accessor: memory ≡ disk). So a query sees a whole
// number of commits without reopening anything, and the round-trip contract
// (query == live bytes) holds at every instant.
func (d *Daemon) query(w http.ResponseWriter, r *http.Request, fn func(t *tenant, body *bytes.Buffer) error) {
	var body bytes.Buffer
	t, err := d.lookup(r.PathValue("name"))
	if err == nil {
		t.mu.Lock()
		err = fn(t, &body)
		t.mu.Unlock()
	}
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body.Bytes())
}

// modelAt resolves an instant to its retained record, or ErrNotFound.
func modelAt(st *modelstore.Store, at logmodel.Millis) (modelstore.Record, error) {
	rec, ok, err := st.ModelAt(at)
	if err == nil && !ok {
		err = fmt.Errorf("%w: no model retained at or before %s", ErrNotFound, modelstore.Stamp(at))
	}
	return rec, err
}

func (d *Daemon) handleModel(w http.ResponseWriter, r *http.Request) {
	at, err := when(r, "at", math.MaxInt64) // default: the latest retained model
	if err != nil {
		fail(w, err)
		return
	}
	d.query(w, r, func(t *tenant, body *bytes.Buffer) error {
		rec, err := modelAt(t.store, at)
		body.Write(rec.Model)
		return err
	})
}

func (d *Daemon) handleDiff(w http.ResponseWriter, r *http.Request) {
	from, err := when(r, "from", 0)
	if err != nil {
		fail(w, err)
		return
	}
	to, err := when(r, "to", 0)
	if err != nil {
		fail(w, err)
		return
	}
	d.query(w, r, func(t *tenant, body *bytes.Buffer) error {
		// Resolve both instants first so an unretained one reports as 404
		// rather than a bare internal error.
		for _, at := range []logmodel.Millis{from, to} {
			if _, err := modelAt(t.store, at); err != nil {
				return err
			}
		}
		diff, err := t.store.DiffAt(from, to)
		if err != nil {
			return err
		}
		return modelstore.WriteDiff(body, diff)
	})
}

func (d *Daemon) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		fail(w, fmt.Errorf("%w: missing ?key=KEY (A--B pair or App->GROUP dependency)", ErrBadRequest))
		return
	}
	d.query(w, r, func(t *tenant, body *bytes.Buffer) error {
		points, err := t.store.Trajectory(key)
		if err != nil {
			return err
		}
		return modelstore.WriteTrajectory(body, points)
	})
}

// handleAlerts serves the stream's DRIFT lines: events.log filtered to
// the drift detector's output, read under the advance lock so a
// half-written alert is never visible. A delta line lists every born and
// gone edge, so a line has no useful length bound: each is read whole,
// whatever its length, and only the DRIFT ones are kept.
func (d *Daemon) handleAlerts(w http.ResponseWriter, r *http.Request) {
	d.query(w, r, func(t *tenant, body *bytes.Buffer) error {
		f, err := os.Open(filepath.Join(t.dir, eventsFile))
		if errors.Is(err, os.ErrNotExist) {
			return nil // launch created it; an operator removed it: nothing to show
		} else if err != nil {
			return err
		}
		defer f.Close()
		for br := bufio.NewReader(f); err == nil; {
			var line []byte
			if line, err = br.ReadBytes('\n'); bytes.HasPrefix(line, []byte("DRIFT ")) {
				body.Write(bytes.TrimSuffix(line, []byte("\n")))
				body.WriteByte('\n')
			}
		}
		if err == io.EOF {
			err = nil
		}
		return err
	})
}

// handleTenantMetrics serves one tenant's metrics document. The registry
// is per tenant, so one stream's counters never include a neighbor's.
func (d *Daemon) handleTenantMetrics(w http.ResponseWriter, r *http.Request) {
	t, err := d.lookup(r.PathValue("name"))
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := t.metrics.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics serves the daemon-wide document: shared-pool stats and
// the stream roster. Per-stream numbers live under each tenant's own
// /streams/{name}/metrics.
func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	pool := parallel.Stats()
	d.mu.Lock()
	names := make([]string, 0, len(d.streams))
	for name := range d.streams {
		names = append(names, name)
	}
	d.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{
		"pool": map[string]int64{
			"helpers":  int64(pool.Helpers),
			"handoffs": pool.Handoffs,
			"misses":   pool.Misses,
		},
		"streams": names,
	})
}
