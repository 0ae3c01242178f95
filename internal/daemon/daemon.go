package daemon

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"logscape/internal/follow"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
	"logscape/internal/stream"
)

// Per-tenant file names under <state>/<name>/ (see the package comment).
const (
	configFile = "stream.json"
	outFile    = "out.log"
	eventsFile = "events.log"
	ckptFile   = "follow.ckpt"
	quarFile   = "quarantine.log"
	storeName  = "store"
)

// Config parameterizes a Daemon.
type Config struct {
	// StateDir is the root under which every tenant keeps its directory.
	StateDir string
	// Clock feeds each tenant registry's timings (obs.SystemClock at the
	// CLI edge; nil in tests, where metrics must be input-determined).
	Clock func() int64
	// PollMillis is the backstop and the stop bound of a live tail's idle
	// wait (0 = 25ms): a live stream wakes on a change to its source
	// (stream.Wake), or after PollMillis if none comes — and where the wake
	// cannot watch, it sleeps PollMillis. It shapes how promptly a live
	// stream notices a stop or a change the wake missed, never what it
	// emits.
	PollMillis int
}

// Daemon hosts the tenant streams. Construct with New, rehydrate
// persisted streams with Start, and administer through the exported
// methods (or the HTTP handler, which is a thin layer over them).
type Daemon struct {
	cfg Config

	mu      sync.Mutex // guards streams; held across stream lifecycle changes
	streams map[string]*tenant
}

// tenant is one named stream: its configuration, its running engine (if
// any) and the engine's observable position.
type tenant struct {
	name string
	dir  string
	// metrics is the stream's own registry — one tenant's instruments never
	// mix with a neighbor's. A re-PUT hands it on to the next tenant of the
	// name; Remove forgets it with the tenant.
	metrics *obs.Registry
	// store is the handle launch opened and the engine appends through.
	// Queries read it under mu, which the engine holds around every
	// bucket's commit, so they see a whole number of appends — the files'
	// own content.
	store *modelstore.Store

	// mu is the engine's AdvanceLock: held by the engine around every
	// bucket's commit (mining runs outside it) and by the daemon around
	// every status read and store query, so a query never observes a
	// half-written commit. The mutable fields below are all guarded by it.
	mu       sync.Mutex
	cfg      StreamConfig
	state    string // "running", "done", "stopped", "failed", "removed"
	progress follow.Progress
	result   follow.Result
	runErr   error

	stop      atomic.Bool  // raised to hard-stop the engine
	idlePolls atomic.Int64 // live-tail idle waits, one per quiescent EOF; signals idleness
	done      chan struct{}
}

// Status is the per-stream document GET /streams/{name} serves. For a
// finished stream Totals carries the run's accounting — the numbers depmine's
// "follow done" line prints; while running, the progress fields advance per
// closed bucket.
type Status struct {
	Name   string       `json:"name"`
	State  string       `json:"state"`
	Config StreamConfig `json:"config"`

	// Buckets, Consumed, LastBucket and WindowEnd are the engine's
	// cumulative position (WindowEnd in the canonical UTC second form).
	Buckets    int    `json:"buckets"`
	Consumed   int64  `json:"consumed"`
	LastBucket int64  `json:"last_bucket"`
	WindowEnd  string `json:"window_end,omitempty"`

	// IdlePolls counts a live tail's idle waits, one per quiescent EOF,
	// however each wait ended (a change to the source or the backstop; the
	// registry's ingest.wakes and ingest.wake_timeouts split them). A
	// growing value under an unchanged source means the stream has drained
	// it.
	IdlePolls int64 `json:"idle_polls,omitempty"`

	Totals *follow.Result `json:"totals,omitempty"`
	Error  string         `json:"error,omitempty"`
}

// New returns a daemon rooted at cfg.StateDir (created if missing). No
// streams run until Start or Upsert.
func New(cfg Config) (*Daemon, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("daemon: StateDir is required")
	}
	if cfg.PollMillis <= 0 {
		cfg.PollMillis = 25
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	return &Daemon{cfg: cfg, streams: make(map[string]*tenant)}, nil
}

// Start rehydrates every persisted stream (directories with a
// stream.json) in name order and starts their engines, each resuming
// from its own checkpoint. A finished stream whose source has not grown
// emits nothing, so restarting the daemon is idempotent.
func (d *Daemon) Start() error {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		cfg, ok, err := readStreamConfig(filepath.Join(d.cfg.StateDir, name, configFile))
		if err != nil {
			return fmt.Errorf("rehydrating stream %q: %w", name, err)
		}
		if !ok {
			continue // not a tenant directory
		}
		if _, err := d.Upsert(name, cfg); err != nil {
			return fmt.Errorf("rehydrating stream %q: %w", name, err)
		}
	}
	return nil
}

// Upsert creates or reconfigures the named stream and (re)starts its
// engine. A running engine is hard-stopped first — its checkpoint makes
// the restart exact — and the stream resumes under the new configuration.
// Geometry (method, bucket width, window size) is fixed once on-disk
// state exists; changing it is refused with ErrGeometry. stream.json is
// persisted last, once everything the engine needs has opened: a refused or
// failed Upsert leaves no stream.json it wrote and no directory it created.
func (d *Daemon) Upsert(name string, cfg StreamConfig) (Status, error) {
	if err := ValidateName(name); err != nil {
		return Status{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Status{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	dir := filepath.Join(d.cfg.StateDir, name) // the tenant's state directory
	prev, ok, err := readStreamConfig(filepath.Join(dir, configFile))
	if err != nil {
		return Status{}, err
	}
	if ok && (prev.Method != cfg.Method || prev.BucketSec != cfg.BucketSec || prev.WindowBuckets != cfg.WindowBuckets) { //lint:allow floateq geometry is an exact config identity check, not arithmetic: both values round-trip through the same JSON document unmodified
		return Status{}, fmt.Errorf(
			"%w: stream %q mines method=%s bucket=%gs window=%d; those are fixed for its lifetime (got method=%s bucket=%gs window=%d) — delete its state directory to start fresh",
			ErrGeometry, name, prev.Method, prev.BucketSec, prev.WindowBuckets,
			cfg.Method, cfg.BucketSec, cfg.WindowBuckets)
	}
	t := &tenant{
		name: name,
		dir:  dir,
		cfg:  cfg,
		done: make(chan struct{}), //lint:allow bareconc lifecycle signal for one engine goroutine, not mining fan-out; the engine's parallelism stays inside the shared pool
	}
	if old := d.streams[name]; old != nil {
		old.stop.Store(true)
		<-old.done
		t.metrics = old.metrics
	} else {
		t.metrics = obs.NewWithClock(d.cfg.Clock)
	}
	st, err := d.launch(t)
	if err != nil {
		return Status{}, err
	}
	d.streams[name] = t
	return st, nil
}

// launch opens what the tenant's engine writes — the model store (the one
// Open of a launch, synchronous so that a geometry conflict surfaces on the
// PUT), out.log, events.log — persists stream.json and starts the engine
// goroutine. On failure it removes the tenant directory if it created it.
// The returned status is snapshotted before the engine starts, so an Upsert
// response is a pure function of the request — zero progress, state
// "running".
func (d *Daemon) launch(t *tenant) (st Status, err error) {
	_, statErr := os.Stat(t.dir)
	var out, events *os.File
	defer func() {
		if err != nil {
			out.Close()
			events.Close()
			if os.IsNotExist(statErr) {
				os.RemoveAll(t.dir)
			}
		}
	}()
	if t.store, err = t.cfg.OpenStore(filepath.Join(t.dir, storeName), t.metrics); err != nil {
		return Status{}, err
	}
	if out, err = os.OpenFile(filepath.Join(t.dir, outFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return Status{}, err
	}
	if events, err = os.OpenFile(filepath.Join(t.dir, eventsFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return Status{}, err
	}
	if err = writeStreamConfig(filepath.Join(t.dir, configFile), t.cfg); err != nil {
		return Status{}, err
	}
	fcfg := follow.Config{
		Spec:           t.cfg.Spec,
		ResumePath:     filepath.Join(t.dir, ckptFile),
		QuarantinePath: filepath.Join(t.dir, quarFile),
		Store:          t.store,
		Metrics:        t.metrics,
		Stop:           t.stop.Load,
		AdvanceLock:    &t.mu,
		// Progress runs inside AdvanceLock (t.mu held) on the engine's
		// commit goroutine, so the plain assignment is already
		// synchronized with status().
		Progress: func(p follow.Progress) { t.progress = p },
	}
	var wake *stream.Wake
	if t.cfg.Live {
		poll := time.Duration(d.cfg.PollMillis) * time.Millisecond
		// Armed before the engine opens its tailer, so no append falls
		// between the first EOF and the watch. The engine consults Stop
		// before every wait, so the hook only idles: until the source
		// changes, or for the backstop.
		wake = stream.NewWake(t.cfg.Source, t.metrics)
		fcfg.Wait = func() bool {
			t.idlePolls.Add(1)
			wake.Wait(poll)
			return true
		}
	}
	t.state = "running"
	st = t.status()
	go func() { //lint:allow bareconc one engine goroutine per tenant stream is process-edge concurrency; all mining fan-out inside the engine routes through the shared parallel pool
		res, err := follow.Run(fcfg, out, events)
		wake.Close()
		if err != nil {
			// What depmine prints to stderr before exiting 1: the cause
			// outlives the daemon, beside the run's last delta line.
			fmt.Fprintln(events, "depmined:", err)
		}
		out.Close()
		events.Close()
		t.mu.Lock()
		t.result, t.runErr = res, err
		switch {
		case err != nil:
			t.state = "failed"
		case res.Stopped:
			t.state = "stopped"
		default:
			t.state = "done"
		}
		t.mu.Unlock()
		close(t.done)
	}()
	return st, nil
}

// lookup returns the named tenant or an ErrNotFound.
func (d *Daemon) lookup(name string) (*tenant, error) {
	d.mu.Lock()
	t := d.streams[name]
	d.mu.Unlock()
	if t == nil {
		return nil, fmt.Errorf("%w: no stream named %q", ErrNotFound, name)
	}
	return t, nil
}

// Status returns the named stream's status document.
func (d *Daemon) Status(name string) (Status, error) {
	t, err := d.lookup(name)
	if err != nil {
		return Status{}, err
	}
	return t.status(), nil
}

// List returns every stream's status, sorted by name.
func (d *Daemon) List() []Status {
	d.mu.Lock()
	tenants := make([]*tenant, 0, len(d.streams))
	for _, t := range d.streams {
		tenants = append(tenants, t)
	}
	d.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	out := make([]Status, len(tenants))
	for i, t := range tenants {
		out[i] = t.status()
	}
	return out
}

// Remove hard-stops the named stream and forgets it. Its state directory
// stays on disk (a later Upsert under the same name resumes from it);
// deleting the directory is the operator's explicit act, never the API's.
func (d *Daemon) Remove(name string) (Status, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.streams[name]
	if t == nil {
		return Status{}, fmt.Errorf("%w: no stream named %q", ErrNotFound, name)
	}
	t.stop.Store(true)
	<-t.done
	delete(d.streams, name)
	st := t.status()
	st.State = "removed"
	return st, nil
}

// Kill hard-stops every engine, the in-process SIGKILL-equivalent: no
// open bucket is flushed, so a restarted daemon resumes each tenant from
// its checkpoint with byte-exact continuations. The daemon is spent
// afterwards; construct a new one to continue.
func (d *Daemon) Kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.streams {
		t.stop.Store(true)
	}
	for _, t := range d.streams {
		<-t.done
	}
}

// WaitIdle blocks until the named stream has either finished or (for a
// live stream) completed at least n quiescent-EOF polls since the call —
// i.e. it has drained everything currently in its source. Test harnesses
// use it to sequence kills deterministically.
func (d *Daemon) WaitIdle(name string, n int64) error {
	t, err := d.lookup(name)
	if err != nil {
		return err
	}
	base := t.idlePolls.Load()
	for {
		select {
		case <-t.done:
			return nil
		default:
		}
		if t.idlePolls.Load()-base >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
}

// Wait blocks until the named stream's engine goroutine has exited.
func (d *Daemon) Wait(name string) (Status, error) {
	t, err := d.lookup(name)
	if err != nil {
		return Status{}, err
	}
	<-t.done
	return t.status(), nil
}

// status renders the tenant's status document under its advance lock.
func (t *tenant) status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Status{
		Name:       t.name,
		State:      t.state,
		Config:     t.cfg,
		Buckets:    t.progress.Buckets,
		Consumed:   t.progress.Consumed,
		LastBucket: t.progress.LastIndex,
		IdlePolls:  t.idlePolls.Load(),
	}
	if t.progress.WindowEnd != 0 {
		s.WindowEnd = modelstore.Stamp(t.progress.WindowEnd)
	}
	if t.state != "running" {
		r := t.result
		s.Totals = &r
	}
	if t.runErr != nil {
		s.Error = t.runErr.Error()
	}
	return s
}
