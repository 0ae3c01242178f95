package follow

import (
	"fmt"

	"logscape/internal/logmodel"
	"logscape/internal/modelstore"
	"logscape/internal/obs"
)

// Spec describes what one stream mines — the one description every host
// shares: depmine binds its follow-mode flags into it, depmined decodes it
// from a PUT body and persists it as stream.json (daemon.StreamConfig embeds
// it, so the JSON tags and their order are those documents' wire format),
// and Config embeds it for the engine.
type Spec struct {
	// Method selects the streaming miner: "l1", "l2" or "l3".
	Method string `json:"method"`
	// Source names the log stream: a file path, "-" for stdin, or a .gz
	// file (decompressed transparently, torn tails tolerated).
	Source string `json:"source"`
	// Directory is the service-directory XML path, required for l3.
	Directory string `json:"directory,omitempty"`
	// MinLogs is the L1 per-slot minimum log count.
	MinLogs int `json:"min_logs,omitempty"`
	// TimeoutSec is the L2 bigram timeout in seconds (0 = infinity).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// NoStops disables the canonical L3 stop patterns.
	NoStops bool `json:"no_stops,omitempty"`
	// Workers bounds per-bucket mining parallelism (0 = all cores via the
	// shared pool, 1 = sequential); output is identical for any value. It
	// does not bound the engine's own two goroutines: each bucket's commit
	// overlaps the mining of the next at every value, 1 included.
	Workers int `json:"workers,omitempty"`
	// BucketSec is the bucket width in seconds, WindowBuckets the window
	// size in buckets: the stream's mining geometry.
	BucketSec     float64 `json:"bucket_sec"`
	WindowBuckets int     `json:"window_buckets"`
	// Drift runs the drift detector over delivered buckets and prints one
	// DRIFT line per confirmed change point to stderr.
	Drift bool `json:"drift,omitempty"`
}

// Capacity guardrails: wider buckets or windows than any plausible
// deployment are rejected rather than risking arithmetic overflow deep in
// the engine.
const (
	maxBucketSec     = 7 * 24 * 3600 // one week per bucket
	maxWindowBuckets = 100_000
)

// Validate is the one check of a Spec, pure and side-effect free: what it
// refuses, depmine -follow refuses before it opens anything and depmined
// answers with 400 before it touches a tenant's state.
func (s Spec) Validate() error {
	switch s.Method {
	case "l1", "l2", "l3":
	default:
		return fmt.Errorf("method must be l1, l2 or l3 (got %q)", s.Method)
	}
	switch {
	case s.Source == "":
		return fmt.Errorf("source is required")
	case s.Method == "l3" && s.Directory == "":
		return fmt.Errorf("l3 requires a service directory")
	case s.Method != "l3" && s.Directory != "":
		return fmt.Errorf("directory is only meaningful for l3")
	case !(s.BucketSec > 0) || s.BucketSec > maxBucketSec:
		return fmt.Errorf("bucket_sec must be in (0, %d] (got %g)", maxBucketSec, s.BucketSec)
	case logmodel.SecondsToMillis(s.BucketSec) < 1:
		return fmt.Errorf("the bucket width must be at least one millisecond (got bucket_sec %g)", s.BucketSec)
	case s.WindowBuckets <= 0 || s.WindowBuckets > maxWindowBuckets:
		return fmt.Errorf("window_buckets must be in [1, %d] (got %d)", maxWindowBuckets, s.WindowBuckets)
	case s.MinLogs < 0:
		return fmt.Errorf("min_logs must be ≥ 0 (got %d)", s.MinLogs)
	case s.TimeoutSec < 0:
		return fmt.Errorf("timeout_sec must be ≥ 0 (got %g)", s.TimeoutSec)
	case s.Workers < 0:
		return fmt.Errorf("workers must be ≥ 0 (got %d)", s.Workers)
	}
	return nil
}

// OpenStore opens (or creates) the model store at dir with the geometry the
// engine derives from s — the one place a host gets Config.Store from, so
// store and ingest window cannot disagree. m receives the store.* counters
// and should be the run's Config.Metrics.
func (s Spec) OpenStore(dir string, m *obs.Registry) (*modelstore.Store, error) {
	return modelstore.Open(dir, modelstore.Config{
		BucketWidth:   logmodel.SecondsToMillis(s.BucketSec),
		WindowBuckets: s.WindowBuckets,
		Metrics:       m,
	})
}
