package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"logscape/internal/stream"
)

// Error classes the HTTP layer maps to status codes. Every daemon error
// wraps exactly one of them (or none, which maps to 500).
var (
	// ErrBadConfig marks a rejected stream name or configuration (400).
	// A rejected configuration never mutates daemon state.
	ErrBadConfig = errors.New("invalid stream config")
	// ErrBadRequest marks a malformed query parameter (400).
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks a reference to an unknown stream or to data the
	// store does not retain (404).
	ErrNotFound = errors.New("not found")
	// ErrGeometry marks a reconfigure that tries to change a stream's
	// mining geometry over existing on-disk state (409).
	ErrGeometry = errors.New("geometry mismatch")
)

// StreamConfig is one tenant stream's configuration, the JSON document a
// PUT /streams/{name} carries. Fields mirror depmine's follow-mode flags;
// Live replaces the implicit "stdin never ends" behavior: a live stream
// keeps tailing its file at EOF until it is stopped or reconfigured,
// a non-live stream ends (and flushes) at the first quiescent EOF.
type StreamConfig struct {
	// Method selects the streaming miner: "l1", "l2" or "l3".
	Method string `json:"method"`
	// Source is the log file to tail (".gz" decompressed transparently).
	// Stdin ("-") is not available to a daemon stream.
	Source string `json:"source"`
	// Directory is the service-directory XML path, required for l3.
	Directory string `json:"directory,omitempty"`
	// MinLogs is the L1 per-slot minimum log count.
	MinLogs int `json:"min_logs,omitempty"`
	// TimeoutSec is the L2 bigram timeout in seconds (0 = infinity).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// NoStops disables the canonical L3 stop patterns.
	NoStops bool `json:"no_stops,omitempty"`
	// Workers bounds per-bucket mining parallelism (0 = all cores); the
	// emitted artifacts are identical at every setting.
	Workers int `json:"workers,omitempty"`
	// BucketSec and WindowBuckets are the stream's mining geometry. They
	// are fixed for the stream's lifetime (see ErrGeometry).
	BucketSec     float64 `json:"bucket_sec"`
	WindowBuckets int     `json:"window_buckets"`
	// Drift enables the drift detector; confirmed change points appear in
	// events.log and on GET /streams/{name}/alerts.
	Drift bool `json:"drift,omitempty"`
	// Live keeps tailing at EOF until the stream is stopped.
	Live bool `json:"live,omitempty"`
}

// Capacity guardrails: wider buckets or windows than any plausible
// deployment are rejected rather than risking arithmetic overflow deep in
// the engine.
const (
	maxBucketSec     = 7 * 24 * 3600 // one week per bucket
	maxWindowBuckets = 100_000
	maxNameLen       = 64
)

// Validate checks a decoded configuration. It is pure: a failed
// validation has no side effects anywhere.
func (c StreamConfig) Validate() error {
	switch c.Method {
	case "l1", "l2", "l3":
	default:
		return fmt.Errorf("%w: method must be l1, l2 or l3 (got %q)", ErrBadConfig, c.Method)
	}
	if c.Source == "" {
		return fmt.Errorf("%w: source is required", ErrBadConfig)
	}
	if c.Source == "-" {
		return fmt.Errorf("%w: a daemon stream cannot tail stdin; give it a file path", ErrBadConfig)
	}
	if c.Method == "l3" && c.Directory == "" {
		return fmt.Errorf("%w: l3 requires a service directory", ErrBadConfig)
	}
	if c.Method != "l3" && c.Directory != "" {
		return fmt.Errorf("%w: directory is only meaningful for l3", ErrBadConfig)
	}
	if !(c.BucketSec > 0) || c.BucketSec > maxBucketSec {
		return fmt.Errorf("%w: bucket_sec must be in (0, %d] (got %g)", ErrBadConfig, maxBucketSec, c.BucketSec)
	}
	if c.WindowBuckets <= 0 || c.WindowBuckets > maxWindowBuckets {
		return fmt.Errorf("%w: window_buckets must be in [1, %d] (got %d)", ErrBadConfig, maxWindowBuckets, c.WindowBuckets)
	}
	if c.MinLogs < 0 {
		return fmt.Errorf("%w: min_logs must be ≥ 0 (got %d)", ErrBadConfig, c.MinLogs)
	}
	if c.TimeoutSec < 0 {
		return fmt.Errorf("%w: timeout_sec must be ≥ 0 (got %g)", ErrBadConfig, c.TimeoutSec)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: workers must be ≥ 0 (got %d)", ErrBadConfig, c.Workers)
	}
	return nil
}

// ValidateName checks a stream name: 1–64 characters of [A-Za-z0-9_-],
// starting with a letter or digit. Names double as state-directory names,
// so path separators and dot-files are unrepresentable by construction.
func ValidateName(name string) error {
	if name == "" || len(name) > maxNameLen {
		return fmt.Errorf("%w: stream name must be 1–%d characters", ErrBadConfig, maxNameLen)
	}
	for i, r := range name {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if alnum || (i > 0 && (r == '_' || r == '-')) {
			continue
		}
		return fmt.Errorf("%w: stream name may use [A-Za-z0-9_-] and must start alphanumeric (got %q)", ErrBadConfig, name)
	}
	return nil
}

// DecodeStreamConfig parses and validates one stream-config JSON
// document. Unknown fields and trailing data are rejected (a daemon
// config is a contract, not a suggestion), and a rejected document
// leaves no trace: decoding touches nothing but the returned value.
func DecodeStreamConfig(r io.Reader) (StreamConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var c StreamConfig
	if err := dec.Decode(&c); err != nil {
		return StreamConfig{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if dec.More() {
		return StreamConfig{}, fmt.Errorf("%w: trailing data after the config document", ErrBadConfig)
	}
	if err := c.Validate(); err != nil {
		return StreamConfig{}, err
	}
	return c, nil
}

// readStreamConfig loads a persisted stream.json. A missing file is not
// an error (ok=false): the stream has no prior on-disk configuration.
func readStreamConfig(path string) (StreamConfig, bool, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return StreamConfig{}, false, nil
	}
	if err != nil {
		return StreamConfig{}, false, err
	}
	c, err := DecodeStreamConfig(bytes.NewReader(b))
	if err != nil {
		return StreamConfig{}, true, fmt.Errorf("corrupt %s: %w", path, err)
	}
	return c, true, nil
}

// writeStreamConfig persists a stream.json atomically, the same
// crash-safety discipline the checkpoint writer uses.
func writeStreamConfig(path string, c StreamConfig) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return stream.WriteFileAtomic(path, append(b, '\n'))
}

// tenantDir returns the tenant's state directory under root.
func tenantDir(root, name string) string { return filepath.Join(root, name) }
