package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"

	"logscape/internal/follow"
	"logscape/internal/stream"
)

// Error classes the HTTP layer maps to status codes. Every daemon error
// wraps exactly one of them (or none, which maps to 500).
var (
	// ErrBadConfig marks a rejected stream name or configuration (400).
	// A rejected configuration never mutates daemon state — nor does one
	// whose launch fails (500): see Daemon.Upsert.
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
// PUT /streams/{name} carries and stream.json persists: the follow.Spec
// depmine's follow-mode flags also bind to, plus Live, which replaces the
// implicit "stdin never ends" behavior: a live stream keeps tailing its file
// at EOF until it is stopped or reconfigured, a non-live stream ends (and
// flushes) at the first quiescent EOF. BucketSec and WindowBuckets are fixed
// for the stream's lifetime (see ErrGeometry); with Drift, confirmed change
// points appear in events.log and on GET /streams/{name}/alerts.
type StreamConfig struct {
	follow.Spec
	// Live keeps tailing at EOF until the stream is stopped. It needs a
	// plain file: Validate refuses it on a .gz source.
	Live bool `json:"live,omitempty"`
}

// maxNameLen bounds a stream name, which doubles as a directory name.
const maxNameLen = 64

// Validate checks a decoded configuration: follow.Spec's one check plus the
// daemon's own rules — stdin ("-") is not available to a daemon stream, and
// live needs a plain file: a .gz source is read to its end, never tailed. It
// is pure: a failed validation has no side effects anywhere.
func (c StreamConfig) Validate() error {
	err := c.Spec.Validate()
	switch {
	case err != nil:
	case c.Source == "-":
		err = errors.New("a daemon stream cannot tail stdin; give it a file path")
	case c.Live && strings.HasSuffix(c.Source, ".gz"):
		err = errors.New("live: a .gz source is read to its end, never tailed; drop live or give a plain file")
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
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
