package stream

import (
	"encoding/json"
	"fmt"
	"os"

	"logscape/internal/logmodel"
)

// checkpointVersion guards the on-disk format. Version 2 carries the drift
// detector's state as its binary image (drift.State); version 1 embedded it
// as a JSON object.
const checkpointVersion = 2

// Checkpoint is a serializable snapshot of an Ingester's state plus the
// transport position it corresponds to: beside the model store that holds
// the window (modelstore.Store.Hydrate reads it back into Buckets),
// everything a killed follow process needs to resume without replaying the
// whole stream and without double-ingesting a single line. Entries are
// stored as wire-format lines (byte slices, base64 in JSON, so messages
// that are not valid UTF-8 survive the round trip — encoding/json would
// otherwise mangle them).
//
// The checkpoint deliberately holds no miner state: miners are rebuilt on
// restore by replaying the window's buckets through Advance. The streaming
// contract — Snapshot is a pure function of the window's entries — makes
// that replay exact, and pinning one serialization per miner would couple
// the format to every miner's internals.
type Checkpoint struct {
	Version int `json:"version"`
	// Offset is the logical stream position just past the last processed
	// line (Feeder.Consumed at checkpoint time): resume by skipping exactly
	// this many decompressed bytes, or seeking to it in a plain file.
	Offset int64 `json:"offset"`
	// Rotations is the tailer's rotation count at checkpoint time. A plain
	// Offset is only seekable while it is 0 — after a rotation the offset
	// no longer maps to one file.
	Rotations int64 `json:"rotations"`

	// BucketWidth and WindowBuckets pin the window geometry; restore
	// refuses a mismatching Config instead of mis-bucketing silently.
	BucketWidth   logmodel.Millis `json:"bucket_width"`
	WindowBuckets int             `json:"window_buckets"`

	Origin  logmodel.Millis    `json:"origin"`
	Cur     int64              `json:"cur"`
	Open    bool               `json:"open"`
	Pending [][]byte           `json:"pending,omitempty"`
	Buckets []CheckpointBucket `json:"buckets,omitempty"`
	Stats   IngestStats        `json:"stats"`

	// WindowInStore marks a checkpoint whose window lives in a model store
	// (CheckpointLight always sets it). Restore refuses it until
	// modelstore.Store.Hydrate has filled Buckets back in and cleared the
	// flag — restoring with a silently empty window would drop the miners'
	// state instead of failing loudly.
	WindowInStore bool `json:"window_in_store,omitempty"`

	// Drift carries the drift detector's serialized state (drift.State),
	// when the follower runs with drift detection on. The ingester itself
	// neither produces nor consumes it: replaying the window's buckets
	// through the miners must NOT re-feed the detector (those buckets were
	// observed before the checkpoint), so the caller restores the detector
	// from this blob instead.
	Drift []byte `json:"drift,omitempty"`
}

// CheckpointBucket is one delivered window bucket in checkpoint form. Its
// time range is not stored: it is derived from Origin + Index·BucketWidth.
type CheckpointBucket struct {
	Index   int64    `json:"index"`
	Entries [][]byte `json:"entries"`
}

// CheckpointLight captures the ingester's state but for the delivered
// window, and marks the result WindowInStore: the window's entries already
// live in the model store's raw segments, so serializing them again would
// write the window twice per bucket. Pending (open-bucket) entries are
// included — no store record holds them yet. offset and rotations describe
// the transport position (see the field docs); callers take a checkpoint
// inside OnAdvance, right after a bucket closed, with offset =
// Feeder.Consumed().
func (in *Ingester) CheckpointLight(offset, rotations int64) *Checkpoint {
	c := &Checkpoint{
		Version:       checkpointVersion,
		Offset:        offset,
		Rotations:     rotations,
		BucketWidth:   in.cfg.BucketWidth,
		WindowBuckets: in.cfg.WindowBuckets,
		Origin:        in.origin,
		Cur:           in.cur,
		Open:          in.open,
		Stats:         in.stats,
		WindowInStore: true,
	}
	if !in.started {
		c.Cur = -1 // sentinel: no origin fixed yet
	}
	for _, e := range in.pending {
		c.Pending = append(c.Pending, logmodel.AppendEntry(nil, e))
	}
	return c
}

// Restore rebuilds an ingester (and the given freshly constructed miners)
// from the checkpoint: window buckets are replayed through every miner's
// Advance in index order, pending entries are reinstated, and the window
// gauges are re-set. The miners must be new — replay on top of existing
// state would double-count. Metric counters restart from zero (a resumed
// process is a new process); IngestStats continuity comes from the
// checkpoint itself.
func (c *Checkpoint) Restore(cfg Config, miners ...Miner) (*Ingester, error) {
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	if c.WindowInStore {
		return nil, fmt.Errorf("stream: checkpoint window lives in the model store; hydrate it from segments before restoring")
	}
	cfg = cfg.withDefaults()
	if cfg.BucketWidth != c.BucketWidth || cfg.WindowBuckets != c.WindowBuckets {
		return nil, fmt.Errorf("stream: checkpoint window geometry %dms×%d does not match configured %dms×%d",
			c.BucketWidth, c.WindowBuckets, cfg.BucketWidth, cfg.WindowBuckets)
	}
	in := NewIngester(cfg, miners...)
	in.stats = c.Stats
	if c.Cur < 0 {
		return in, nil // checkpointed before the first accepted entry
	}
	in.started = true
	in.origin = c.Origin
	in.cur = c.Cur
	in.open = c.Open

	// One intern table across the whole restore: the replayed window and the
	// pending bucket share Source/Host/User values just like live ingest.
	it := logmodel.NewIntern()
	var err error
	in.pending, err = parseLines(c.Pending, it)
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint pending: %w", err)
	}
	last := int64(-1)
	winEntries := int64(0)
	for _, cb := range c.Buckets {
		if cb.Index <= last {
			return nil, fmt.Errorf("stream: checkpoint buckets out of order (%d after %d)", cb.Index, last)
		}
		last = cb.Index
		es, err := parseLines(cb.Entries, it)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint bucket %d: %w", cb.Index, err)
		}
		start := c.Origin + logmodel.Millis(cb.Index)*cfg.BucketWidth
		b := Bucket{
			Index:   cb.Index,
			Range:   logmodel.TimeRange{Start: start, End: start + cfg.BucketWidth},
			Entries: es,
		}
		in.win = append(in.win, b)
		winEntries += int64(len(es))
	}
	for _, m := range in.miners {
		in.Replay(m)
	}
	in.mWinBuckets.Set(int64(len(in.win)))
	in.mWinEntries.Set(winEntries)
	return in, nil
}

// Replay advances the freshly constructed m over the window's delivered
// buckets in index order — what Restore does for the miners it is given, and
// how a caller that advances its miner from OnAdvance rebuilds it.
func (in *Ingester) Replay(m Miner) {
	for _, b := range in.win {
		m.Advance(b)
	}
}

// parseLines decodes wire-format lines back into entries, interning through
// it (the JSON-decoded line buffers are left unmodified and free to be
// collected).
func parseLines(lines [][]byte, it *logmodel.Intern) ([]logmodel.Entry, error) {
	if len(lines) == 0 {
		return nil, nil
	}
	es := make([]logmodel.Entry, 0, len(lines))
	for _, l := range lines {
		e, err := logmodel.ParseEntryBytes(l, it)
		if err != nil {
			return nil, err
		}
		es = append(es, e)
	}
	return es, nil
}

// WriteFileAtomic replaces the file at path with data: the full image goes
// to a sibling temp file, which is then renamed over the target. A killed
// process leaves the previous version (or nothing) — never a torn file —
// and any failure removes the temp file. Every state file of the system
// (checkpoint, store segments and meta, the daemon's stream.json) is
// written here. Nothing is synced, so the guarantee covers a process kill,
// not power loss.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort; the write or rename error is the one to report
	}
	return err
}

// WriteCheckpointFile atomically persists the checkpoint (WriteFileAtomic),
// so resume never sees a torn file.
func WriteCheckpointFile(path string, c *Checkpoint) error {
	data, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, data)
}

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile.
// A missing file returns (nil, nil): "no checkpoint yet" is the normal
// first-run state, not an error.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// The version is checked before anything else is decoded: a field whose
	// type changed between versions must read as "wrong version", not as
	// whatever encoding/json makes of the mismatch.
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	if head.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint %s has format version %d, want %d — remove it and point -store at a fresh directory to start fresh",
			path, head.Version, checkpointVersion)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("stream: checkpoint %s: %w", path, err)
	}
	return &c, nil
}
