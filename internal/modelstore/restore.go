package modelstore

import (
	"fmt"

	"logscape/internal/stream"
)

// Hydrate fills in the window buckets of a checkpoint written with
// WindowInStore (stream.Ingester.CheckpointLight) from the raw segments'
// evidence — instead of having serialized them into the checkpoint, and
// instead of re-tailing the source logs. The checkpoint then restores
// through stream.Checkpoint.Restore.
//
// The window can lack its oldest buckets: after a kill between appending
// record k and checkpointing it, the append may have compacted the granule
// holding bucket k−W. That is harmless: the next delivered bucket (k or
// later) retires them before any snapshot, and the first delta line's
// baseline is the stored document, not a snapshot of this window.
//
// A checkpoint whose WindowInStore flag is unset is returned untouched.
func (s *Store) Hydrate(cp *stream.Checkpoint) error {
	if cp == nil || !cp.WindowInStore {
		return nil
	}
	if cp.BucketWidth != s.cfg.BucketWidth || cp.WindowBuckets != s.cfg.WindowBuckets {
		return fmt.Errorf("modelstore: checkpoint window geometry %dms×%d does not match store geometry %dms×%d",
			cp.BucketWidth, cp.WindowBuckets, s.cfg.BucketWidth, s.cfg.WindowBuckets)
	}
	cp.WindowInStore = false
	cp.Buckets = nil
	if cp.Cur < 0 {
		return nil // checkpointed before the first accepted entry
	}

	// The store may hold one record newer than the checkpoint: a follower
	// killed between the segment append and the checkpoint write. The
	// checkpoint's own cursor bounds the delivered window — with an open
	// current bucket, every delivered index is strictly below Cur; after a
	// flush, Cur itself was delivered.
	hi := cp.Cur
	if cp.Open {
		hi--
	}
	var window []Record
	for _, si := range s.segs {
		if si.level != levelRaw {
			continue
		}
		recs, err := s.records(si)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Bucket <= hi {
				window = append(window, rec)
			}
		}
	}
	if len(window) == 0 {
		return nil // nothing delivered yet; the window is empty
	}
	lo := window[len(window)-1].Bucket - int64(cp.WindowBuckets) + 1
	for _, rec := range window {
		if rec.Bucket < lo {
			continue
		}
		if len(rec.Evidence) == 0 {
			return fmt.Errorf("modelstore: window bucket %d has no evidence in the store (compacted too early?)", rec.Bucket)
		}
		cp.Buckets = append(cp.Buckets, stream.CheckpointBucket{
			Index:   rec.Bucket,
			Entries: rec.Evidence,
		})
	}
	return nil
}
