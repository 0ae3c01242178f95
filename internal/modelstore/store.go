package modelstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/stream"
)

// metaVersion guards the store.json sidecar that pins the store's geometry.
const metaVersion = 1

// metaFile is the geometry sidecar's name inside the store directory.
const metaFile = "store.json"

// Config describes a store's geometry. BucketWidth and WindowBuckets must
// match the follower's ingest window — the raw retention horizon is
// derived from them, and segment-backed resume depends on it. The ladder
// widths default to literal hour/day/week; tests shrink them to exercise
// compaction without day-long corpora.
type Config struct {
	// BucketWidth and WindowBuckets mirror the stream.Config geometry of
	// the follower writing the store. Required (no defaults): a store is
	// always created by a configured follower, and a silent default here
	// could desynchronize the raw retention horizon from the real window.
	BucketWidth   logmodel.Millis
	WindowBuckets int

	// Hour, Day and Week are the compaction granule widths (raw segments
	// are grouped per Hour). Zero values default to the literal durations.
	Hour, Day, Week logmodel.Millis

	// Metrics receives the store.* counters; nil disables collection.
	Metrics *obs.Registry
}

// withDefaults fills the ladder defaults and validates the geometry.
func (c Config) withDefaults() (Config, error) {
	if c.Hour == 0 {
		c.Hour = logmodel.MillisPerHour
	}
	if c.Day == 0 {
		c.Day = logmodel.MillisPerDay
	}
	if c.Week == 0 {
		c.Week = 7 * logmodel.MillisPerDay
	}
	switch {
	case c.BucketWidth <= 0 || c.WindowBuckets <= 0:
		return c, fmt.Errorf("modelstore: window geometry %dms×%d must be positive", c.BucketWidth, c.WindowBuckets)
	case c.Hour <= 0 || c.Day < c.Hour || c.Week < c.Day:
		return c, fmt.Errorf("modelstore: compaction ladder %d/%d/%d must be positive and non-decreasing", c.Hour, c.Day, c.Week)
	}
	return c, nil
}

// storeMeta is the JSON sidecar pinning a store directory's geometry, so
// reopening with a different configuration refuses instead of mis-grouping
// records, and the query subcommands can recover the geometry from the
// directory alone.
type storeMeta struct {
	Version       int             `json:"version"`
	BucketWidth   logmodel.Millis `json:"bucket_width"`
	WindowBuckets int             `json:"window_buckets"`
	Hour          logmodel.Millis `json:"hour"`
	Day           logmodel.Millis `json:"day"`
	Week          logmodel.Millis `json:"week"`
}

// segInfo is one on-disk segment in the store's index: its level, granule
// start, and path. Segments cover disjoint time ranges, so sorting by
// start also sorts the records they hold by bucket index.
type segInfo struct {
	level int
	start logmodel.Millis
	path  string
}

// Store is an on-disk model history. It is not safe for concurrent use:
// the follower is the single writer, a daemon tenant reads the writer's
// handle only under the lock the follower holds around every append, and
// the query subcommands open the directory read-only.
type Store struct {
	dir      string
	cfg      Config
	readOnly bool

	segs []segInfo // sorted by start, disjoint coverage

	// active holds the records of the newest raw granule in memory, and
	// activeLen the length of its file: the segment header followed by
	// exactly these records' frames. The file is written whole for the
	// granule's first record and for a re-append, and grows by one appended
	// frame for every other record.
	active      []Record
	hasActive   bool
	activeStart logmodel.Millis
	activeLen   int64

	// sealed holds, per raw granule that sealed while this handle was open,
	// its last record without evidence — the record raw→hour promotion
	// writes — so that compaction reads no granule back. At most
	// W·BucketWidth/Hour + 1 entries: a granule leaves when it is promoted.
	sealed map[logmodel.Millis]Record

	// broken, once set, refuses every later Append: a frame append failed
	// and its partial frame could not be cut back. The next Open repairs
	// the file.
	broken error

	// openFrame opens the active granule's file for one frame append
	// (openAppend; tests substitute a file whose writes fail).
	openFrame func(path string) (frameFile, error)

	latest    logmodel.Millis // End of the newest record in the store
	maxSealed int64           // highest bucket index outside the active granule

	mRecords, mSegments, mSegmentsRead, mCompactions, mBytes, mTorn *obs.Counter
}

// frameFile is the granule file handle a frame append writes through.
type frameFile interface {
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Close() error
}

// openAppend opens a granule file for one frame append. No handle is held
// between appends: Store has no Close, and a daemon tenant keeps its store
// for its whole life.
func openAppend(path string) (frameFile, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Open opens (or creates) a store directory for appending. An existing
// directory's geometry sidecar must match cfg exactly.
func Open(dir string, cfg Config) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	want := storeMeta{
		Version:       metaVersion,
		BucketWidth:   cfg.BucketWidth,
		WindowBuckets: cfg.WindowBuckets,
		Hour:          cfg.Hour,
		Day:           cfg.Day,
		Week:          cfg.Week,
	}
	got, err := readMeta(dir)
	switch {
	case err != nil:
		return nil, err
	case got == nil:
		if err := writeMeta(dir, want); err != nil {
			return nil, err
		}
	case *got != want:
		return nil, fmt.Errorf("modelstore: %s was written with geometry %+v, reopened with %+v", dir, *got, want)
	}
	s := &Store{dir: dir, cfg: cfg, sealed: map[logmodel.Millis]Record{}, openFrame: openAppend}
	s.mRecords = cfg.Metrics.Counter("store.records")
	s.mSegments = cfg.Metrics.Counter("store.segments_written")
	s.mSegmentsRead = cfg.Metrics.Counter("store.segments_read")
	s.mCompactions = cfg.Metrics.Counter("store.compactions")
	s.mBytes = cfg.Metrics.Counter("store.bytes_written")
	s.mTorn = cfg.Metrics.Counter("store.torn_tail_bytes")
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenRead opens an existing store read-only, recovering the geometry from
// the sidecar. Superseded files left by a killed compaction are ignored
// in memory but not deleted, and so is an incomplete final frame of the
// newest raw granule — a follower may be appending it — so queries have no
// side effects.
func OpenRead(dir string) (*Store, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("modelstore: %s is not a model store (no %s)", dir, metaFile)
	}
	cfg, err := Config{
		BucketWidth:   meta.BucketWidth,
		WindowBuckets: meta.WindowBuckets,
		Hour:          meta.Hour,
		Day:           meta.Day,
		Week:          meta.Week,
	}.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, cfg: cfg, readOnly: true}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Empty reports whether the store holds no segments yet.
func (s *Store) Empty() bool { return len(s.segs) == 0 }

// Dir returns the directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

func readMeta(dir string) (*storeMeta, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m storeMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("modelstore: %s: %w", filepath.Join(dir, metaFile), err)
	}
	if m.Version != metaVersion {
		return nil, fmt.Errorf("modelstore: %s version %d, want %d", metaFile, m.Version, metaVersion)
	}
	return &m, nil
}

func writeMeta(dir string, m storeMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return stream.WriteFileAtomic(filepath.Join(dir, metaFile), data)
}

// segName builds a segment file name. The zero-padded fixed-width start
// keeps lexicographic directory order equal to chronological order.
func segName(level int, start logmodel.Millis) string {
	return fmt.Sprintf("%s-%020d.seg", levelNames[level], start)
}

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (level int, start logmodel.Millis, ok bool) {
	base, found := strings.CutSuffix(name, ".seg")
	if !found {
		return 0, 0, false
	}
	for lv, ln := range levelNames {
		if rest, found := strings.CutPrefix(base, ln+"-"); found {
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil || n < 0 {
				return 0, 0, false
			}
			return lv, logmodel.Millis(n), true
		}
	}
	return 0, 0, false
}

// granuleWidth returns the time span one segment at the given level
// covers. Raw granules are grouped per Hour like the hour tier.
func (s *Store) granuleWidth(level int) logmodel.Millis {
	switch level {
	case levelDay:
		return s.cfg.Day
	case levelWeek:
		return s.cfg.Week
	default:
		return s.cfg.Hour
	}
}

// isActive reports whether si is the raw granule s.active mirrors.
func (s *Store) isActive(si segInfo) bool {
	return s.hasActive && si.level == levelRaw && si.start == s.activeStart
}

// records returns the records of one indexed segment — the one way every
// reader (ModelAt, Records, Locate, Hydrate, compact) gets at them. The
// active raw granule is answered from memory: its file holds exactly the
// frames of s.active, as the last successful Append left it (or as load
// read it), so contents and ordinals are the ones a reader of the file would
// see. Every other segment is read and verified from disk. Callers must not
// modify what they are handed.
func (s *Store) records(si segInfo) ([]Record, error) {
	if s.isActive(si) {
		return s.active, nil
	}
	return s.loadSeg(si)
}

// floorAlign floors t to a multiple of width (t is never negative here —
// validRecord refuses pre-epoch records).
func floorAlign(t, width logmodel.Millis) logmodel.Millis { return t - t%width }

// load scans the directory, drops superseded files (a crash between a
// compaction's rename and its source deletion leaves both; the coarser
// file wins), removes stray temp files, and primes the in-memory state:
// the active raw granule's records and length, the newest record time, and
// the highest sealed bucket index.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	var segs []segInfo
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			if !s.readOnly {
				if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
					return err
				}
			}
			continue
		}
		lv, start, ok := parseSegName(name)
		if !ok {
			continue
		}
		segs = append(segs, segInfo{level: lv, start: start, path: filepath.Join(s.dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].start != segs[j].start {
			return segs[i].start < segs[j].start
		}
		return segs[i].level > segs[j].level
	})
	// Supersede pass: a segment is covered (and deleted) when a coarser
	// one spans its granule start.
	s.segs = make([]segInfo, 0, len(segs))
	for _, si := range segs {
		covered := false
		for _, other := range segs {
			if other.level > si.level &&
				other.start <= si.start && si.start < other.start+s.granuleWidth(other.level) {
				covered = true
				break
			}
		}
		if covered {
			if !s.readOnly {
				if err := os.Remove(si.path); err != nil {
					return err
				}
			}
			continue
		}
		s.segs = append(s.segs, si)
	}

	if n := len(s.segs); n > 0 {
		newest := s.segs[n-1]
		load := s.loadSeg
		if newest.level == levelRaw {
			load = s.loadActive
		}
		recs, err := load(newest)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("modelstore: %s holds no records", newest.path)
		}
		s.latest = recs[len(recs)-1].Range.End
		if newest.level == levelRaw {
			s.active, s.hasActive, s.activeStart = recs, true, newest.start
			if n > 1 {
				prev, err := s.loadSeg(s.segs[n-2])
				if err != nil {
					return err
				}
				if len(prev) == 0 {
					return fmt.Errorf("modelstore: %s holds no records", s.segs[n-2].path)
				}
				s.maxSealed = prev[len(prev)-1].Bucket
			} else {
				s.maxSealed = -1
			}
		} else {
			s.maxSealed = recs[len(recs)-1].Bucket
		}
	} else {
		s.maxSealed = -1
	}
	return nil
}

// loadSeg reads one segment and verifies the file's level byte matches
// its name.
func (s *Store) loadSeg(si segInfo) ([]Record, error) {
	s.mSegmentsRead.Inc()
	lv, recs, err := readSegment(si.path)
	if err != nil {
		return nil, err
	}
	return recs, checkLevel(si, lv)
}

// loadActive reads the newest raw granule, the one Append grows frame by
// frame, as loadSeg does, but keeps what precedes an incomplete final frame:
// the mark of an append killed mid-write (segment.go's format comment has
// why that is safe). The writer cuts the file back to its last complete
// frame and counts the bytes cut; a read-only handle leaves the file alone.
func (s *Store) loadActive(si segInfo) ([]Record, error) {
	s.mSegmentsRead.Inc()
	data, err := os.ReadFile(si.path)
	if err != nil {
		return nil, err
	}
	lv, recs, n, err := scanSegment(data)
	if err != nil {
		return nil, fmt.Errorf("modelstore: %s: %w", si.path, err)
	}
	if err := checkLevel(si, lv); err != nil {
		return nil, err
	}
	if len(recs) == 0 { // a granule's first frame is written whole, so this is damage
		return nil, fmt.Errorf("modelstore: %s holds no complete record", si.path)
	}
	if n < len(data) && !s.readOnly {
		if err := os.Truncate(si.path, int64(n)); err != nil {
			return nil, err
		}
		s.mTorn.Add(int64(len(data) - n))
	}
	s.activeLen = int64(n)
	return recs, nil
}

// checkLevel verifies that a segment file's level byte matches its name.
func checkLevel(si segInfo, lv int) error {
	if lv != si.level {
		return fmt.Errorf("modelstore: %s has level %s inside, %s in its name",
			si.path, levelNames[lv], levelNames[si.level])
	}
	return nil
}

// Append persists one closed bucket's record and runs the compaction
// pass. A record joining the active granule is appended to its file as one
// frame; a record opening a new granule writes that granule whole. Re-
// appending a bucket index already present in the active granule replaces it
// and everything after it, rewriting the granule whole — that is exactly the
// crash window of a follower killed between the store append and the
// checkpoint write, whose resume re-delivers the same bucket with the same
// content. Memory never runs ahead of the disk: the in-memory granule
// changes only once its file holds the record.
func (s *Store) Append(rec Record) error {
	if s.readOnly {
		return fmt.Errorf("modelstore: store opened read-only")
	}
	if s.broken != nil {
		return s.broken
	}
	if err := validRecord(rec); err != nil {
		return err
	}
	for i := 1; i < len(rec.Scores); i++ {
		if rec.Scores[i].Key <= rec.Scores[i-1].Key {
			return fmt.Errorf("modelstore: scores not sorted by key (%q after %q)",
				rec.Scores[i].Key, rec.Scores[i-1].Key)
		}
	}
	if rec.Bucket <= s.maxSealed {
		return fmt.Errorf("modelstore: bucket %d rewinds past sealed segments (last sealed %d)", rec.Bucket, s.maxSealed)
	}
	g := floorAlign(rec.Range.Start, s.cfg.Hour)
	path := filepath.Join(s.dir, segName(levelRaw, g))
	switch {
	case s.hasActive && g < s.activeStart:
		return fmt.Errorf("modelstore: record at %d predates the active segment (start %d)", rec.Range.Start, s.activeStart)
	case s.hasActive && g == s.activeStart && rec.Bucket > s.active[len(s.active)-1].Bucket:
		if err := s.appendFrame(path, rec); err != nil {
			return err
		}
	case s.hasActive && g == s.activeStart:
		k := len(s.active)
		for k > 0 && s.active[k-1].Bucket >= rec.Bucket {
			k--
		}
		// Capped: the append must not overwrite what readers were handed.
		if err := s.writeActive(path, g, append(s.active[:k:k], rec)); err != nil {
			return err
		}
	default:
		if !s.hasActive && len(s.segs) > 0 && s.segs[len(s.segs)-1].start > g {
			return fmt.Errorf("modelstore: record at %d predates existing segments", rec.Range.Start)
		}
		if err := s.writeActive(path, g, []Record{rec}); err != nil {
			return err
		}
	}
	if rec.Range.End > s.latest {
		s.latest = rec.Range.End
	}
	s.mRecords.Inc()
	return s.compact()
}

// writeActive writes the raw granule starting at g whole, holding recs, and
// makes it the active one. A newer granule seals the previous active one.
func (s *Store) writeActive(path string, g logmodel.Millis, recs []Record) error {
	n, err := writeSegment(path, levelRaw, recs)
	if err != nil {
		return err
	}
	s.noteWrite(n)
	if s.hasActive && g > s.activeStart {
		last := s.active[len(s.active)-1]
		s.maxSealed = last.Bucket
		last.Evidence = nil
		s.sealed[s.activeStart] = last
	}
	s.active, s.hasActive, s.activeStart, s.activeLen = recs, true, g, int64(n)
	s.upsertSeg(segInfo{level: levelRaw, start: g, path: path})
	return nil
}

// appendFrame appends rec to the active granule's file as one frame, in one
// write. A failed write is cut back to the granule's known length, so file
// and memory still agree; if the cut fails too, or the close does (the frame
// may then be on disk), every later Append is refused until a reopen, which
// repairs an incomplete tail and reads a complete one.
func (s *Store) appendFrame(path string, rec Record) error {
	frame := appendRecord(make([]byte, 0, recordLen(rec)), rec)
	f, err := s.openFrame(path)
	if err != nil {
		return err
	}
	if _, err = f.Write(frame); err != nil {
		if terr := f.Truncate(s.activeLen); terr != nil {
			s.broken = fmt.Errorf("modelstore: %s ends in a partial frame (%v) that could not be cut back (%v); reopen the store to repair it", path, err, terr)
		}
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
		s.broken = fmt.Errorf("modelstore: %s: closing after a frame append: %v; reopen the store to read it again", path, cerr)
	}
	if s.broken != nil {
		return s.broken
	}
	if err != nil {
		return err
	}
	s.active = append(s.active, rec)
	s.activeLen += int64(len(frame))
	s.mBytes.Add(int64(len(frame)))
	return nil
}

// noteWrite records one segment file write in the counters.
func (s *Store) noteWrite(bytes int) {
	s.mSegments.Inc()
	s.mBytes.Add(int64(bytes))
}

// upsertSeg inserts or replaces the index entry for (level, start),
// keeping s.segs sorted by start.
func (s *Store) upsertSeg(si segInfo) {
	for i := range s.segs {
		if s.segs[i].level == si.level && s.segs[i].start == si.start {
			s.segs[i] = si
			return
		}
	}
	s.segs = append(s.segs, si)
	sort.Slice(s.segs, func(i, j int) bool { return s.segs[i].start < s.segs[j].start })
}

// dropSeg removes the index entry for path and deletes the file.
func (s *Store) dropSeg(path string) error {
	for i := range s.segs {
		if s.segs[i].path == path {
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			break
		}
	}
	return os.Remove(path)
}

// compact runs the deterministic compaction ladder to a fixed point. All
// thresholds are measured in stream time against the newest record's End
// — wall clocks never participate, so a replayed stream compacts
// identically wherever and whenever it runs.
//
//	raw  → hour: granule end ≤ latest − window span (resume no longer
//	             needs its evidence); keep the granule's last record,
//	             strip evidence. The record comes from s.sealed when the
//	             granule sealed under this handle, from the file otherwise.
//	hour → day:  the day granule is a full Day behind latest and no raw
//	             segments remain inside it; keep the last hour record.
//	day  → week: same one-Week-behind rule over day records.
//
// A jump in stream time can cascade a granule through several tiers in
// one pass; the loop runs until nothing changes.
func (s *Store) compact() error {
	span := s.cfg.BucketWidth * logmodel.Millis(s.cfg.WindowBuckets)
	for {
		changed := false
		for _, si := range append([]segInfo(nil), s.segs...) {
			switch si.level {
			case levelRaw:
				if s.isActive(si) {
					continue
				}
				if si.start+s.cfg.Hour > s.latest-span {
					continue
				}
				last, ok := s.sealed[si.start]
				if !ok { // sealed before this handle opened the store
					recs, err := s.records(si)
					if err != nil {
						return err
					}
					last = recs[len(recs)-1]
					last.Evidence = nil
				}
				if err := s.promote(si, levelHour, si.start, last); err != nil {
					return err
				}
				delete(s.sealed, si.start)
				changed = true
			case levelHour:
				d := floorAlign(si.start, s.cfg.Day)
				if done, err := s.merge(si.level, d, s.cfg.Day, levelDay); err != nil {
					return err
				} else if done {
					changed = true
				}
			case levelDay:
				w := floorAlign(si.start, s.cfg.Week)
				if done, err := s.merge(si.level, w, s.cfg.Week, levelWeek); err != nil {
					return err
				} else if done {
					changed = true
				}
			}
			if changed {
				break // s.segs changed under the iteration; restart
			}
		}
		if !changed {
			return nil
		}
	}
}

// merge collapses every level-`from` segment inside the target granule
// [start, start+width) into one record at level `to`, provided the whole
// granule is at least one width behind the newest record and no
// finer-level segment remains inside it. Returns whether it compacted.
func (s *Store) merge(from int, start, width logmodel.Millis, to int) (bool, error) {
	if start+width > s.latest-width {
		return false, nil
	}
	var sources []segInfo
	for _, si := range s.segs {
		if si.start < start || si.start >= start+width {
			continue
		}
		if si.level < from {
			return false, nil // finer tier still present; it compacts first
		}
		if si.level == from {
			sources = append(sources, si)
		}
	}
	if len(sources) == 0 {
		return false, nil
	}
	recs, err := s.records(sources[len(sources)-1])
	if err != nil {
		return false, err
	}
	last := recs[len(recs)-1]
	if err := s.promote(sources[len(sources)-1], to, start, last); err != nil {
		return false, err
	}
	for _, si := range sources[:len(sources)-1] {
		if err := s.dropSeg(si.path); err != nil {
			return false, err
		}
	}
	return true, nil
}

// promote writes rec as the single record of a level-`to` segment at
// granule start, then removes the source segment. Order matters for crash
// safety: the coarse file lands first (rename), the fine file is deleted
// second; load's supersede pass resolves the overlap if the process dies
// between the two.
func (s *Store) promote(src segInfo, to int, start logmodel.Millis, rec Record) error {
	path := filepath.Join(s.dir, segName(to, start))
	n, err := writeSegment(path, to, []Record{rec})
	if err != nil {
		return err
	}
	s.noteWrite(n)
	if err := s.dropSeg(src.path); err != nil {
		return err
	}
	s.upsertSeg(segInfo{level: to, start: start, path: path})
	s.mCompactions.Inc()
	return nil
}

// Records returns every retained record in bucket order, across all
// levels. Coverage is disjoint (compaction deletes what it supersedes),
// so concatenating segments in start order preserves bucket order.
func (s *Store) Records() ([]Record, error) {
	var out []Record
	for _, si := range s.segs {
		recs, err := s.records(si)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	for i := 1; i < len(out); i++ {
		if out[i].Bucket <= out[i-1].Bucket {
			return nil, fmt.Errorf("modelstore: segments overlap (bucket %d after %d)", out[i].Bucket, out[i-1].Bucket)
		}
	}
	return out, nil
}

// ModelAt returns the newest retained record whose bucket had closed by
// time t — the model an observer tailing the follower would have held at
// t. ok is false when t predates the first retained record.
func (s *Store) ModelAt(t logmodel.Millis) (Record, bool, error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		recs, err := s.records(s.segs[i])
		if err != nil {
			return Record{}, false, err
		}
		for j := len(recs) - 1; j >= 0; j-- {
			if recs[j].Range.End <= t {
				return recs[j], true, nil
			}
		}
	}
	return Record{}, false, nil
}

// SegmentRef names the segment file and record ordinal holding a given
// instant — the pointer drift alerts carry so an operator can jump from a
// change-point line to the exact on-disk evidence.
type SegmentRef struct {
	File   string // base name of the segment file
	Record int    // zero-based record ordinal within the file
}

// String renders the reference as "file#ordinal".
func (r SegmentRef) String() string { return fmt.Sprintf("%s#%d", r.File, r.Record) }

// Locate returns the segment reference of the record covering time t
// (Start ≤ t < End), or ok=false when no retained record covers it.
func (s *Store) Locate(t logmodel.Millis) (SegmentRef, bool, error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		si := s.segs[i]
		if si.start > t {
			continue
		}
		recs, err := s.records(si)
		if err != nil {
			return SegmentRef{}, false, err
		}
		for j := len(recs) - 1; j >= 0; j-- {
			if recs[j].Range.Contains(t) {
				return SegmentRef{File: filepath.Base(si.path), Record: j}, true, nil
			}
		}
		// Records can outspan their granule when buckets are wider than
		// the Hour granule, so keep scanning earlier segments.
	}
	return SegmentRef{}, false, nil
}
