package sessions

import (
	"sort"

	"logscape/internal/logmodel"
	"logscape/internal/obs"
)

// Config controls session creation. The zero value is replaced by defaults.
type Config struct {
	// MaxGap is the inactivity gap that closes a session (default 15 min).
	MaxGap logmodel.Millis
	// MinEntries is the minimum number of logs for a session to be kept
	// (default 4): shorter fragments carry no usable co-occurrence signal.
	MinEntries int
	// MinSources is the minimum number of distinct log sources for a
	// session to be kept (default 2): single-source sessions contribute no
	// bigrams with a ≠ b.
	MinSources int
	// Metrics, when non-nil, collects session-creation counters (see
	// internal/obs). Collection never changes the built sessions.
	Metrics *obs.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MaxGap == 0 {
		c.MaxGap = 15 * logmodel.MillisPerMinute
	}
	if c.MinEntries == 0 {
		c.MinEntries = 4
	}
	if c.MinSources == 0 {
		c.MinSources = 2
	}
	return c
}

// Session is one reconstructed user session: a time-ordered sequence of log
// entries attributed to one user.
type Session struct {
	// User is the session's user id.
	User string
	// Entries are the session's logs in time order.
	Entries []logmodel.Entry
}

// Start returns the timestamp of the first entry.
func (s *Session) Start() logmodel.Millis { return s.Entries[0].Time }

// Len returns the number of entries.
func (s *Session) Len() int { return len(s.Entries) }

// Sources returns the distinct log sources of the session, sorted.
func (s *Session) Sources() []string {
	seen := make(map[string]bool)
	for i := range s.Entries {
		seen[s.Entries[i].Source] = true
	}
	out := make([]string, 0, len(seen))
	for src := range seen {
		out = append(out, src)
	}
	sort.Strings(out)
	return out
}

// SourceSequence returns the session as an ordered sequence of (source,
// time) activity statements — the view approach L2 mines (§3.2: "a session
// is treated as an ordered sequence of activity statements by different
// applications").
func (s *Session) SourceSequence() []SourceEvent {
	out := make([]SourceEvent, len(s.Entries))
	for i := range s.Entries {
		out[i] = SourceEvent{Source: s.Entries[i].Source, Time: s.Entries[i].Time}
	}
	return out
}

// SourceEvent is one activity statement: source S was active at time T.
type SourceEvent struct {
	Source string
	Time   logmodel.Millis
}

// Stats summarizes a session-creation run.
type Stats struct {
	// TotalLogs is the number of entries examined.
	TotalLogs int
	// AssignableLogs is the number of entries carrying a user id.
	AssignableLogs int
	// AssignedLogs is the number of entries that ended up in a kept
	// session.
	AssignedLogs int
	// Sessions is the number of kept sessions.
	Sessions int
	// DroppedFragments is the number of candidate sessions discarded by
	// the MinEntries/MinSources filters.
	DroppedFragments int
}

// AssignedShare returns AssignedLogs / TotalLogs — the "percentage of logs
// that can be assigned to a session" the paper reports as 7.5–11%.
func (s Stats) AssignedShare() float64 {
	if s.TotalLogs == 0 {
		return 0
	}
	return float64(s.AssignedLogs) / float64(s.TotalLogs)
}

// Build reconstructs the user sessions of the store. The store must be
// sorted. Sessions are returned ordered by start time.
func Build(store *logmodel.Store, cfg Config) ([]Session, Stats) {
	cfg = cfg.withDefaults()
	var stats Stats
	stats.TotalLogs = store.Len()

	// Partition assignable entries by user, preserving time order.
	byUser := make(map[string][]logmodel.Entry)
	for _, e := range store.Entries() {
		if e.User == "" {
			continue
		}
		stats.AssignableLogs++
		byUser[e.User] = append(byUser[e.User], e)
	}

	var out []Session
	for user, es := range byUser {
		start := 0
		flush := func(end int) {
			if end <= start {
				return
			}
			cand := Session{User: user, Entries: es[start:end]}
			if cand.Len() >= cfg.MinEntries && len(cand.Sources()) >= cfg.MinSources {
				stats.AssignedLogs += cand.Len()
				out = append(out, cand)
			} else {
				stats.DroppedFragments++
			}
			start = end
		}
		for i := 1; i < len(es); i++ {
			if es[i].Time-es[i-1].Time > cfg.MaxGap {
				flush(i)
			}
		}
		flush(len(es))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start() != out[j].Start() {
			return out[i].Start() < out[j].Start()
		}
		return out[i].User < out[j].User
	})
	stats.Sessions = len(out)
	cfg.Metrics.Counter("sessions.built").Add(int64(stats.Sessions))
	cfg.Metrics.Counter("sessions.dropped_fragments").Add(int64(stats.DroppedFragments))
	cfg.Metrics.Counter("sessions.assignable_logs").Add(int64(stats.AssignableLogs))
	cfg.Metrics.Counter("sessions.assigned_logs").Add(int64(stats.AssignedLogs))
	return out, stats
}
