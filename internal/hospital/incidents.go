package hospital

// Scripted incidents: config-driven operational events injected into the
// simulated week at known times, so the drift detector (internal/drift)
// has ground-truth change points to be scored against. Four kinds cover
// the paper's "moving landscape" motivations:
//
//   - outage: an application goes dark — its own logs stop, its callers
//     circuit-break (no invocation logs toward its groups), and its
//     outgoing calls cease, cascading the silence to traffic it carried;
//   - migration: an application is cut over to a new host — a short
//     outage while it moves, then the same log stream from NewHost;
//   - failover: a service group fails over to a slow replica — served
//     calls take ~3× longer and callers log a retry invocation, shifting
//     the dependency's citation-delay distribution without killing it;
//   - rollout: a new dependency is rolled out gradually — a caller starts
//     invoking a group it never used, ramping linearly to full rate.
//
// An empty incident schedule leaves the generated stream byte-identical
// to a simulator without incident support: every hook below is guarded so
// it neither draws randomness nor alters behavior unless incidents are
// configured.

import (
	"math/rand"
	"sort"

	"logscape/internal/logmodel"
)

// IncidentKind names a scripted incident type.
type IncidentKind string

// The scripted incident kinds.
const (
	IncidentOutage    IncidentKind = "outage"
	IncidentMigration IncidentKind = "migration"
	IncidentFailover  IncidentKind = "failover"
	IncidentRollout   IncidentKind = "rollout"
)

// Incident is one scripted operational event. Which fields apply depends
// on Kind: outages and migrations name an App, failovers and rollouts a
// Group (rollouts also the Caller).
type Incident struct {
	Kind IncidentKind `json:"kind"`
	// At is the incident start; Duration its length (for a migration, the
	// cutover window during which the application is down).
	At       logmodel.Millis `json:"at"`
	Duration logmodel.Millis `json:"duration,omitempty"`
	// App is the affected application (outage, migration).
	App string `json:"app,omitempty"`
	// Caller and Group identify the affected dependency (rollout) or the
	// failed-over group (failover).
	Caller string `json:"caller,omitempty"`
	Group  string `json:"group,omitempty"`
	// NewHost is the application's host after a migration cutover.
	NewHost string `json:"new_host,omitempty"`
	// Rate is the rollout's mean invocations per hour at full ramp; Ramp
	// is the length of the linear ramp from zero to Rate.
	Rate float64         `json:"rate,omitempty"`
	Ramp logmodel.Millis `json:"ramp,omitempty"`
}

// activeAt reports whether t falls inside [At, At+Duration).
func (i *Incident) activeAt(t logmodel.Millis) bool {
	return t >= i.At && t < i.At+i.Duration
}

// appDown reports whether the named application is dark at t: inside an
// outage, or inside a migration cutover.
func (s *Simulator) appDown(name string, t logmodel.Millis) bool {
	for i := range s.cfg.Incidents {
		inc := &s.cfg.Incidents[i]
		if (inc.Kind == IncidentOutage || inc.Kind == IncidentMigration) &&
			inc.App == name && inc.activeAt(t) {
			return true
		}
	}
	return false
}

// groupDown reports whether the group's owning application is dark at t.
func (s *Simulator) groupDown(id string, t logmodel.Millis) bool {
	g := s.topo.Group(id)
	if g == nil {
		return false
	}
	return s.appDown(g.Owner, t)
}

// failoverActive reports whether the group is running on its slow replica
// at t.
func (s *Simulator) failoverActive(id string, t logmodel.Millis) bool {
	for i := range s.cfg.Incidents {
		inc := &s.cfg.Incidents[i]
		if inc.Kind == IncidentFailover && inc.Group == id && inc.activeAt(t) {
			return true
		}
	}
	return false
}

// hostAt applies migration host overrides: once an application's cutover
// has started, its server-side logs come from the new host. Client hosts
// (GUI sessions) are never overridden.
func (s *Simulator) hostAt(app *App, host string, t logmodel.Millis) string {
	if host != app.Host {
		return host
	}
	for i := range s.cfg.Incidents {
		inc := &s.cfg.Incidents[i]
		if inc.Kind == IncidentMigration && inc.App == app.Name &&
			inc.NewHost != "" && t >= inc.At {
			return inc.NewHost
		}
	}
	return host
}

// generateIncidentTraffic emits the extra traffic scripted incidents
// introduce: the gradually ramping invocations of a rollout's new
// dependency. Called once per generated day, after the organic traffic.
func (s *Simulator) generateIncidentTraffic(rng *rand.Rand, r logmodel.TimeRange,
	emit emitFunc, stats *DayStats) {

	for i := range s.cfg.Incidents {
		inc := &s.cfg.Incidents[i]
		if inc.Kind != IncidentRollout {
			continue
		}
		caller := s.topo.App(inc.Caller)
		group := s.topo.Group(inc.Group)
		if caller == nil || group == nil || !(inc.Rate > 0) {
			continue
		}
		rate := inc.Rate
		if rate > 10000 {
			rate = 10000 // bound the volume against hostile schedules
		}
		edge := &Edge{Caller: inc.Caller, Group: inc.Group, Weight: 1, Logged: true}
		for h := 0; h < 24; h++ {
			hrStart := r.Start + logmodel.Millis(h)*logmodel.MillisPerHour
			mid := hrStart + logmodel.MillisPerHour/2
			if !inc.activeAt(mid) {
				continue
			}
			frac := 1.0
			if inc.Ramp > 0 && mid < inc.At+inc.Ramp {
				frac = float64(mid-inc.At) / float64(inc.Ramp)
			}
			n := poisson(rng, rate*frac)
			for j := 0; j < n; j++ {
				t := hrStart + logmodel.Millis(rng.Int63n(int64(logmodel.MillisPerHour)))
				host, user := caller.Host, ""
				if caller.Kind == KindGUI {
					host = clientHost(rng.Intn(s.cfg.ClientHosts))
					user = userName(rng.Intn(s.cfg.Users))
				}
				s.simulateCall(rng, edge, t, caller, host, user, 1, emit, stats)
			}
		}
	}
}

// TruthPoint is one ground-truth change point implied by the incident
// schedule: at time At, the dependencies named by Keys undergo a change of
// the given kind ("birth", "death" or "delay-shift", matching
// drift.ChangePoint kinds). A detection alert matches the truth point if
// its kind and key agree and it fires within the scoring window after At.
type TruthPoint struct {
	At       logmodel.Millis `json:"at"`
	Kind     string          `json:"kind"`
	Incident IncidentKind    `json:"incident"`
	Keys     []string        `json:"keys"`
}

// citedID returns the directory id an invocation of e cites in logs — the
// real group unless the developer hard-coded a similar wrong id (§4.8).
func citedID(e *Edge) string {
	if e.WrongID != "" {
		return e.WrongID
	}
	return e.Group
}

// depKeysTouching returns the drift keys of every logged, non-rare
// dependency whose traffic stops when the named application is dark: its
// outgoing edges and every edge into the groups it owns.
func (s *Simulator) depKeysTouching(app string) []string {
	set := make(map[string]bool)
	for i := range s.topo.Edges {
		e := &s.topo.Edges[i]
		if e.Rare || !e.Logged {
			continue
		}
		g := s.topo.Group(e.Group)
		if e.Caller == app || (g != nil && g.Owner == app) {
			set[e.Caller+"->"+citedID(e)] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// groupDepKeys returns the drift keys of the logged, non-rare edges into
// one group.
func (s *Simulator) groupDepKeys(id string) []string {
	set := make(map[string]bool)
	for i := range s.topo.Edges {
		e := &s.topo.Edges[i]
		if e.Rare || !e.Logged || e.Group != id {
			continue
		}
		set[e.Caller+"->"+citedID(e)] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TruthPoints derives the ground-truth change points of the configured
// incident schedule, in time order.
func (s *Simulator) TruthPoints() []TruthPoint {
	var pts []TruthPoint
	for i := range s.cfg.Incidents {
		inc := &s.cfg.Incidents[i]
		switch inc.Kind {
		case IncidentOutage, IncidentMigration:
			keys := s.depKeysTouching(inc.App)
			if len(keys) == 0 {
				continue
			}
			pts = append(pts,
				TruthPoint{At: inc.At, Kind: "death", Incident: inc.Kind, Keys: keys},
				TruthPoint{At: inc.At + inc.Duration, Kind: "birth", Incident: inc.Kind, Keys: keys})
		case IncidentFailover:
			keys := s.groupDepKeys(inc.Group)
			if len(keys) == 0 {
				continue
			}
			// Both edges of the failover are real change points: delays
			// shift up when the slow replica takes over and back down when
			// the primary returns.
			pts = append(pts,
				TruthPoint{At: inc.At, Kind: "delay-shift", Incident: inc.Kind, Keys: keys},
				TruthPoint{At: inc.At + inc.Duration, Kind: "delay-shift", Incident: inc.Kind, Keys: keys})
		case IncidentRollout:
			if s.topo.App(inc.Caller) == nil || s.topo.Group(inc.Group) == nil {
				continue
			}
			pts = append(pts, TruthPoint{
				At: inc.At, Kind: "birth", Incident: inc.Kind,
				Keys: []string{inc.Caller + "->" + inc.Group},
			})
		}
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].At < pts[b].At })
	return pts
}

// DefaultIncidentSchedule returns the canonical scripted-incident corpus
// for a topology: two quiet lead-in days for the detector to learn the
// landscape, then one incident of each kind over days 2–4, targeting the
// busiest eligible applications and groups so every truth point concerns
// dependencies dense enough to be confirmed by the persistence filter.
// The failover and rollout target distinct groups — otherwise the
// rollout's synthetic dependency would suffer the failover's delay shift
// without appearing in its truth keys. Deterministic per topology.
func DefaultIncidentSchedule(topo *Topology, start logmodel.Millis) []Incident {
	day := func(d int, hour int) logmodel.Millis {
		return start + logmodel.Millis(d)*logmodel.MillisPerDay +
			logmodel.Millis(hour)*logmodel.MillisPerHour
	}
	apps := busiestServiceApps(topo)
	groups := busiestGroups(topo)
	var schedule []Incident
	if len(apps) > 0 {
		schedule = append(schedule, Incident{
			Kind: IncidentOutage, App: apps[0],
			At: day(2, 9), Duration: 6 * logmodel.MillisPerHour,
		})
	}
	failoverGroup := pickFailoverGroup(topo, groups, apps)
	if failoverGroup != "" {
		schedule = append(schedule, Incident{
			Kind: IncidentFailover, Group: failoverGroup,
			At: day(3, 8), Duration: 10 * logmodel.MillisPerHour,
		})
	}
	if caller, g := pickRolloutEdge(topo, apps, failoverGroup); g != "" {
		// A rollout is a permanent adoption: the duration outlives any
		// simulated period, so the new dependency never scripts a death.
		schedule = append(schedule, Incident{
			Kind: IncidentRollout, Caller: caller, Group: g,
			At: day(3, 6), Duration: 365 * logmodel.MillisPerDay,
			Rate: 60, Ramp: logmodel.MillisPerHour,
		})
	}
	if len(apps) > 1 {
		schedule = append(schedule, Incident{
			Kind: IncidentMigration, App: apps[1],
			At: day(4, 10), Duration: 4 * logmodel.MillisPerHour,
			NewHost: "srv-migrated-01",
		})
	}
	return schedule
}

// busiestServiceApps ranks service applications by the total logged,
// non-rare edge weight touching them (in or out) — the apps whose outage
// moves the most model mass.
func busiestServiceApps(topo *Topology) []string {
	weight := make(map[string]float64)
	for i := range topo.Edges {
		e := &topo.Edges[i]
		if e.Rare || !e.Logged {
			continue
		}
		if g := topo.Group(e.Group); g != nil {
			weight[g.Owner] += e.Weight
		}
		weight[e.Caller] += e.Weight
	}
	var names []string
	for i := range topo.Apps {
		a := &topo.Apps[i]
		if a.Kind == KindService && weight[a.Name] > 0 {
			names = append(names, a.Name)
		}
	}
	sort.Slice(names, func(a, b int) bool {
		if weight[names[a]] != weight[names[b]] { //lint:allow floateq exact tie grouping of deterministic sums; ties break by name below
			return weight[names[a]] > weight[names[b]]
		}
		return names[a] < names[b]
	})
	return names
}

// busiestGroups ranks groups by inbound logged, non-rare, correctly-cited
// edge weight.
func busiestGroups(topo *Topology) []string {
	weight := make(map[string]float64)
	for i := range topo.Edges {
		e := &topo.Edges[i]
		if e.Rare || !e.Logged || e.WrongID != "" {
			continue
		}
		weight[e.Group] += e.Weight
	}
	var ids []string
	for i := range topo.Groups {
		if weight[topo.Groups[i].ID] > 0 {
			ids = append(ids, topo.Groups[i].ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if weight[ids[a]] != weight[ids[b]] { //lint:allow floateq exact tie grouping of deterministic sums; ties break by id below
			return weight[ids[a]] > weight[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}

// pickFailoverGroup returns the busiest group not owned by the outage or
// migration target, so the week's incidents do not overlap on one app.
func pickFailoverGroup(topo *Topology, groups, apps []string) string {
	excluded := make(map[string]bool)
	for i, a := range apps {
		if i < 2 {
			excluded[a] = true
		}
	}
	for _, id := range groups {
		if g := topo.Group(id); g != nil && !excluded[g.Owner] {
			return id
		}
	}
	return ""
}

// pickRolloutEdge returns a (caller, group) pair with no existing edge:
// the busiest service app that does not call the busiest group it could.
// The avoid group (the failover target) is never picked, so the rollout's
// traffic is untouched by the failover's latency shift.
func pickRolloutEdge(topo *Topology, apps []string, avoid string) (string, string) {
	groups := busiestGroups(topo)
	// The outage and migration targets (the first two apps) are off limits
	// on both sides of the edge: the rollout is supposed to be the ONLY
	// change point on its key, but an edge from or into a scripted-down app
	// dies with it — a real change the truth file does not attribute to the
	// rollout.
	excluded := make(map[string]bool)
	for i := 0; i < len(apps) && i < 2; i++ {
		excluded[apps[i]] = true
	}
	for _, caller := range apps {
		if excluded[caller] {
			continue
		}
		calls := make(map[string]bool)
		for _, e := range topo.EdgesOf(caller) {
			calls[e.Group] = true
		}
		for _, id := range groups {
			g := topo.Group(id)
			if g == nil || g.Owner == caller || excluded[g.Owner] || calls[id] || id == avoid {
				continue
			}
			return caller, id
		}
	}
	return "", ""
}
