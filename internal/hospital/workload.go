package hospital

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"logscape/internal/logmodel"
)

// Config parameterizes the workload generator. Volumes are calibrated to a
// 1/100-scale replica of the paper's test week (table 1: 10.3, 9.4, 9.4,
// 9.9, 3.7, 3.4, 10.7 million logs for Dec 6–12 2005); Scale rescales all
// volumes at once.
type Config struct {
	// Seed drives all randomness; the same seed reproduces the same week.
	Seed int64
	// Start is the beginning of day 0 (midnight). The default is
	// 2005-12-06T00:00Z, a Tuesday, matching table 1.
	Start logmodel.Millis
	// Days is the number of simulated days (default 7).
	Days int
	// Scale multiplies all volumes (default 1 ≙ 1/100 of HUG's volume).
	Scale float64
	// SessionsPerWeekday is the number of user sessions on a full
	// weekday at Scale 1.
	SessionsPerWeekday float64
	// BackgroundPerWeekday is the number of background (non-session) log
	// entries on a full weekday at Scale 1.
	BackgroundPerWeekday float64
	// MeanActionsPerSession is the mean number of user actions per session.
	MeanActionsPerSession float64
	// InvocationsPerAction is the mean number of service invocations each
	// user action triggers.
	InvocationsPerAction float64
	// SubCallProb is the probability that a callee follows up with one of
	// its own dependencies (transitive call), per dependency.
	SubCallProb float64
	// ServiceInvocationsPerWeekday is the expected number of autonomous
	// invocations per unit of edge weight and weekday for service→service
	// edges (scheduled jobs, push updates); it scales with the day factor.
	ServiceInvocationsPerWeekday float64
	// FailureProb is the probability that an invocation of a stack-trace
	// edge fails and logs an exception trace.
	FailureProb float64
	// CoincidenceProbWeekday/Weekend are the per-day probabilities that a
	// given patient-name/group-id coincidence pair appears.
	CoincidenceProbWeekday, CoincidenceProbWeekend float64
	// SimilarIDProbWeekday/Weekend are the per-day probabilities that a
	// spontaneous similar-id citation appears.
	SimilarIDProbWeekday, SimilarIDProbWeekend float64
	// MultiTaskProb is the probability that a user runs a second,
	// concurrently interleaved session on another client machine ("a user
	// might be active on different machines", §3.2). Merged multi-machine
	// sessions are a major source of spurious co-occurrence for approach
	// L2 — exactly the noise its timeout parameter prunes.
	MultiTaskProb float64
	// Users and ClientHosts size the user and client-machine pools.
	Users, ClientHosts int
	// Incidents is the scripted-incident schedule (see incidents.go). An
	// empty schedule leaves the generated stream byte-identical to a
	// simulator without incident support.
	Incidents []Incident
	// Stationary freezes the weekly rhythm: every day is generated as a
	// Tuesday and the forced free-text phenomena are disabled, so the
	// stream has no scheduled change points — the null workload for the
	// drift detector's false-positive tests.
	Stationary bool
}

// DefaultConfig returns the calibrated 1/100-scale configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                         seed,
		Start:                        logmodel.FromTime(time.Date(2005, 12, 6, 0, 0, 0, 0, time.UTC)),
		Days:                         7,
		Scale:                        1,
		SessionsPerWeekday:           250,
		BackgroundPerWeekday:         55000,
		MeanActionsPerSession:        6,
		InvocationsPerAction:         2,
		SubCallProb:                  0.4,
		ServiceInvocationsPerWeekday: 10,
		FailureProb:                  0.02,
		CoincidenceProbWeekday:       0.1,
		CoincidenceProbWeekend:       0.03,
		SimilarIDProbWeekday:         0.2,
		SimilarIDProbWeekend:         0.05,
		MultiTaskProb:                0.2,
		Users:                        800,
		ClientHosts:                  500,
	}
}

// dayFactors are table 1's per-day volume multipliers, indexed by weekday
// (time.Weekday order: Sunday = 0). Derived from 10.3/9.4/9.4/9.9/3.7/3.4/
// 10.7 million logs for Tue..Mon, normalized to the Tuesday volume.
var dayFactors = [7]float64{
	time.Sunday:    0.33, // 3.4 / 10.3
	time.Monday:    1.04, // 10.7 / 10.3
	time.Tuesday:   1.00, // 10.3
	time.Wednesday: 0.91, // 9.4
	time.Thursday:  0.91, // 9.4
	time.Friday:    0.96, // 9.9
	time.Saturday:  0.36, // 3.7
}

// sessionDayFactors reflect §4.6: "about 4000 sessions for week days and
// about 1000 on Saturday or Sunday".
var sessionDayFactors = [7]float64{
	time.Sunday:    0.23,
	time.Monday:    1.05,
	time.Tuesday:   1.00,
	time.Wednesday: 0.95,
	time.Thursday:  0.95,
	time.Friday:    1.00,
	time.Saturday:  0.25,
}

// hourWeights is the diurnal activity curve of a hospital weekday.
var hourWeights = [24]float64{
	0.08, 0.07, 0.06, 0.06, 0.07, 0.10, // 00-05
	0.25, 0.55, 0.90, 1.00, 1.00, 0.95, // 06-11
	0.75, 0.90, 0.95, 0.95, 0.90, 0.70, // 12-17
	0.45, 0.30, 0.25, 0.20, 0.15, 0.10, // 18-23
}

// weekendHourWeights flatten the curve: round-the-clock care dominates.
var weekendHourWeights = [24]float64{
	0.30, 0.28, 0.26, 0.26, 0.28, 0.32,
	0.45, 0.60, 0.75, 0.80, 0.80, 0.75,
	0.65, 0.70, 0.72, 0.72, 0.70, 0.60,
	0.50, 0.42, 0.38, 0.35, 0.32, 0.30,
}

// flatHourWeights remove the diurnal signal entirely. Stationary runs use
// them everywhere so that hour-of-day carries no information — overnight
// lulls would otherwise make sparse dependencies vanish for hours at a
// time, which is indistinguishable from a real outage at bucket scale.
var flatHourWeights = [24]float64{
	1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
	1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
}

// hourCurve selects the hour-of-day weight curve for a day.
func (s *Simulator) hourCurve(weekend bool) *[24]float64 {
	if s.cfg.Stationary {
		return &flatHourWeights
	}
	if weekend {
		return &weekendHourWeights
	}
	return &hourWeights
}

// DayStats summarizes one generated day for the evaluation harness.
type DayStats struct {
	// Day is the day index (0-based from Config.Start).
	Day int
	// Date is the calendar date of the day.
	Date time.Time
	// Weekend reports whether the day is a Saturday or Sunday.
	Weekend bool
	// Sessions is the number of user sessions generated.
	Sessions int
	// TotalLogs, SessionLogs and BackgroundLogs count the emitted entries.
	TotalLogs, SessionLogs, BackgroundLogs int
	// RealizedEdges is the set of ground-truth dependencies that were
	// actually exercised at least once during the day (the "dynamic"
	// truth of §4.4).
	RealizedEdges map[AppServicePair]bool
}

// Simulator generates the synthetic HUG log stream for a topology.
type Simulator struct {
	cfg  Config
	topo *Topology
	// skew maps a host to its fixed clock offset (§4.2): NTP-synced Unix
	// hosts within ±1 ms, NT-domain hosts within ±800 ms.
	skew map[string]logmodel.Millis
	// views are the compound user actions of each GUI application: fixed
	// combinations of dependencies invoked together ("the creation of a
	// view in a GUI application requires to combine information provided
	// by different components", §4.5). Frequent concurrent use — often
	// with asynchronous members — is the paper's main false-positive
	// mechanism for approaches L1 and L2.
	views map[string][][]*Edge
}

// NewSimulator creates a simulator for the topology. Zero-valued fields of
// cfg are filled from DefaultConfig.
func NewSimulator(cfg Config, topo *Topology) *Simulator {
	def := DefaultConfig(cfg.Seed)
	if cfg.Start == 0 {
		cfg.Start = def.Start
	}
	if cfg.Days == 0 {
		cfg.Days = def.Days
	}
	if cfg.Scale == 0 {
		cfg.Scale = def.Scale
	}
	if cfg.SessionsPerWeekday == 0 {
		cfg.SessionsPerWeekday = def.SessionsPerWeekday
	}
	if cfg.BackgroundPerWeekday == 0 {
		cfg.BackgroundPerWeekday = def.BackgroundPerWeekday
	}
	if cfg.MeanActionsPerSession == 0 {
		cfg.MeanActionsPerSession = def.MeanActionsPerSession
	}
	if cfg.InvocationsPerAction == 0 {
		cfg.InvocationsPerAction = def.InvocationsPerAction
	}
	if cfg.SubCallProb == 0 {
		cfg.SubCallProb = def.SubCallProb
	}
	if cfg.ServiceInvocationsPerWeekday == 0 {
		cfg.ServiceInvocationsPerWeekday = def.ServiceInvocationsPerWeekday
	}
	if cfg.FailureProb == 0 {
		cfg.FailureProb = def.FailureProb
	}
	if cfg.CoincidenceProbWeekday == 0 {
		cfg.CoincidenceProbWeekday = def.CoincidenceProbWeekday
	}
	if cfg.CoincidenceProbWeekend == 0 {
		cfg.CoincidenceProbWeekend = def.CoincidenceProbWeekend
	}
	if cfg.SimilarIDProbWeekday == 0 {
		cfg.SimilarIDProbWeekday = def.SimilarIDProbWeekday
	}
	if cfg.SimilarIDProbWeekend == 0 {
		cfg.SimilarIDProbWeekend = def.SimilarIDProbWeekend
	}
	if cfg.MultiTaskProb == 0 {
		cfg.MultiTaskProb = def.MultiTaskProb
	}
	if cfg.Users == 0 {
		cfg.Users = def.Users
	}
	if cfg.ClientHosts == 0 {
		cfg.ClientHosts = def.ClientHosts
	}
	sim := &Simulator{
		cfg:   cfg,
		topo:  topo,
		skew:  make(map[string]logmodel.Millis),
		views: make(map[string][][]*Edge),
	}
	sim.assignSkews()
	sim.buildViews()
	return sim
}

// buildViews assembles each GUI application's compound views: three fixed
// combinations of two or three dependencies, preferring one asynchronous
// member per view so its callee's activity interleaves with the view's
// other calls.
func (s *Simulator) buildViews() {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x71e35))
	for i := range s.topo.Apps {
		app := &s.topo.Apps[i]
		if app.Kind != KindGUI {
			continue
		}
		edges := make([]*Edge, 0, len(s.topo.EdgesOf(app.Name)))
		var asyncs []*Edge
		for _, e := range s.topo.EdgesOf(app.Name) {
			if e.Rare {
				continue
			}
			edges = append(edges, e)
			if e.Async {
				asyncs = append(asyncs, e)
			}
		}
		if len(edges) < 2 {
			continue
		}
		for v := 0; v < 3; v++ {
			size := 2 + rng.Intn(2)
			view := make([]*Edge, 0, size)
			if len(asyncs) > 0 {
				view = append(view, asyncs[rng.Intn(len(asyncs))])
			}
			for len(view) < size {
				e := edges[rng.Intn(len(edges))]
				dup := false
				for _, ve := range view {
					if ve == e {
						dup = true
					}
				}
				if !dup {
					view = append(view, e)
				}
			}
			// Synchronous members first, the async one in the middle, so
			// the delayed callee activity lands between other calls.
			sort.SliceStable(view, func(a, b int) bool { return !view[a].Async && view[b].Async })
			if len(view) > 2 {
				view[1], view[len(view)-1] = view[len(view)-1], view[1]
			}
			s.views[app.Name] = append(s.views[app.Name], view)
		}
	}
}

// Config returns the simulator's effective configuration.
func (s *Simulator) Config() Config { return s.cfg }

// assignSkews draws the per-host clock offsets deterministically.
func (s *Simulator) assignSkews() {
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x5caff01d))
	for _, a := range s.topo.Apps {
		if a.Kind == KindGUI {
			continue // GUI apps log from client hosts, handled below
		}
		if a.UnixHost {
			s.skew[a.Host] = logmodel.Millis(rng.Intn(3) - 1) // ±1 ms
		} else {
			s.skew[a.Host] = logmodel.Millis(rng.Intn(1601) - 800) // ±800 ms
		}
	}
	for i := 0; i < s.cfg.ClientHosts; i++ {
		s.skew[clientHost(i)] = logmodel.Millis(rng.Intn(1601) - 800)
	}
}

func clientHost(i int) string { return fmt.Sprintf("pc%04d", i) }
func userName(i int) string   { return fmt.Sprintf("u%04d", i) }

// DayRange returns the time range of the i-th simulated day.
func (s *Simulator) DayRange(day int) logmodel.TimeRange {
	start := s.cfg.Start + logmodel.Millis(day)*logmodel.MillisPerDay
	return logmodel.TimeRange{Start: start, End: start + logmodel.MillisPerDay}
}

// DayDate returns the calendar date of the i-th day.
func (s *Simulator) DayDate(day int) time.Time {
	return s.DayRange(day).Start.Time()
}

// IsWeekend reports whether the i-th day is a Saturday or Sunday.
func (s *Simulator) IsWeekend(day int) bool {
	wd := s.DayDate(day).Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// GenerateDay generates the log stream of one day, returning the sorted
// store and the day's statistics. Generation is deterministic per
// (Config.Seed, day).
func (s *Simulator) GenerateDay(day int) (*logmodel.Store, DayStats) {
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(day)*1_000_003))
	r := s.DayRange(day)
	wd := s.DayDate(day).Weekday()
	weekend := wd == time.Saturday || wd == time.Sunday
	if s.cfg.Stationary {
		wd, weekend = time.Tuesday, false
	}
	stats := DayStats{
		Day:           day,
		Date:          s.DayDate(day),
		Weekend:       weekend,
		RealizedEdges: make(map[AppServicePair]bool),
	}

	store := logmodel.NewStore(int(s.cfg.BackgroundPerWeekday * s.cfg.Scale * 1.3))

	emit := func(t logmodel.Millis, app *App, host, user string, sev logmodel.Severity, msg string) {
		if len(s.cfg.Incidents) > 0 {
			// A dark application logs nothing; a migrated one logs from
			// its new host. Both checks use the pre-skew time, so a host's
			// clock offset cannot move an entry across an incident edge.
			if s.appDown(app.Name, t) {
				return
			}
			host = s.hostAt(app, host, t)
		}
		t += s.skew[host]
		if t < 0 {
			t = 0
		}
		store.Append(logmodel.Entry{
			Time: t, Source: app.Name, Host: host, User: user,
			Severity: sev, Message: msg,
		})
	}

	// --- User sessions ----------------------------------------------------
	nSessions := int(s.cfg.SessionsPerWeekday*s.cfg.Scale*sessionDayFactors[wd] + 0.5)
	for i := 0; i < nSessions; i++ {
		before := store.Len()
		user := userName(rng.Intn(s.cfg.Users))
		host := clientHost(rng.Intn(s.cfg.ClientHosts))
		start := s.sampleSessionStart(rng, r, weekend)
		gui := s.pickGUI(rng, weekend)
		s.generateSession(rng, r, weekend, emit, &stats, gui, user, host, start)
		if rng.Float64() < s.cfg.MultiTaskProb && i+1 < nSessions {
			// The same user opens a second, concurrently interleaved
			// session on another machine, in the habitual companion
			// application of the first (staff who work in DPIMain
			// habitually keep the viewer open next to it). The fixed
			// pairing concentrates the spurious co-occurrence on specific
			// application pairs, as observed in §4.6.
			i++
			host2 := clientHost(rng.Intn(s.cfg.ClientHosts))
			start2 := start + logmodel.Millis(rng.Int63n(int64(5*logmodel.MillisPerMinute)))
			s.generateSession(rng, r, weekend, emit, &stats, s.companionGUI(gui, weekend), user, host2, start2)
		}
		stats.SessionLogs += store.Len() - before
	}
	stats.Sessions = nSessions

	// --- Autonomous service-to-service activity ---------------------------
	s.generateServiceCalls(rng, r, wd, weekend, emit, &stats)

	// --- Scripted-incident traffic ----------------------------------------
	if len(s.cfg.Incidents) > 0 {
		s.generateIncidentTraffic(rng, r, emit, &stats)
	}

	// --- Injected free-text phenomena -------------------------------------
	s.injectPhenomena(rng, r, wd, weekend, emit)

	// --- Background noise --------------------------------------------------
	before := store.Len()
	s.generateBackground(rng, r, wd, weekend, emit)
	stats.BackgroundLogs = store.Len() - before

	store.Sort()
	stats.TotalLogs = store.Len()
	return store, stats
}

// GenerateAll generates every day of the configured period and returns the
// per-day stores and statistics.
func (s *Simulator) GenerateAll() ([]*logmodel.Store, []DayStats) {
	stores := make([]*logmodel.Store, s.cfg.Days)
	stats := make([]DayStats, s.cfg.Days)
	for d := 0; d < s.cfg.Days; d++ {
		stores[d], stats[d] = s.GenerateDay(d)
	}
	return stores, stats
}

// generateServiceCalls emits the autonomous service→service invocations:
// scheduled jobs, push updates and housekeeping traffic that exercise the
// middle-tier dependency edges independently of user sessions. Without
// them, unpopular edges would never be realized in a week, contradicting
// the paper's false-negative analysis (§4.8 accounts for every undetected
// dependency).
func (s *Simulator) generateServiceCalls(rng *rand.Rand, r logmodel.TimeRange,
	wd time.Weekday, weekend bool, emit emitFunc, stats *DayStats) {

	// Scheduled jobs and push updates keep running on weekends at a rate
	// that drops far less than the interactive load — this is also why the
	// paper's L1 performs *better* in low-load periods: with fewer
	// concurrent users diluting each service's stream, the correlation
	// between direct interactors stands out (§4.9).
	factor := dayFactors[wd]
	if weekend {
		factor = 0.6
	}
	for i := range s.topo.Apps {
		app := &s.topo.Apps[i]
		if app.Kind != KindService {
			continue
		}
		for _, e := range s.topo.EdgesOf(app.Name) {
			if e.Rare {
				continue
			}
			mean := s.cfg.ServiceInvocationsPerWeekday * e.Weight * factor * s.cfg.Scale
			n := poisson(rng, mean)
			for j := 0; j < n; j++ {
				t := s.sampleSessionStart(rng, r, weekend)
				s.simulateCall(rng, e, t, app, app.Host, "", 1, emit, stats)
			}
		}
	}
}

// sampleSessionStart draws a session start time following the diurnal curve.
func (s *Simulator) sampleSessionStart(rng *rand.Rand, r logmodel.TimeRange, weekend bool) logmodel.Millis {
	w := s.hourCurve(weekend)
	var total float64
	for _, x := range w {
		total += x
	}
	x := rng.Float64() * total
	hour := 0
	for h, wh := range w {
		x -= wh
		if x <= 0 {
			hour = h
			break
		}
	}
	return r.Start + logmodel.Millis(hour)*logmodel.MillisPerHour +
		logmodel.Millis(rng.Int63n(int64(logmodel.MillisPerHour)))
}

type emitFunc func(t logmodel.Millis, app *App, host, user string, sev logmodel.Severity, msg string)

// pickGUI draws the GUI application of a session. GUI apps come first in
// the app slice. Administrative desks (admission, billing) are closed on
// weekends, which is what makes L3 detect visibly fewer dependencies on
// Saturday and Sunday (figure 8).
func (s *Simulator) pickGUI(rng *rand.Rand, weekend bool) *App {
	gui := &s.topo.Apps[rng.Intn(len(guiAppNames))]
	for weekend && weekdayOnlyGUI[gui.Name] {
		gui = &s.topo.Apps[rng.Intn(len(guiAppNames))]
	}
	return gui
}

// companionGUI returns the habitual second application of a multitasking
// user of gui — a fixed pairing, so the spurious co-occurrence concentrates
// on specific application pairs.
func (s *Simulator) companionGUI(gui *App, weekend bool) *App {
	for i, n := range guiAppNames {
		if n == gui.Name {
			for off := 3; ; off++ {
				c := &s.topo.Apps[(i+off)%len(guiAppNames)]
				if c != gui && !(weekend && weekdayOnlyGUI[c.Name]) {
					return c
				}
			}
		}
	}
	return gui
}

// generateSession simulates one user session: the given user on a client
// machine driving the gui application through a series of actions, each
// triggering a synchronous or asynchronous call tree, starting at t.
func (s *Simulator) generateSession(rng *rand.Rand, r logmodel.TimeRange, weekend bool,
	emit emitFunc, stats *DayStats, gui *App, user, host string, t logmodel.Millis) {

	nActions := 1 + poisson(rng, s.cfg.MeanActionsPerSession-1)
	for a := 0; a < nActions && t < r.End; a++ {
		// The user acts: one or two GUI logs.
		var msg string
		switch {
		case rng.Float64() < 0.18:
			if rng.Float64() < 0.12 {
				msg = patientMessage(nonLegacySurname(rng), firstNames[rng.Intn(len(firstNames))], rng)
			} else {
				msg = patientIDMessage(rng)
			}
		default:
			msg = guiActionMessage(rng)
		}
		emit(t, gui, host, user, logmodel.SevInfo, msg)
		if rng.Float64() < 0.5 {
			emit(t+logmodel.Millis(rng.Intn(300)), gui, host, user, logmodel.SevDebug, guiActionMessage(rng))
		}

		// The action triggers service invocations: either a compound view
		// (a fixed combination of dependencies, the concurrent-use pattern
		// of §4.5/§4.6) or ad-hoc weighted calls.
		ct := t + logmodel.Millis(50+rng.Intn(400))
		if vs := s.views[gui.Name]; len(vs) > 0 && rng.Float64() < 0.70 {
			view := vs[rng.Intn(len(vs))]
			for _, e := range view {
				end := s.simulateCall(rng, e, ct, gui, host, user, 0, emit, stats)
				ct = end + logmodel.Millis(20+rng.Intn(200))
			}
		} else {
			nInv := 1 + poisson(rng, s.cfg.InvocationsPerAction-1)
			edges := s.topo.EdgesOf(gui.Name)
			for k := 0; k < nInv && len(edges) > 0; k++ {
				e := weightedEdge(rng, edges)
				if e == nil || e.Rare {
					continue
				}
				end := s.simulateCall(rng, e, ct, gui, host, user, 0, emit, stats)
				ct = end + logmodel.Millis(20+rng.Intn(200))
			}
		}

		// Think time until the next action.
		t += logmodel.SecondsToMillis(5 + rng.ExpFloat64()*55)
	}
}

// simulateCall simulates one invocation of edge e by the caller application
// running on callerHost for the given user, starting at t. It returns the
// time the caller regains control. depth limits transitive recursion.
func (s *Simulator) simulateCall(rng *rand.Rand, e *Edge, t logmodel.Millis,
	caller *App, callerHost, user string, depth int, emit emitFunc, stats *DayStats) logmodel.Millis {

	// Scripted incidents circuit-break the call: a dark caller makes no
	// calls, and calls into a dark group's owner are abandoned without a
	// log line — which is what cascades an outage to the traffic the dark
	// application carried.
	fo := false
	if len(s.cfg.Incidents) > 0 {
		if s.appDown(caller.Name, t) || s.groupDown(e.Group, t) {
			return t
		}
		fo = s.failoverActive(e.Group, t)
	}

	g := s.topo.Group(e.Group)
	owner := s.topo.App(g.Owner)
	fct := g.Services[rng.Intn(len(g.Services))]
	urlFrag := urlFragOf(g)
	stats.RealizedEdges[AppServicePair{App: e.Caller, Group: e.Group}] = true

	// The request context carries the user down the call tree, but each
	// application decides per log line whether it records it — this is
	// what limits the session-assignable share of the stream to the ~10%
	// the paper reports (§4.6).
	maybeUser := func(a *App) string {
		if user != "" && rng.Float64() < a.LogsUserProb {
			return user
		}
		return ""
	}

	// Caller-side invocation log (before the call).
	failed := e.StackTraceCite != "" && rng.Float64() < s.cfg.FailureProb
	if e.Logged {
		cited := e.Group
		if e.WrongID != "" {
			cited = e.WrongID
			if wg := s.topo.Group(e.WrongID); wg != nil {
				urlFrag = urlFragOf(wg)
			}
		}
		emit(t, caller, callerHost, maybeUser(caller), logmodel.SevInfo,
			invokeMessage(caller.InvokeStyle, cited, fct, urlFrag, rng))
		if fo {
			// The slow replica times the first attempt out and the caller
			// retries, logging a second invocation within ~half a second —
			// the citation-delay shift the drift detector's KS channel is
			// built to notice.
			emit(t+logmodel.Millis(400+rng.Intn(800)), caller, callerHost,
				maybeUser(caller), logmodel.SevWarn,
				invokeMessage(caller.InvokeStyle, cited, fct, urlFrag, rng))
		}
	}

	latency := logmodel.Millis(10 + rng.Intn(290))
	if fo {
		latency *= 3
	}
	delay := latency / 2
	if e.Async {
		// Fire-and-forget: the callee acts after a second-scale delay and
		// the caller regains control immediately.
		delay = logmodel.SecondsToMillis(0.2 + rng.ExpFloat64()*0.5)
	}
	serveT := t + delay

	// Callee serving logs on the owner's host: one headline line (the only
	// one that may cite the group id, per the owner's serving style) plus
	// a few detail lines.
	emit(serveT, owner, owner.Host, maybeUser(owner), logmodel.SevInfo,
		servingMessage(owner.ServingStyle, g.ID, fct, rng))
	details := 1 + poisson(rng, 1.5)
	for k := 0; k < details; k++ {
		emit(serveT+logmodel.Millis(1+rng.Intn(60)), owner, owner.Host, maybeUser(owner),
			logmodel.SevDebug, servingMessage(-1, g.ID, fct, rng))
	}

	// Transitive sub-calls by the owner.
	if depth < 2 {
		for _, sub := range s.topo.EdgesOf(owner.Name) {
			if sub.Rare || rng.Float64() >= s.cfg.SubCallProb {
				continue
			}
			s.simulateCall(rng, sub, serveT+logmodel.Millis(1+rng.Intn(30)),
				owner, owner.Host, user, depth+1, emit, stats)
		}
	}

	// Caller-side completion or failure log.
	retT := t + latency
	if e.Async {
		retT = t + logmodel.Millis(1+rng.Intn(10))
	}
	if failed && e.Logged {
		cite := e.StackTraceCite
		var citedFrag string
		if cg := s.topo.Group(cite); cg != nil {
			citedFrag = urlFragOf(cg)
		}
		emit(retT, caller, callerHost, maybeUser(caller), logmodel.SevError,
			stackTraceMessage(g.ID, fct, cite, citedFrag))
	} else if e.Logged && !e.Async && rng.Float64() < 0.5 {
		emit(retT, caller, callerHost, maybeUser(caller), logmodel.SevDebug, completionMessage(fct, rng))
	}
	return retT
}

// weekdaySlot numbers the working days of the test week (Tue Dec 6 is day
// 0). It returns -1 for weekend days.
func weekdaySlot(wd time.Weekday) int {
	switch wd {
	case time.Tuesday:
		return 0
	case time.Wednesday:
		return 1
	case time.Thursday:
		return 2
	case time.Friday:
		return 3
	case time.Monday:
		return 4
	default:
		return -1
	}
}

// injectPhenomena emits the controlled free-text phenomena for the day:
// coincidence patient names, spontaneous similar-id citations and forced
// occurrences of the stack-trace transitive citations. Each injected pair
// fires deterministically on one assigned weekday of the week (so the
// week-union reproduces the paper's §4.8 counts exactly) plus randomly with
// a small probability.
func (s *Simulator) injectPhenomena(rng *rand.Rand, r logmodel.TimeRange,
	wd time.Weekday, weekend bool, emit emitFunc) {

	slot := weekdaySlot(wd)
	if s.cfg.Stationary {
		slot = -1 // no forced phenomena: every day draws from the same law
	}
	coinProb := s.cfg.CoincidenceProbWeekday
	simProb := s.cfg.SimilarIDProbWeekday
	if weekend {
		coinProb = s.cfg.CoincidenceProbWeekend
		simProb = s.cfg.SimilarIDProbWeekend
	}

	for i, p := range s.topo.Phenomena.CoincidencePairs {
		forced := slot >= 0 && i%5 == slot
		if !forced && rng.Float64() >= coinProb {
			continue
		}
		app := s.topo.App(p.App)
		t := s.sampleSessionStart(rng, r, weekend)
		emit(t, app, clientHost(rng.Intn(s.cfg.ClientHosts)), userName(rng.Intn(s.cfg.Users)),
			logmodel.SevInfo,
			patientMessage(p.Group, firstNames[rng.Intn(len(firstNames))], rng))
	}

	// The spontaneous similar-id citations are the entries of
	// SimilarIDPairs beyond the first three (those stem from wrong-name
	// edges and are emitted by simulateCall itself).
	sp := s.topo.Phenomena.SimilarIDPairs
	if len(sp) > 3 {
		for i, p := range sp[3:] {
			forced := slot >= 0 && (i+4)%5 == slot
			if !forced && rng.Float64() >= simProb {
				continue
			}
			app := s.topo.App(p.App)
			g := s.topo.Group(p.Group)
			t := s.sampleSessionStart(rng, r, weekend)
			emit(t, app, clientHost(rng.Intn(s.cfg.ClientHosts)), userName(rng.Intn(s.cfg.Users)),
				logmodel.SevInfo,
				invokeMessage(app.InvokeStyle, g.ID, g.Services[0], urlFragOf(g), rng))
		}
	}

	// Forced stack-trace failures: each stack-trace edge fails at least
	// once a week (organic failures also occur via FailureProb).
	for i := range s.topo.Edges {
		e := &s.topo.Edges[i]
		if e.StackTraceCite == "" || !e.Logged {
			continue
		}
		if slot < 0 || i%5 != slot%5 {
			continue
		}
		s.emitForcedFailure(rng, r, e, weekend, emit)
	}
}

// emitForcedFailure logs one failed invocation of edge e (the caller-side
// exception trace citing the transitively used group).
func (s *Simulator) emitForcedFailure(rng *rand.Rand, r logmodel.TimeRange,
	e *Edge, weekend bool, emit emitFunc) {

	caller := s.topo.App(e.Caller)
	g := s.topo.Group(e.Group)
	fct := g.Services[rng.Intn(len(g.Services))]
	var citedFrag string
	if cg := s.topo.Group(e.StackTraceCite); cg != nil {
		citedFrag = urlFragOf(cg)
	}
	host := caller.Host
	user := ""
	if caller.Kind == KindGUI {
		host = clientHost(rng.Intn(s.cfg.ClientHosts))
		user = userName(rng.Intn(s.cfg.Users))
	}
	t := s.sampleSessionStart(rng, r, weekend)
	emit(t, caller, host, user, logmodel.SevError,
		stackTraceMessage(g.ID, fct, e.StackTraceCite, citedFrag))
}

// generateBackground emits the autonomous (non-session) activity of all
// applications for the day, following the diurnal curve for service apps
// and a flat profile for batch apps.
func (s *Simulator) generateBackground(rng *rand.Rand, r logmodel.TimeRange,
	wd time.Weekday, weekend bool, emit emitFunc) {

	var totalWeight float64
	for i := range s.topo.Apps {
		totalWeight += s.topo.Apps[i].BackgroundWeight
	}
	if totalWeight == 0 {
		return
	}
	budget := s.cfg.BackgroundPerWeekday * s.cfg.Scale * dayFactors[wd]
	w := s.hourCurve(weekend)
	var hourTotal float64
	for _, x := range w {
		hourTotal += x
	}
	for i := range s.topo.Apps {
		app := &s.topo.Apps[i]
		n := budget * app.BackgroundWeight / totalWeight
		flat := app.Kind == KindBatch
		for h := 0; h < 24; h++ {
			hw := w[h] / hourTotal * 24
			if flat {
				hw = 1
			}
			count := poisson(rng, n*hw/24)
			hr := logmodel.TimeRange{
				Start: r.Start + logmodel.Millis(h)*logmodel.MillisPerHour,
				End:   r.Start + logmodel.Millis(h+1)*logmodel.MillisPerHour,
			}
			host := app.Host
			for j := 0; j < count; j++ {
				t := hr.Start + logmodel.Millis(rng.Int63n(int64(logmodel.MillisPerHour)))
				if app.Kind == KindGUI {
					host = clientHost(rng.Intn(s.cfg.ClientHosts))
				}
				sev := logmodel.SevDebug
				if rng.Float64() < 0.25 {
					sev = logmodel.SevInfo
				}
				emit(t, app, host, "", sev, noiseMessage(rng))
			}
		}
	}
}

// nonLegacySurname draws a surname that is not a legacy group codename, so
// organic patient logs never collide with directory ids; collisions are
// injected in controlled numbers by injectPhenomena.
func nonLegacySurname(rng *rand.Rand) string {
	n := len(patientSurnames) - len(legacyGroupIDs)
	return patientSurnames[rng.Intn(n)]
}

// urlFragOf returns the host:port/path fragment of a group's root URL as it
// appears in invocation logs.
func urlFragOf(g *ServiceGroup) string {
	const pfx = "http://"
	u := g.RootURL
	if len(u) > len(pfx) && u[:len(pfx)] == pfx {
		return u[len(pfx):]
	}
	return u
}

// weightedEdge picks an edge proportionally to Weight.
func weightedEdge(rng *rand.Rand, edges []*Edge) *Edge {
	var total float64
	for _, e := range edges {
		if !e.Rare {
			total += e.Weight
		}
	}
	if total == 0 {
		return nil
	}
	x := rng.Float64() * total
	for _, e := range edges {
		if e.Rare {
			continue
		}
		x -= e.Weight
		if x <= 0 {
			return e
		}
	}
	return nil
}

// poisson draws a Poisson variate with the given mean (Knuth's algorithm
// for small means, normal approximation above 30).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := mean + rng.NormFloat64()*math.Sqrt(mean)
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
