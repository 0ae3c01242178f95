package eval

import (
	"math"

	"logscape/internal/core"
	"logscape/internal/core/l1"
	"logscape/internal/core/l2"
	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
	"logscape/internal/obs"
	"logscape/internal/sessions"
)

// Options configures an evaluation run.
type Options struct {
	// Seed drives topology generation and the workload.
	Seed int64
	// Scale rescales the simulated volume (1 ≙ the calibrated 1/100 of
	// HUG's production volume; see hospital.Config).
	Scale float64
	// Days is the number of simulated days (default 7, Tue Dec 6 to Mon
	// Dec 12 2005).
	Days int
	// L1 configures approach L1. MinLogs of 0 is auto-scaled to the
	// simulated volume.
	L1 l1.Config
	// L2 configures approach L2.
	L2 l2.Config
	// Sessions configures session creation for L2.
	Sessions sessions.Config
	// Stops are the stop patterns for L3 (default: the canonical ten).
	Stops []directory.StopPattern
	// Metrics, when non-nil, is propagated into every miner configuration
	// (L1, L2, Sessions, the L3 miners, the baseline) so one registry
	// collects the whole run; see internal/obs. Collection never changes
	// any result.
	Metrics *obs.Registry
}

// DefaultOptions returns the calibrated evaluation configuration.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:  seed,
		Scale: 1,
		Days:  7,
		Stops: hospital.CanonicalStopPatterns(),
	}
}

// Runner holds one simulated week and the models mined from it. Create it
// with NewRunner; the per-day stores are generated eagerly and reused by
// all experiments.
type Runner struct {
	Opts Options
	// Topo is the simulated environment (the ground truth).
	Topo *hospital.Topology
	// Sim is the workload generator.
	Sim *hospital.Simulator
	// Dir is the service directory.
	Dir *directory.Directory
	// Stores and Stats hold the generated per-day log streams.
	Stores []*logmodel.Store
	Stats  []hospital.DayStats
	// TruePairs is the app-pair reference model (§4.3, first model).
	TruePairs core.PairSet
	// TrueDeps is the app→service reference model (§4.3, second model).
	TrueDeps core.AppServiceSet
	// Owner maps group ids to owning applications.
	Owner map[string]string

	sessCache map[int][]sessions.Session
	l3Miner   *l3.Miner
}

// NewRunner simulates the week for the given options.
func NewRunner(opts Options) *Runner {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.Days == 0 {
		opts.Days = 7
	}
	if opts.Stops == nil {
		opts.Stops = hospital.CanonicalStopPatterns()
	}
	if opts.L1.MinLogs == 0 {
		opts.L1.MinLogs = AutoMinLogs(opts.Scale)
	}
	if opts.L1.Seed == 0 {
		opts.L1.Seed = opts.Seed
	}
	if opts.Metrics != nil {
		if opts.L1.Metrics == nil {
			opts.L1.Metrics = opts.Metrics
		}
		if opts.L2.Metrics == nil {
			opts.L2.Metrics = opts.Metrics
		}
		if opts.Sessions.Metrics == nil {
			opts.Sessions.Metrics = opts.Metrics
		}
	}
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), opts.Seed)
	simCfg := hospital.DefaultConfig(opts.Seed)
	simCfg.Scale = opts.Scale
	simCfg.Days = opts.Days
	sim := hospital.NewSimulator(simCfg, topo)
	r := &Runner{
		Opts:      opts,
		Topo:      topo,
		Sim:       sim,
		Dir:       topo.Directory(),
		TruePairs: topo.TrueAppPairs(),
		TrueDeps:  topo.TrueAppServicePairs(),
		Owner:     make(map[string]string, len(topo.Groups)),
		sessCache: make(map[int][]sessions.Session),
	}
	for _, g := range topo.Groups {
		r.Owner[g.ID] = g.Owner
	}
	r.Stores, r.Stats = sim.GenerateAll()
	return r
}

// AutoMinLogs is L1's per-slot minimum log count for a simulated volume:
// 10·scale, floored at 8 so the per-slot median test stays meaningful. It
// is linear in volume — 10 at Scale 1, the paper's 100 at Scale 10, 1000 at
// the paper's own ~8 M logs a day (Scale 100) — and is kept for
// docs/report.md's Scale-1 figures; at Scale 100, minlogs 100 and 1000 read
// L1 TP 19 and 18 on day 0.
func AutoMinLogs(scale float64) int {
	m := int(10*scale + 0.5)
	if m < 8 {
		m = 8
	}
	return m
}

// PairUniverse returns the number of possible application pairs
// ((54² − 54)/2 = 1431 in the paper).
func (r *Runner) PairUniverse() int {
	n := len(r.Topo.Apps)
	return n * (n - 1) / 2
}

// DepUniverse returns the number of possible application→service
// dependencies.
func (r *Runner) DepUniverse() int {
	return len(r.Topo.Apps) * len(r.Topo.Groups)
}

// AppNames returns the application names (the log sources considered by L1).
func (r *Runner) AppNames() []string { return r.Topo.AppNames() }

// MineL1Day runs approach L1 on one simulated day.
func (r *Runner) MineL1Day(day int) *l1.Result {
	return l1.Mine(r.Stores[day], r.Sim.DayRange(day), r.AppNames(), r.Opts.L1)
}

// SessionsOfDay builds the user sessions of one day.
func (r *Runner) SessionsOfDay(day int) ([]sessions.Session, sessions.Stats) {
	return sessions.Build(r.Stores[day], r.Opts.Sessions)
}

// sessionsCached returns the day's sessions, building them once.
func (r *Runner) sessionsCached(day int) []sessions.Session {
	if ss, ok := r.sessCache[day]; ok {
		return ss
	}
	ss, _ := r.SessionsOfDay(day)
	r.sessCache[day] = ss
	return ss
}

// l3MinerShared returns the runner's shared L3 miner (one citation
// automaton for the whole evaluation).
func (r *Runner) l3MinerShared() *l3.Miner {
	if r.l3Miner == nil {
		r.l3Miner = l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops, Metrics: r.Opts.Metrics})
	}
	return r.l3Miner
}

// MineL2Day runs approach L2 on one simulated day with the given timeout
// (use r.Opts.L2.Timeout by passing 0).
func (r *Runner) MineL2Day(day int, timeout logmodel.Millis) *l2.Result {
	ss := r.sessionsCached(day)
	cfg := r.Opts.L2
	if timeout != 0 {
		cfg.Timeout = timeout
	}
	return l2.Mine(ss, cfg)
}

// MineL3Day runs approach L3 on one simulated day with the runner's stop
// patterns.
func (r *Runner) MineL3Day(day int) *l3.Result {
	m := l3.NewMiner(r.Dir, l3.Config{Stops: r.Opts.Stops, Metrics: r.Opts.Metrics})
	return m.Mine(r.Stores[day], r.Sim.DayRange(day))
}

// MineL3DayNoStops runs approach L3 without stop patterns (the §4.8
// ablation).
func (r *Runner) MineL3DayNoStops(day int) *l3.Result {
	m := l3.NewMiner(r.Dir, l3.Config{})
	return m.Mine(r.Stores[day], r.Sim.DayRange(day))
}

// ScorePairs scores a mined pair set against the app-pair reference model.
func (r *Runner) ScorePairs(pred core.PairSet) core.Confusion {
	return core.ComparePairs(pred, r.TruePairs, r.PairUniverse())
}

// ScoreDeps scores mined dependencies against the app→service reference
// model.
func (r *Runner) ScoreDeps(pred core.AppServiceSet) core.Confusion {
	return core.CompareAppService(pred, r.TrueDeps, r.DepUniverse())
}

// ratioOrNaN returns tp/(tp+fp) or NaN when nothing was predicted.
func ratioOrNaN(tp, fp int) float64 {
	if tp+fp == 0 {
		return math.NaN()
	}
	return float64(tp) / float64(tp+fp)
}
