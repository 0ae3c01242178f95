package hospital

import (
	"math/rand"
	"testing"
	"time"

	"logscape/internal/logmodel"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// smallConfig returns a light configuration for fast tests.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Scale = 0.1
	return cfg
}

func TestSimulatorDayDeterministic(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 7)
	sim := NewSimulator(smallConfig(7), topo)
	a, sa := sim.GenerateDay(0)
	b, sb := sim.GenerateDay(0)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Entries()[i] != b.Entries()[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
	if sa.TotalLogs != sb.TotalLogs || sa.Sessions != sb.Sessions {
		t.Errorf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestSimulatorDayBasics(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 7)
	sim := NewSimulator(smallConfig(7), topo)
	store, stats := sim.GenerateDay(0)
	if store.Len() == 0 {
		t.Fatal("empty day")
	}
	if !store.Sorted() {
		t.Fatal("store not sorted")
	}
	if stats.TotalLogs != store.Len() {
		t.Errorf("TotalLogs = %d, Len = %d", stats.TotalLogs, store.Len())
	}
	// Day 0 of the default start is Tuesday 2005-12-06.
	if stats.Date.Weekday() != time.Tuesday {
		t.Errorf("day 0 weekday = %v", stats.Date.Weekday())
	}
	if stats.Weekend {
		t.Error("Tuesday marked as weekend")
	}
	if sim.IsWeekend(0) || !sim.IsWeekend(4) || !sim.IsWeekend(5) || sim.IsWeekend(6) {
		t.Error("IsWeekend pattern wrong for Dec 6-12 2005")
	}
	// All entries fall inside the day (modulo clock skew at the edges).
	r := sim.DayRange(0)
	slack := logmodel.Millis(1000)
	for _, e := range store.Entries() {
		if e.Time < r.Start-slack || e.Time >= r.End+slack {
			t.Fatalf("entry at %v outside day %v", e.Time, r)
		}
	}
	if stats.Sessions == 0 || stats.SessionLogs == 0 || stats.BackgroundLogs == 0 {
		t.Errorf("stats = %+v", stats)
	}
	if len(stats.RealizedEdges) == 0 {
		t.Error("no edges realized")
	}
}

func TestWeekVolumeShape(t *testing.T) {
	// Table 1 shape: weekend days carry roughly a third of weekday volume.
	topo := GenerateTopology(DefaultTopologyConfig(), 3)
	cfg := smallConfig(3)
	sim := NewSimulator(cfg, topo)
	volumes := make([]int, 7)
	for d := 0; d < 7; d++ {
		_, stats := sim.GenerateDay(d)
		volumes[d] = stats.TotalLogs
	}
	// Days 4, 5 are Sat/Sun.
	weekdayMean := float64(volumes[0]+volumes[1]+volumes[2]+volumes[3]+volumes[6]) / 5
	for _, d := range []int{4, 5} {
		ratio := float64(volumes[d]) / weekdayMean
		if ratio < 0.2 || ratio > 0.55 {
			t.Errorf("weekend day %d ratio = %.2f, want ≈ 0.33", d, ratio)
		}
	}
	// Monday (day 6) is the peak in table 1; it must be at least average.
	if float64(volumes[6]) < 0.95*weekdayMean {
		t.Errorf("Monday volume %d below weekday mean %.0f", volumes[6], weekdayMean)
	}
}

func TestRareEdgesNeverRealized(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 5)
	sim := NewSimulator(smallConfig(5), topo)
	for d := 0; d < 7; d++ {
		_, stats := sim.GenerateDay(d)
		for _, p := range topo.Phenomena.RareEdges {
			if stats.RealizedEdges[p] {
				t.Errorf("rare edge %v realized on day %d", p, d)
			}
		}
	}
}

func TestMostEdgesRealizedOnWeekday(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 5)
	sim := NewSimulator(DefaultConfig(5), topo)
	_, stats := sim.GenerateDay(0) // Tuesday, full scale
	realized := len(stats.RealizedEdges)
	possible := len(topo.Edges) - len(topo.Phenomena.RareEdges)
	if float64(realized) < 0.75*float64(possible) {
		t.Errorf("realized %d of %d non-rare edges on a weekday", realized, possible)
	}
}

func TestSessionAssignableShare(t *testing.T) {
	// §4.6: 7.5–11%% of logs can be assigned to a session. Our proxy: the
	// share of entries carrying a user id should be in that neighborhood.
	topo := GenerateTopology(DefaultTopologyConfig(), 11)
	sim := NewSimulator(DefaultConfig(11), topo)
	store, _ := sim.GenerateDay(0)
	withUser := 0
	for _, e := range store.Entries() {
		if e.User != "" {
			withUser++
		}
	}
	share := float64(withUser) / float64(store.Len())
	if share < 0.05 || share > 0.20 {
		t.Errorf("user-carrying share = %.3f, want ≈ 0.075–0.11", share)
	}
}

func TestClockSkewBounds(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 13)
	sim := NewSimulator(smallConfig(13), topo)
	for host, skew := range sim.skew {
		if skew < -800 || skew > 800 {
			t.Errorf("host %s skew %d out of bounds", host, skew)
		}
	}
	// Unix service hosts must be within ±1 ms.
	for _, a := range topo.Apps {
		if a.Kind != KindGUI && a.UnixHost {
			if s := sim.skew[a.Host]; s < -1 || s > 1 {
				t.Errorf("unix host %s skew %d", a.Host, s)
			}
		}
	}
}

func TestGenerateAll(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 17)
	cfg := smallConfig(17)
	cfg.Days = 2
	sim := NewSimulator(cfg, topo)
	stores, stats := sim.GenerateAll()
	if len(stores) != 2 || len(stats) != 2 {
		t.Fatalf("lens = %d, %d", len(stores), len(stats))
	}
	if stats[0].Day != 0 || stats[1].Day != 1 {
		t.Error("day indexes")
	}
	if stores[0].Len() == 0 || stores[1].Len() == 0 {
		t.Error("empty stores")
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 1)
	sim := NewSimulator(Config{Seed: 1}, topo)
	cfg := sim.Config()
	if cfg.Days != 7 || cfg.Scale != 1 || cfg.Users == 0 || cfg.ClientHosts == 0 {
		t.Errorf("defaults not filled: %+v", cfg)
	}
	if cfg.Start.Time().Year() != 2005 {
		t.Errorf("start = %v", cfg.Start.Time())
	}
}

func TestPoisson(t *testing.T) {
	rng := newTestRand()
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("poisson of non-positive mean")
	}
	// Small mean: sample mean close to true mean.
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 3)
	}
	mean := float64(sum) / n
	if mean < 2.9 || mean > 3.1 {
		t.Errorf("poisson(3) sample mean = %v", mean)
	}
	// Large mean: normal approximation path.
	sum = 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 100)
	}
	mean = float64(sum) / n
	if mean < 98 || mean > 102 {
		t.Errorf("poisson(100) sample mean = %v", mean)
	}
}

func TestWeightedEdge(t *testing.T) {
	rng := newTestRand()
	edges := []*Edge{
		{Caller: "A", Group: "G1", Weight: 1},
		{Caller: "A", Group: "G2", Weight: 9},
	}
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[weightedEdge(rng, edges).Group]++
	}
	if counts["G2"] < 8500 || counts["G2"] > 9500 {
		t.Errorf("G2 picked %d times of 10000, want ≈ 9000", counts["G2"])
	}
	// Rare edges are never picked.
	rare := []*Edge{{Caller: "A", Group: "G", Weight: 5, Rare: true}}
	if weightedEdge(rng, rare) != nil {
		t.Error("rare edge picked")
	}
	if weightedEdge(rng, nil) != nil {
		t.Error("empty edges")
	}
}

func TestNonLegacySurnameNeverCollides(t *testing.T) {
	rng := newTestRand()
	legacy := map[string]bool{}
	for _, id := range legacyGroupIDs {
		legacy[id] = true
	}
	for i := 0; i < 5000; i++ {
		if s := nonLegacySurname(rng); legacy[s] {
			t.Fatalf("drew legacy surname %s", s)
		}
	}
}

func TestUrlFragOf(t *testing.T) {
	g := &ServiceGroup{RootURL: "http://host.hug.local:8123/path"}
	if f := urlFragOf(g); f != "host.hug.local:8123/path" {
		t.Errorf("frag = %q", f)
	}
	g2 := &ServiceGroup{RootURL: "weird"}
	if f := urlFragOf(g2); f != "weird" {
		t.Errorf("frag = %q", f)
	}
}
