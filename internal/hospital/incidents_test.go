package hospital

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"logscape/internal/logmodel"
)

// scheduleFor builds the canonical schedule of a test topology.
func scheduleFor(t *testing.T, seed int64) (*Topology, Config, []Incident) {
	t.Helper()
	topo := GenerateTopology(DefaultTopologyConfig(), seed)
	cfg := smallConfig(seed)
	schedule := DefaultIncidentSchedule(topo, cfg.Start)
	if len(schedule) == 0 {
		t.Fatal("empty default schedule")
	}
	return topo, cfg, schedule
}

// incidentOf returns the first scheduled incident of a kind.
func incidentOf(t *testing.T, schedule []Incident, kind IncidentKind) Incident {
	t.Helper()
	for _, inc := range schedule {
		if inc.Kind == kind {
			return inc
		}
	}
	t.Fatalf("no %s incident in schedule", kind)
	return Incident{}
}

func TestDefaultIncidentScheduleDeterministic(t *testing.T) {
	_, _, a := scheduleFor(t, 7)
	_, _, b := scheduleFor(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedules differ:\n%+v\n%+v", a, b)
	}
	kinds := make(map[IncidentKind]bool)
	for _, inc := range a {
		kinds[inc.Kind] = true
	}
	for _, k := range []IncidentKind{IncidentOutage, IncidentMigration, IncidentFailover, IncidentRollout} {
		if !kinds[k] {
			t.Errorf("schedule lacks a %s incident", k)
		}
	}
}

func TestOutageSilencesApp(t *testing.T) {
	topo, cfg, schedule := scheduleFor(t, 7)
	out := incidentOf(t, schedule, IncidentOutage)
	cfg.Incidents = schedule
	sim := NewSimulator(cfg, topo)
	day := int((out.At - cfg.Start) / logmodel.MillisPerDay)
	store, _ := sim.GenerateDay(day)

	slack := logmodel.Millis(1000) // clock skew can move entries ±800 ms
	var before, during, after int
	for _, e := range store.Entries() {
		if e.Source != out.App {
			continue
		}
		switch {
		case e.Time < out.At-slack:
			before++
		case e.Time >= out.At+slack && e.Time < out.At+out.Duration-slack:
			during++
		case e.Time >= out.At+out.Duration+slack:
			after++
		}
	}
	if during != 0 {
		t.Errorf("%d entries from %s during its outage", during, out.App)
	}
	if before == 0 || after == 0 {
		t.Errorf("app %s not active around the outage (before=%d after=%d)", out.App, before, after)
	}
}

func TestMigrationMovesHost(t *testing.T) {
	topo, cfg, schedule := scheduleFor(t, 7)
	mig := incidentOf(t, schedule, IncidentMigration)
	cfg.Incidents = schedule
	sim := NewSimulator(cfg, topo)
	oldHost := topo.App(mig.App).Host
	day := int((mig.At - cfg.Start) / logmodel.MillisPerDay)
	store, _ := sim.GenerateDay(day)

	slack := logmodel.Millis(1000)
	var oldBefore, newAfter, wrongAfter, oldDuring int
	for _, e := range store.Entries() {
		if e.Source != mig.App {
			continue
		}
		switch {
		case e.Time < mig.At-slack && e.Host == oldHost:
			oldBefore++
		case e.Time >= mig.At+slack && e.Time < mig.At+mig.Duration-slack:
			oldDuring++
		case e.Time >= mig.At+mig.Duration+slack:
			if e.Host == mig.NewHost {
				newAfter++
			} else {
				wrongAfter++
			}
		}
	}
	if oldBefore == 0 || newAfter == 0 {
		t.Errorf("migration traffic missing (before=%d after=%d)", oldBefore, newAfter)
	}
	if oldDuring != 0 {
		t.Errorf("%d entries during the cutover window", oldDuring)
	}
	if wrongAfter != 0 {
		t.Errorf("%d post-cutover entries not on %s", wrongAfter, mig.NewHost)
	}
}

func TestFailoverEmitsRetries(t *testing.T) {
	topo, cfg, schedule := scheduleFor(t, 7)
	fo := incidentOf(t, schedule, IncidentFailover)
	cfg.Incidents = schedule
	sim := NewSimulator(cfg, topo)
	day := int((fo.At - cfg.Start) / logmodel.MillisPerDay)
	store, _ := sim.GenerateDay(day)

	retries := 0
	for _, e := range store.Entries() {
		if e.Severity == logmodel.SevWarn && e.Time >= fo.At && e.Time < fo.At+fo.Duration &&
			strings.Contains(e.Message, fo.Group) {
			retries++
		}
	}
	if retries == 0 {
		t.Errorf("no retry invocations of %s during its failover", fo.Group)
	}
}

func TestRolloutIntroducesDependency(t *testing.T) {
	topo, cfg, schedule := scheduleFor(t, 7)
	ro := incidentOf(t, schedule, IncidentRollout)
	cfg.Incidents = schedule
	sim := NewSimulator(cfg, topo)
	day := int((ro.At - cfg.Start) / logmodel.MillisPerDay)

	var before, after int
	for d := 0; d <= day; d++ {
		store, _ := sim.GenerateDay(d)
		for _, e := range store.Entries() {
			if e.Source != ro.Caller || !strings.Contains(e.Message, ro.Group) {
				continue
			}
			if e.Time < ro.At {
				before++
			} else {
				after++
			}
		}
	}
	if before != 0 {
		t.Errorf("%d citations of %s by %s before the rollout", before, ro.Group, ro.Caller)
	}
	if after == 0 {
		t.Errorf("no citations of %s by %s after the rollout", ro.Group, ro.Caller)
	}
}

func TestTruthPointsMatchSchedule(t *testing.T) {
	topo, cfg, schedule := scheduleFor(t, 7)
	cfg.Incidents = schedule
	sim := NewSimulator(cfg, topo)
	pts := sim.TruthPoints()
	if len(pts) == 0 {
		t.Fatal("no truth points")
	}
	counts := make(map[string]int)
	for i, p := range pts {
		if i > 0 && p.At < pts[i-1].At {
			t.Fatalf("truth points out of order at %d", i)
		}
		if len(p.Keys) == 0 {
			t.Fatalf("truth point %d has no keys", i)
		}
		for j, k := range p.Keys {
			if j > 0 && k <= p.Keys[j-1] {
				t.Fatalf("truth point %d keys not strictly sorted", i)
			}
		}
		counts[p.Kind]++
	}
	// Outage and migration each imply a death and a rebirth; the rollout
	// one birth; the failover a delay shift at each edge (onset and
	// recovery).
	if counts["death"] != 2 || counts["birth"] != 3 || counts["delay-shift"] != 2 {
		t.Errorf("truth kind counts = %v", counts)
	}
}

func TestStationaryWeekIsUniform(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 7)
	cfg := smallConfig(7)
	cfg.Stationary = true
	sim := NewSimulator(cfg, topo)
	_, first := sim.GenerateDay(0)
	for d := 1; d < 7; d++ {
		_, st := sim.GenerateDay(d)
		if st.Sessions != first.Sessions {
			t.Errorf("day %d sessions = %d, day 0 = %d", d, st.Sessions, first.Sessions)
		}
		if st.Weekend {
			t.Errorf("day %d marked weekend in stationary mode", d)
		}
	}
	// Day 4 of the default start is a Saturday; stationary mode must keep
	// its volume at the weekday level.
	if time.Date(2005, 12, 10, 0, 0, 0, 0, time.UTC).Weekday() != time.Saturday {
		t.Fatal("calendar assumption broken")
	}
}

func TestIncidentHelpersNilSafe(t *testing.T) {
	topo, cfg, _ := scheduleFor(t, 7)
	cfg.Incidents = []Incident{
		{Kind: IncidentRollout, Caller: "NoSuchApp", Group: "NOGRP", At: cfg.Start, Duration: logmodel.MillisPerDay, Rate: 10},
		{Kind: IncidentOutage, App: "NoSuchApp", At: cfg.Start, Duration: logmodel.MillisPerHour},
	}
	sim := NewSimulator(cfg, topo)
	if sim.groupDown("NOGRP", cfg.Start) {
		t.Error("unknown group reported down")
	}
	if pts := sim.TruthPoints(); len(pts) != 0 {
		t.Errorf("truth points for unknown targets: %+v", pts)
	}
	// Generating a day with the hostile schedule must not panic.
	store, _ := sim.GenerateDay(0)
	if store.Len() == 0 {
		t.Fatal("empty day")
	}
}
