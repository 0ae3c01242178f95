package sessions

import (
	"reflect"
	"testing"

	"logscape/internal/hospital"
	"logscape/internal/logmodel"
)

func entry(t logmodel.Millis, src, user string) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: src, Host: "h", User: user, Severity: logmodel.SevInfo}
}

func buildStore(es ...logmodel.Entry) *logmodel.Store {
	s := logmodel.NewStore(len(es))
	s.AppendAll(es)
	s.Sort()
	return s
}

func TestBuildBasic(t *testing.T) {
	store := buildStore(
		entry(0, "A", "u1"),
		entry(1000, "B", "u1"),
		entry(2000, "A", "u1"),
		entry(3000, "C", "u1"),
		entry(500, "X", ""), // unassignable
	)
	ss, stats := Build(store, Config{})
	if len(ss) != 1 {
		t.Fatalf("sessions = %d", len(ss))
	}
	s := ss[0]
	if s.User != "u1" || s.Len() != 4 {
		t.Errorf("session = %+v", s)
	}
	if last := s.Entries[s.Len()-1].Time; s.Start() != 0 || last != 3000 {
		t.Errorf("bounds = %v..%v", s.Start(), last)
	}
	if !reflect.DeepEqual(s.Sources(), []string{"A", "B", "C"}) {
		t.Errorf("sources = %v", s.Sources())
	}
	if stats.TotalLogs != 5 || stats.AssignableLogs != 4 || stats.AssignedLogs != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.AssignedShare() != 0.8 {
		t.Errorf("share = %v", stats.AssignedShare())
	}
}

func TestBuildSplitsOnGap(t *testing.T) {
	gap := 15 * logmodel.MillisPerMinute
	store := buildStore(
		entry(0, "A", "u1"),
		entry(1000, "B", "u1"),
		entry(2000, "A", "u1"),
		entry(3000, "B", "u1"),
		// gap > MaxGap
		entry(3000+gap+1, "A", "u1"),
		entry(4000+gap+1, "B", "u1"),
		entry(5000+gap+1, "A", "u1"),
		entry(6000+gap+1, "C", "u1"),
	)
	ss, _ := Build(store, Config{})
	if len(ss) != 2 {
		t.Fatalf("sessions = %d, want 2", len(ss))
	}
	if ss[0].Len() != 4 || ss[1].Len() != 4 {
		t.Errorf("lens = %d, %d", ss[0].Len(), ss[1].Len())
	}
	if ss[0].Start() > ss[1].Start() {
		t.Error("sessions not ordered by start")
	}
}

func TestBuildSeparatesUsers(t *testing.T) {
	// Two users interleaved on the same machine (the shared-machine
	// challenge): they must form distinct sessions.
	store := buildStore(
		entry(0, "A", "u1"),
		entry(100, "A", "u2"),
		entry(200, "B", "u1"),
		entry(300, "B", "u2"),
		entry(400, "C", "u1"),
		entry(500, "C", "u2"),
		entry(600, "D", "u1"),
		entry(700, "D", "u2"),
	)
	ss, _ := Build(store, Config{})
	if len(ss) != 2 {
		t.Fatalf("sessions = %d, want 2", len(ss))
	}
	users := map[string]int{}
	for _, s := range ss {
		users[s.User] = s.Len()
		for _, e := range s.Entries {
			if e.User != s.User {
				t.Error("mixed users inside a session")
			}
		}
	}
	if users["u1"] != 4 || users["u2"] != 4 {
		t.Errorf("users = %v", users)
	}
}

func TestBuildFilters(t *testing.T) {
	store := buildStore(
		// Too few entries.
		entry(0, "A", "u1"),
		entry(100, "B", "u1"),
		// Single source (with enough entries).
		entry(0, "A", "u2"),
		entry(100, "A", "u2"),
		entry(200, "A", "u2"),
		entry(300, "A", "u2"),
		entry(400, "A", "u2"),
	)
	ss, stats := Build(store, Config{})
	if len(ss) != 0 {
		t.Fatalf("sessions = %v", ss)
	}
	if stats.DroppedFragments != 2 {
		t.Errorf("dropped = %d", stats.DroppedFragments)
	}
	if stats.AssignedLogs != 0 {
		t.Errorf("assigned = %d", stats.AssignedLogs)
	}
}

func TestBuildCustomConfig(t *testing.T) {
	store := buildStore(
		entry(0, "A", "u1"),
		entry(100, "B", "u1"),
	)
	ss, _ := Build(store, Config{MinEntries: 2, MinSources: 2, MaxGap: logmodel.MillisPerSecond})
	if len(ss) != 1 {
		t.Fatalf("sessions = %d", len(ss))
	}
}

func TestBuildEmptyStore(t *testing.T) {
	ss, stats := Build(buildStore(), Config{})
	if len(ss) != 0 || stats.TotalLogs != 0 || stats.AssignedShare() != 0 {
		t.Errorf("ss = %v stats = %+v", ss, stats)
	}
}

func TestSourceSequence(t *testing.T) {
	s := Session{User: "u", Entries: []logmodel.Entry{
		entry(10, "A", "u"), entry(20, "B", "u"),
	}}
	seq := s.SourceSequence()
	want := []SourceEvent{{Source: "A", Time: 10}, {Source: "B", Time: 20}}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("seq = %v", seq)
	}
}

// TestBuildOnSimulatedDay: session creation over a simulated hospital day
// recovers a plausible session count and assigned share (§4.6: about 4000
// sessions per weekday and 7.5–11% of logs assigned, at full scale).
func TestBuildOnSimulatedDay(t *testing.T) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 31)
	cfg := hospital.DefaultConfig(31)
	cfg.Scale = 0.5
	sim := hospital.NewSimulator(cfg, topo)
	store, stats := sim.GenerateDay(0)
	ss, sstats := Build(store, Config{})
	if sstats.Sessions == 0 {
		t.Fatal("no sessions built")
	}
	// The builder may split or merge relative to the generator, but the
	// order of magnitude must hold.
	lo, hi := stats.Sessions/2, stats.Sessions*3
	if sstats.Sessions < lo || sstats.Sessions > hi {
		t.Errorf("built %d sessions for %d generated", sstats.Sessions, stats.Sessions)
	}
	share := sstats.AssignedShare()
	if share < 0.03 || share > 0.2 {
		t.Errorf("assigned share = %.3f", share)
	}
	// Every session respects the time-order invariant.
	for _, s := range ss {
		for i := 1; i < s.Len(); i++ {
			if s.Entries[i].Time < s.Entries[i-1].Time {
				t.Fatal("session entries out of order")
			}
		}
	}
}
