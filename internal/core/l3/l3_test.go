package l3

import (
	"reflect"
	"testing"

	"logscape/internal/core"
	"logscape/internal/directory"
	"logscape/internal/hospital"
	"logscape/internal/logmodel"
)

func testDir() *directory.Directory {
	return &directory.Directory{
		Version: 1,
		Groups: []directory.Group{
			{ID: "DPINOTIFICATION", RootURL: "http://notif.hug.local:9999/myurl",
				Services: []directory.Service{{Name: "notify"}}},
			{ID: "UPSRV", RootURL: "http://upsrv.hug.local/up",
				Services: []directory.Service{{Name: "lookup"}}},
			{ID: "UPSRV2", RootURL: "http://upsrv.hug.local/up2",
				Services: []directory.Service{{Name: "lookup"}}},
		},
	}
}

func storeOf(entries ...logmodel.Entry) *logmodel.Store {
	s := logmodel.NewStore(len(entries))
	s.AppendAll(entries)
	s.Sort()
	return s
}

func e(t logmodel.Millis, src, msg string) logmodel.Entry {
	return logmodel.Entry{Time: t, Source: src, Message: msg, Severity: logmodel.SevInfo}
}

func TestMineBasicCitation(t *testing.T) {
	store := storeOf(
		e(10, "DPIFormidoc", "Invoke externalService [fct [notify] server [notif.hug.local:9999/myurl]]"),
		e(20, "DPIFormidoc", "(DPINOTIFICATION) notify( $myparams )"),
		e(30, "OtherApp", "nothing cited here"),
	)
	m := NewMiner(testDir(), Config{})
	res := m.Mine(store, logmodel.TimeRange{})
	deps := res.Dependencies()
	want := core.AppServicePair{App: "DPIFormidoc", Group: "DPINOTIFICATION"}
	if !deps[want] {
		t.Fatalf("deps = %v", deps)
	}
	if len(deps) != 1 {
		t.Errorf("deps = %v", deps)
	}
	ev := res.Evidence[want]
	if ev.Count != 2 || ev.First != 10 || ev.Last != 20 {
		t.Errorf("evidence = %+v", ev)
	}
}

func TestMineStopPatterns(t *testing.T) {
	stops := []directory.StopPattern{{Contains: "serving request "}}
	store := storeOf(
		e(10, "NotifServer", "serving request notify for group DPINOTIFICATION"),
		e(20, "ClientApp", "(DPINOTIFICATION) notify( $x )"),
	)
	// Without stop patterns: both the server's self-citation (inverted)
	// and the client citation appear.
	m := NewMiner(testDir(), Config{})
	deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
	if len(deps) != 2 {
		t.Fatalf("without stops: deps = %v", deps)
	}
	// With the stop pattern the server log is suppressed.
	m2 := NewMiner(testDir(), Config{Stops: stops})
	res := m2.Mine(store, logmodel.TimeRange{})
	deps2 := res.Dependencies()
	if len(deps2) != 1 || !deps2[core.AppServicePair{App: "ClientApp", Group: "DPINOTIFICATION"}] {
		t.Fatalf("with stops: deps = %v", deps2)
	}
	// The suppressed citation is recorded as diagnostics.
	ev := res.Evidence[core.AppServicePair{App: "NotifServer", Group: "DPINOTIFICATION"}]
	if ev == nil || ev.Stopped != 1 || ev.Count != 0 {
		t.Errorf("stopped evidence = %+v", ev)
	}
}

func TestMineWrongNameScenario(t *testing.T) {
	// The §4.8 wrong-name case: the caller cites UPSRV while depending on
	// UPSRV2 — L3 must report UPSRV (the false positive + false negative
	// the paper analyzes), not UPSRV2.
	store := storeOf(
		e(10, "LegacyApp", "calling UPSRV.lookup for case 123456"),
	)
	m := NewMiner(testDir(), Config{})
	deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
	if !deps[core.AppServicePair{App: "LegacyApp", Group: "UPSRV"}] {
		t.Error("UPSRV citation missed")
	}
	if deps[core.AppServicePair{App: "LegacyApp", Group: "UPSRV2"}] {
		t.Error("UPSRV2 must not be inferred from a UPSRV citation")
	}
}

func TestMineMinCitations(t *testing.T) {
	store := storeOf(
		e(10, "App", "(UPSRV) lookup( $x )"),
		e(20, "App", "(UPSRV) lookup( $y )"),
		e(30, "App2", "(UPSRV2) lookup( $z )"),
	)
	m := NewMiner(testDir(), Config{MinCitations: 2})
	deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
	if !deps[core.AppServicePair{App: "App", Group: "UPSRV"}] {
		t.Error("pair with 2 citations missing")
	}
	if deps[core.AppServicePair{App: "App2", Group: "UPSRV2"}] {
		t.Error("pair with 1 citation kept despite MinCitations=2")
	}
}

func TestMineOwnerExclusion(t *testing.T) {
	store := storeOf(
		e(10, "UpServer", "UPSRV lookup t=12ms rc=0"), // self-citation, unstoppable style
		e(20, "Client", "(UPSRV) lookup( $x )"),
	)
	owner := map[string]string{"UPSRV": "UpServer", "UPSRV2": "UpServer"}
	m := NewMiner(testDir(), Config{Owner: owner})
	deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
	if deps[core.AppServicePair{App: "UpServer", Group: "UPSRV"}] {
		t.Error("self-citation kept despite owner exclusion")
	}
	if !deps[core.AppServicePair{App: "Client", Group: "UPSRV"}] {
		t.Error("client citation lost")
	}
	// With SelfCitations the exclusion is disabled.
	m2 := NewMiner(testDir(), Config{Owner: owner, SelfCitations: true})
	deps2 := m2.Mine(store, logmodel.TimeRange{}).Dependencies()
	if !deps2[core.AppServicePair{App: "UpServer", Group: "UPSRV"}] {
		t.Error("SelfCitations did not keep the self-citation")
	}
}

func TestMineTimeRange(t *testing.T) {
	store := storeOf(
		e(10, "A", "(UPSRV) lookup()"),
		e(5000, "B", "(UPSRV2) lookup()"),
	)
	m := NewMiner(testDir(), Config{})
	deps := m.Mine(store, logmodel.TimeRange{Start: 0, End: 1000}).Dependencies()
	if len(deps) != 1 || !deps[core.AppServicePair{App: "A", Group: "UPSRV"}] {
		t.Errorf("range-restricted deps = %v", deps)
	}
}

// TestMineOnSimulatedDay is the integration checkpoint: on a full-scale
// simulated weekday, L3 must recover the vast majority of realized
// dependencies with high precision (figure 8: ratio of true positives
// ≈ 0.93–0.96 with stop patterns).
func TestMineOnSimulatedDay(t *testing.T) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 41)
	sim := hospital.NewSimulator(hospital.DefaultConfig(41), topo)
	store, _ := sim.GenerateDay(0)
	m := NewMiner(topo.Directory(), Config{Stops: hospital.CanonicalStopPatterns()})
	deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
	truth := topo.TrueAppServicePairs()
	tp, fp := 0, 0
	for p := range deps {
		if truth[core.AppServicePair{App: p.App, Group: p.Group}] {
			tp++
		} else {
			fp++
		}
	}
	if tp < 100 {
		t.Errorf("true positives = %d, want > 100 on a weekday", tp)
	}
	ratio := float64(tp) / float64(tp+fp)
	if ratio < 0.85 {
		t.Errorf("precision = %.3f (tp=%d fp=%d), want ≥ 0.85", ratio, tp, fp)
	}
}

// TestScanRecordsCountedCitationTimes: the times a scan records are exactly
// the citations it counts — the scan's evidence does not depend on whether
// times are recorded, each pair gets Count non-decreasing times spanning
// First..Last, and pairs with only stopped citations get no key. With the
// Owner map every stopped message is a self-citation, skipped before the
// stop test; the arm without it keeps them, so stop patterns fire.
func TestScanRecordsCountedCitationTimes(t *testing.T) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 41)
	cfg := hospital.DefaultConfig(41)
	cfg.Scale = 0.1
	store, _ := hospital.NewSimulator(cfg, topo).GenerateDay(0)
	es := store.Entries()
	owner := make(map[string]string, len(topo.Groups))
	for _, g := range topo.Groups {
		owner[g.ID] = g.Owner
	}
	for _, tc := range []struct {
		name  string
		owner map[string]string
	}{{"owner", owner}, {"no owner", nil}} {
		m := NewMiner(topo.Directory(), Config{Stops: hospital.CanonicalStopPatterns(), Owner: tc.owner})
		times := make(map[core.AppServicePair][]logmodel.Millis)
		ev := m.Scan(es, times)
		if want := m.Scan(es, nil); !reflect.DeepEqual(ev, want) {
			t.Fatalf("%s: recording times changed the scan's evidence", tc.name)
		}
		counted, stoppedOnly := 0, 0
		for p, e := range ev {
			ts := times[p]
			if len(ts) != e.Count {
				t.Errorf("%s, %v: %d times for Count %d", tc.name, p, len(ts), e.Count)
				continue
			}
			if e.Count == 0 {
				stoppedOnly++
				continue
			}
			counted++
			if ts[0] != e.First || ts[len(ts)-1] != e.Last {
				t.Errorf("%s, %v: times span %d..%d, evidence %d..%d", tc.name, p, ts[0], ts[len(ts)-1], e.First, e.Last)
			}
			for i := 1; i < len(ts); i++ {
				if ts[i] < ts[i-1] {
					t.Errorf("%s, %v: times decrease at %d", tc.name, p, i)
					break
				}
			}
		}
		if len(times) != counted {
			t.Errorf("%s: times holds %d pairs, %d were counted", tc.name, len(times), counted)
		}
		if counted == 0 || (tc.owner == nil && stoppedOnly == 0) {
			t.Fatalf("%s: %d counted and %d stopped-only pairs; the test wants both kinds", tc.name, counted, stoppedOnly)
		}
	}
}
