package hospital

import (
	"strings"
	"testing"

	"logscape/internal/core/l3"
	"logscape/internal/directory"
	"logscape/internal/logmodel"
	"logscape/internal/textproc"
)

func TestInvokeMessagesWordBounded(t *testing.T) {
	// Every invocation style must cite the group id word-bounded (or the
	// URL fragment), so the citation scanner finds it reliably.
	rng := newTestRand()
	for style := 0; style < numInvokeStyles; style++ {
		msg := invokeMessage(style, "UPSRV", "lookup", "host:8001/upsrv", rng)
		if !textproc.HasWordBounded(msg, "UPSRV") && !strings.Contains(msg, "host:8001/upsrv") {
			t.Errorf("style %d: %q has no bounded citation", style, msg)
		}
		// The id must not fuse with neighboring word characters.
		if strings.Contains(msg, "UPSRVl") || strings.Contains(msg, "lUPSRV") {
			t.Errorf("style %d: %q fuses the id", style, msg)
		}
	}
}

func TestServingMessagesCiteOwnGroup(t *testing.T) {
	rng := newTestRand()
	total := numStoppableServingStyles + numUnstoppableServingStyles
	for style := 0; style < total; style++ {
		msg := servingMessage(style, "MYGRP", "getRecord", rng)
		if !strings.Contains(msg, "MYGRP") {
			t.Errorf("style %d: %q does not cite the group", style, msg)
		}
	}
	// The citation-free variant must not.
	if msg := servingMessage(-1, "MYGRP", "getRecord", rng); strings.Contains(msg, "MYGRP") {
		t.Errorf("style -1 cites: %q", msg)
	}
}

func TestStackTraceMessageCitesBoth(t *testing.T) {
	msg := stackTraceMessage("REALGRP", "getRecord", "TRANSGRP", "host:8002/transgrp")
	if !textproc.HasWordBounded(msg, "REALGRP") {
		t.Errorf("failed group not cited: %q", msg)
	}
	if !textproc.HasWordBounded(msg, "TRANSGRP") {
		t.Errorf("transitive group not cited: %q", msg)
	}
	if !strings.Contains(msg, "host:8002/transgrp") {
		t.Errorf("URL fragment missing: %q", msg)
	}
}

func TestPatientMessagesFormat(t *testing.T) {
	rng := newTestRand()
	msg := patientMessage("MARTIN", "Jean", rng)
	if !textproc.HasWordBounded(msg, "MARTIN") {
		t.Errorf("surname not word-bounded: %q", msg)
	}
	if !strings.Contains(msg, "PID") {
		t.Errorf("no PID: %q", msg)
	}
	if m := patientIDMessage(rng); !strings.Contains(m, "PID") {
		t.Errorf("id message: %q", m)
	}
}

func TestNoiseMessagesNeverCite(t *testing.T) {
	// Background noise must not collide with any directory id or URL of a
	// generated topology.
	topo := GenerateTopology(DefaultTopologyConfig(), 51)
	scanner := directory.NewCitationScanner(topo.Directory(), nil)
	rng := newTestRand()
	for i := 0; i < 2000; i++ {
		for _, msg := range []string{noiseMessage(rng), guiActionMessage(rng), completionMessage("getRecord", rng)} {
			if c := scanner.Citations(msg); c != nil {
				t.Fatalf("noise message %q cites %v", msg, c)
			}
		}
	}
}

func TestOrganicPatientNamesNeverCite(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 52)
	scanner := directory.NewCitationScanner(topo.Directory(), nil)
	rng := newTestRand()
	for i := 0; i < 2000; i++ {
		msg := patientMessage(nonLegacySurname(rng), firstNames[rng.Intn(len(firstNames))], rng)
		if c := scanner.Citations(msg); c != nil {
			t.Fatalf("organic patient message %q cites %v", msg, c)
		}
	}
}

// TestUnloggedEdgesInvisibleToL3: the simulator must not leak citations for
// unlogged edges through any code path (the §4.8 "not logged" FNs).
func TestUnloggedEdgesInvisibleToL3(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 53)
	sim := NewSimulator(DefaultConfig(53), topo)
	m := l3.NewMiner(topo.Directory(), l3.Config{Stops: CanonicalStopPatterns()})
	for d := 0; d < 3; d++ {
		store, _ := sim.GenerateDay(d)
		deps := m.Mine(store, logmodel.TimeRange{}).Dependencies()
		for _, p := range topo.Phenomena.UnloggedEdges {
			if deps[p] {
				t.Fatalf("day %d: unlogged edge %v detected", d, p)
			}
		}
		for p := range topo.Phenomena.WrongNameEdges {
			if deps[p] {
				t.Fatalf("day %d: wrong-name edge %v detected under its true id", d, p)
			}
		}
	}
}

func TestWeekdayOnlyGUIsIdleOnWeekend(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 54)
	sim := NewSimulator(DefaultConfig(54), topo)
	store, _ := sim.GenerateDay(4) // Saturday
	counts := make(map[string]int)
	for _, e := range store.Entries() {
		counts[e.Source]++
	}
	for name := range weekdayOnlyGUI {
		// Only residual background noise may remain (no sessions).
		if counts[name] > 100 {
			t.Errorf("weekday-only app %s has %d weekend logs", name, counts[name])
		}
	}
}

func TestCompanionGUIFixedAndDistinct(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 55)
	sim := NewSimulator(DefaultConfig(55), topo)
	for _, name := range guiAppNames {
		gui := topo.App(name)
		c1 := sim.companionGUI(gui, false)
		c2 := sim.companionGUI(gui, false)
		if c1 != c2 {
			t.Errorf("companion of %s not fixed", name)
		}
		if c1 == gui {
			t.Errorf("companion of %s is itself", name)
		}
		we := sim.companionGUI(gui, true)
		if weekdayOnlyGUI[we.Name] {
			t.Errorf("weekend companion of %s is a weekday-only app (%s)", name, we.Name)
		}
	}
}

func TestViewsStructure(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 56)
	sim := NewSimulator(DefaultConfig(56), topo)
	for _, name := range guiAppNames {
		views := sim.views[name]
		if len(views) == 0 {
			t.Errorf("no views for %s", name)
			continue
		}
		for _, v := range views {
			if len(v) < 2 || len(v) > 3 {
				t.Errorf("%s view size %d", name, len(v))
			}
			seen := map[*Edge]bool{}
			for _, e := range v {
				if seen[e] {
					t.Errorf("%s view has duplicate edge", name)
				}
				seen[e] = true
				if e.Rare {
					t.Errorf("%s view contains a rare edge", name)
				}
				if e.Caller != name {
					t.Errorf("%s view contains foreign edge of %s", name, e.Caller)
				}
			}
		}
	}
}

func TestWeekdaySlot(t *testing.T) {
	topo := GenerateTopology(DefaultTopologyConfig(), 57)
	sim := NewSimulator(DefaultConfig(57), topo)
	// Days 0..6 are Tue..Mon: slots 0,1,2,3,-1,-1,4.
	want := []int{0, 1, 2, 3, -1, -1, 4}
	for d, w := range want {
		wd := sim.DayDate(d).Weekday()
		if got := weekdaySlot(wd); got != w {
			t.Errorf("day %d (%v): slot = %d, want %d", d, wd, got, w)
		}
	}
}
