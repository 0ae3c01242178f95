package hospital

import (
	"reflect"
	"testing"

	"logscape/internal/directory"
)

func testTopology(t *testing.T) *Topology {
	t.Helper()
	return GenerateTopology(DefaultTopologyConfig(), 1)
}

func TestTopologyCardinalities(t *testing.T) {
	topo := testTopology(t)
	if got := len(topo.Apps); got != 54 {
		t.Errorf("apps = %d, want 54 (paper reference model)", got)
	}
	if got := len(topo.Groups); got != 47 {
		t.Errorf("groups = %d, want 47", got)
	}
	if got := len(topo.Edges); got != 177 {
		t.Errorf("edges = %d, want 177", got)
	}
	appPairs := topo.TrueAppPairs()
	// The paper has 178 dependent app pairs for 177 app→service deps; ours
	// must land in the same neighborhood (ownership is not exactly
	// one-to-one).
	if n := len(appPairs); n < 150 || n > 178 {
		t.Errorf("app pairs = %d, want ≈ 170", n)
	}
	if n := len(topo.TrueAppServicePairs()); n != 177 {
		t.Errorf("app-service pairs = %d", n)
	}
}

func TestTopologyDeterministic(t *testing.T) {
	a := GenerateTopology(DefaultTopologyConfig(), 42)
	b := GenerateTopology(DefaultTopologyConfig(), 42)
	if !reflect.DeepEqual(a.Apps, b.Apps) {
		t.Error("apps differ between runs with the same seed")
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Error("edges differ between runs with the same seed")
	}
	c := GenerateTopology(DefaultTopologyConfig(), 43)
	if reflect.DeepEqual(a.Edges, c.Edges) {
		t.Error("different seeds produced identical edges")
	}
}

func TestTopologyEdgeValidity(t *testing.T) {
	topo := testTopology(t)
	seen := make(map[AppServicePair]bool)
	for _, e := range topo.Edges {
		if topo.App(e.Caller) == nil {
			t.Fatalf("edge caller %q is not an app", e.Caller)
		}
		g := topo.Group(e.Group)
		if g == nil {
			t.Fatalf("edge group %q does not exist", e.Group)
		}
		if g.Owner == e.Caller {
			t.Errorf("self edge: %s → %s", e.Caller, e.Group)
		}
		p := AppServicePair{App: e.Caller, Group: e.Group}
		if seen[p] {
			t.Errorf("duplicate edge %v", p)
		}
		seen[p] = true
		if e.Weight <= 0 {
			t.Errorf("edge %v has weight %v", p, e.Weight)
		}
	}
}

func TestTopologyPhenomenaCardinalities(t *testing.T) {
	topo := testTopology(t)
	ph := topo.Phenomena
	if got := len(ph.RareEdges); got != 6 {
		t.Errorf("rare edges = %d, want 6 (§4.8)", got)
	}
	if got := len(ph.UnloggedEdges); got != 7 {
		t.Errorf("unlogged edges = %d, want 7", got)
	}
	if got := len(ph.WrongNameEdges); got != 3 {
		t.Errorf("wrong-name edges = %d, want 3", got)
	}
	if got := len(ph.SimilarIDPairs); got != 5 {
		t.Errorf("similar-id pairs = %d, want 5", got)
	}
	if got := len(ph.CoincidencePairs); got != 7 {
		t.Errorf("coincidence pairs = %d, want 7", got)
	}
	if got := len(ph.StackTracePairs); got != 5 {
		t.Errorf("stack-trace pairs = %d, want 5", got)
	}
	if got := len(ph.InvertedApps); got != 2 {
		t.Errorf("inverted apps = %d, want 2", got)
	}
	if got := len(ph.StoppableApps); got != 22 {
		t.Errorf("stoppable apps = %d, want 22 (24 total − 2 surviving)", got)
	}
}

func TestPhenomenaConsistency(t *testing.T) {
	topo := testTopology(t)
	ph := topo.Phenomena
	truth := topo.TrueAppServicePairs()
	// Rare, unlogged and wrong-name pairs must be real dependencies.
	for _, p := range ph.RareEdges {
		if !truth[p] {
			t.Errorf("rare edge %v not in ground truth", p)
		}
	}
	for _, p := range ph.UnloggedEdges {
		if !truth[p] {
			t.Errorf("unlogged edge %v not in ground truth", p)
		}
	}
	for p, wrong := range ph.WrongNameEdges {
		if !truth[p] {
			t.Errorf("wrong-name edge %v not in ground truth", p)
		}
		if topo.Group(wrong) == nil {
			t.Errorf("wrong id %q does not exist in directory", wrong)
		}
	}
	// Error-citation pairs must NOT be real dependencies (they are the
	// false positives of figure 8).
	for _, p := range ph.SimilarIDPairs {
		if truth[p] {
			t.Errorf("similar-id pair %v is a real dependency", p)
		}
	}
	for _, p := range ph.CoincidencePairs {
		if truth[p] {
			t.Errorf("coincidence pair %v is a real dependency", p)
		}
	}
	for _, p := range ph.StackTracePairs {
		if truth[p] {
			t.Errorf("stack-trace pair %v is a real dependency", p)
		}
	}
	// Inverted apps must cite their own group in an unstoppable style.
	for _, name := range ph.InvertedApps {
		a := topo.App(name)
		if a.ServingStyle < numStoppableServingStyles {
			t.Errorf("inverted app %s has stoppable style %d", name, a.ServingStyle)
		}
		if len(topo.GroupsOwnedBy(name)) == 0 {
			t.Errorf("inverted app %s owns no group", name)
		}
	}
	for _, name := range ph.StoppableApps {
		a := topo.App(name)
		if a.ServingStyle < 0 || a.ServingStyle >= numStoppableServingStyles {
			t.Errorf("stoppable app %s has style %d", name, a.ServingStyle)
		}
	}
}

func TestTopologyDirectory(t *testing.T) {
	topo := testTopology(t)
	d := topo.Directory()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 47 {
		t.Errorf("directory groups = %d", len(d.Groups))
	}
	listed := make(map[string]bool)
	for _, g := range d.Groups {
		listed[g.ID] = true
	}
	// Versioned ids must both exist.
	for _, base := range versionedGroupBases {
		if !listed[base] || !listed[base+"2"] {
			t.Errorf("versioned pair %s/%s2 missing", base, base)
		}
	}
	// Legacy codenames must exist and be in the surname pool.
	for _, id := range legacyGroupIDs {
		if !listed[id] {
			t.Errorf("legacy group %s missing", id)
		}
		found := false
		for _, s := range patientSurnames {
			if s == id {
				found = true
			}
		}
		if !found {
			t.Errorf("legacy id %s not in surname pool", id)
		}
	}
}

func TestFigure1PairExists(t *testing.T) {
	topo := testTopology(t)
	if !topo.hasEdge(AppServicePair{App: "DPIFormidoc", Group: "DPIPUBLICATION"}) {
		t.Fatal("flavor edge DPIFormidoc → DPIPUBLICATION missing")
	}
	if !topo.TrueAppPairs()[MakePair("DPIFormidoc", "DPIPublication")] {
		t.Error("app pair (DPIFormidoc, DPIPublication) not in reference model")
	}
}

func TestMakePair(t *testing.T) {
	if p := MakePair("B", "A"); p.A != "A" || p.B != "B" {
		t.Errorf("MakePair = %+v", p)
	}
	if MakePair("A", "B") != MakePair("B", "A") {
		t.Error("MakePair not symmetric")
	}
}

func TestAppKindString(t *testing.T) {
	if KindGUI.String() != "gui" || KindService.String() != "service" || KindBatch.String() != "batch" {
		t.Error("kind strings")
	}
	if AppKind(9).String() != "kind(9)" {
		t.Error("unknown kind string")
	}
}

func TestStopPatternsCoverStoppableStyles(t *testing.T) {
	stops := CanonicalStopPatterns()
	if len(stops) != 10 {
		t.Fatalf("stop patterns = %d, want 10 (§4.8)", len(stops))
	}
	rng := newTestRand()
	matchAny := func(msg string) bool {
		for _, p := range stops {
			if p.Matches("AnyApp", msg) {
				return true
			}
		}
		return false
	}
	for style := 0; style < numStoppableServingStyles; style++ {
		msg := servingMessage(style, "SOMEGROUP", "getRecord", rng)
		if !matchAny(msg) {
			t.Errorf("style %d message %q not covered by stop patterns", style, msg)
		}
	}
	for style := numStoppableServingStyles; style < numStoppableServingStyles+numUnstoppableServingStyles; style++ {
		msg := servingMessage(style, "SOMEGROUP", "getRecord", rng)
		if matchAny(msg) {
			t.Errorf("style %d message %q unexpectedly covered", style, msg)
		}
	}
	// Citation-free serving logs are irrelevant to stop patterns but must
	// not cite the group.
	msg := servingMessage(-1, "SOMEGROUP", "getRecord", rng)
	if directory.StopPattern(stops[0]).Matches("X", msg) {
		t.Errorf("style -1 message matched: %q", msg)
	}
}

func TestInvokeMessagesCite(t *testing.T) {
	rng := newTestRand()
	for style := 0; style < numInvokeStyles; style++ {
		msg := invokeMessage(style, "MYGROUP", "getRecord", "host:8000/mygroup", rng)
		citesID := contains(msg, "MYGROUP")
		citesURL := contains(msg, "host:8000/mygroup")
		if !citesID && !citesURL {
			t.Errorf("style %d message %q cites nothing", style, msg)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
