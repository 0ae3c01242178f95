package depgraph

import (
	"reflect"
	"testing"

	"logscape/internal/core"
	"logscape/internal/hospital"
)

// chain builds A→B→C plus D→B.
func chain() *Graph {
	g := New()
	g.AddEdge("A", "B")
	g.AddEdge("B", "C")
	g.AddEdge("D", "B")
	return g
}

func TestBasicStructure(t *testing.T) {
	g := chain()
	if !reflect.DeepEqual(g.Nodes(), []string{"A", "B", "C", "D"}) {
		t.Errorf("Nodes = %v", g.Nodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if !reflect.DeepEqual(g.RootCauses("A"), []string{"B", "C"}) {
		t.Errorf("RootCauses(A) = %v", g.RootCauses("A"))
	}
	if !reflect.DeepEqual(g.Impact("B"), []string{"A", "D"}) {
		t.Errorf("Impact(B) = %v", g.Impact("B"))
	}
	// Duplicates and self edges collapse.
	g.AddEdge("A", "B")
	g.AddEdge("A", "A")
	if g.NumEdges() != 3 {
		t.Errorf("after dup/self: NumEdges = %d", g.NumEdges())
	}
}

func TestImpactAndRootCauses(t *testing.T) {
	g := chain()
	// C fails → B, and through B both A and D, are affected.
	if got := g.Impact("C"); !reflect.DeepEqual(got, []string{"A", "B", "D"}) {
		t.Errorf("Impact(C) = %v", got)
	}
	if got := g.Impact("A"); len(got) != 0 {
		t.Errorf("Impact(A) = %v", got)
	}
	// A misbehaves → suspects are B and C.
	if got := g.RootCauses("A"); !reflect.DeepEqual(got, []string{"B", "C"}) {
		t.Errorf("RootCauses(A) = %v", got)
	}
	if got := g.RootCauses("C"); len(got) != 0 {
		t.Errorf("RootCauses(C) = %v", got)
	}
}

func TestCriticalityRanking(t *testing.T) {
	g := chain()
	r := g.CriticalityRanking()
	if r[0].Node != "C" || r[0].ImpactSize != 3 {
		t.Errorf("top criticality = %+v", r[0])
	}
	if r[1].Node != "B" || r[1].ImpactSize != 2 {
		t.Errorf("second = %+v", r[1])
	}
	// A and D tie at zero; alphabetical.
	if r[2].Node != "A" || r[3].Node != "D" {
		t.Errorf("tail = %+v, %+v", r[2], r[3])
	}
}

func TestCycles(t *testing.T) {
	g := chain()
	if c, ok := g.Cycles(); ok {
		t.Errorf("acyclic graph reported cycle %v", c)
	}
	g.AddEdge("C", "A") // A→B→C→A
	c, ok := g.Cycles()
	if !ok {
		t.Fatal("cycle not detected")
	}
	if len(c) != 3 {
		t.Errorf("cycle = %v", c)
	}
	// Witness must be an actual cycle.
	for i := range c {
		from, to := c[i], c[(i+1)%len(c)]
		found := false
		for _, s := range g.succ[from] {
			if s == to {
				found = true
			}
		}
		if !found {
			t.Errorf("cycle %v has no edge %s→%s", c, from, to)
		}
	}
}

func TestLayers(t *testing.T) {
	g := chain()
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"C"}, {"B"}, {"A", "D"}}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("Layers = %v", layers)
	}
	g.AddEdge("C", "A")
	if _, err := g.Layers(); err == nil {
		t.Error("cyclic graph should not layer")
	}
}

func TestFromDeps(t *testing.T) {
	deps := core.AppServiceSet{
		{App: "GUI", Group: "SVC"}:     true,
		{App: "GUI", Group: "UNKNOWN"}: true, // skipped
		{App: "Owner", Group: "OWN"}:   true, // self, skipped
	}
	owners := map[string]string{"SVC": "Owner", "OWN": "Owner"}
	g := FromDeps(deps, owners)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !reflect.DeepEqual(g.RootCauses("GUI"), []string{"Owner"}) {
		t.Errorf("RootCauses = %v", g.RootCauses("GUI"))
	}
}

func TestFromPairs(t *testing.T) {
	pairs := core.PairSet{core.MakePair("A", "B"): true}
	g := FromPairs(pairs)
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d (undirected pair → both directions)", g.NumEdges())
	}
}

// TestOnMinedModel exercises the graph on a real mined L3 model: the most
// critical components should be widely-used backend services, and the
// ground-truth graph should be (almost always) layerable.
func TestOnMinedModel(t *testing.T) {
	topo := hospital.GenerateTopology(hospital.DefaultTopologyConfig(), 8)
	owners := map[string]string{}
	for _, g := range topo.Groups {
		owners[g.ID] = g.Owner
	}
	g := FromDeps(topo.TrueAppServicePairs(), owners)
	if len(g.Nodes()) < 30 {
		t.Fatalf("nodes = %d", len(g.Nodes()))
	}
	rank := g.CriticalityRanking()
	if rank[0].ImpactSize < 5 {
		t.Errorf("top component impact = %d, want a widely-used service", rank[0].ImpactSize)
	}
	// GUI applications are pure consumers: nothing depends on them.
	for _, gui := range []string{"DPIMain", "DPIViewer", "WardBoard"} {
		if deps := g.Impact(gui); len(deps) != 0 {
			t.Errorf("dependents of GUI app %s = %v", gui, deps)
		}
	}
}
