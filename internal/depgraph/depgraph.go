package depgraph

import (
	"fmt"
	"sort"

	"logscape/internal/core"
)

// Graph is a directed dependency graph: an edge A → B means "A depends on
// B" (A invokes B's services).
type Graph struct {
	// succ[a] lists the components a depends on.
	succ map[string][]string
	// pred[b] lists the components depending on b.
	pred map[string][]string
	// nodes is the sorted node set.
	nodes []string
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{succ: make(map[string][]string), pred: make(map[string][]string)}
}

// FromDeps builds a graph from an application→service model, resolving
// each service group to its owning application via owners. Dependencies on
// unknown groups and self-dependencies are skipped.
func FromDeps(deps core.AppServiceSet, owners map[string]string) *Graph {
	g := New()
	for d := range deps {
		owner, ok := owners[d.Group]
		if !ok || owner == d.App {
			continue
		}
		g.AddEdge(d.App, owner)
	}
	return g
}

// FromPairs builds an *undirected* approximation from a pair model: each
// pair contributes edges in both directions (approaches L1/L2 do not
// discover direction; see §5 of the paper).
func FromPairs(pairs core.PairSet) *Graph {
	g := New()
	for p := range pairs {
		g.AddEdge(p.A, p.B)
		g.AddEdge(p.B, p.A)
	}
	return g
}

// AddEdge records "from depends on to". Duplicate edges collapse.
func (g *Graph) AddEdge(from, to string) {
	if from == to {
		return
	}
	for _, s := range g.succ[from] {
		if s == to {
			return
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.nodes = nil // invalidate cache
}

// Nodes returns the sorted node set.
func (g *Graph) Nodes() []string {
	if g.nodes == nil {
		seen := make(map[string]bool)
		for n := range g.succ {
			seen[n] = true
		}
		for n := range g.pred {
			seen[n] = true
		}
		g.nodes = make([]string, 0, len(seen))
		for n := range seen {
			g.nodes = append(g.nodes, n)
		}
		sort.Strings(g.nodes)
	}
	return g.nodes
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ss := range g.succ {
		n += len(ss)
	}
	return n
}

// Impact returns every component transitively depending on node — the set
// affected when node fails (impact prediction). The node itself is not
// included. The result is sorted.
func (g *Graph) Impact(node string) []string {
	return g.closure(node, g.pred)
}

// RootCauses returns every component node transitively depends on — the
// candidate set when node misbehaves (root cause analysis). Sorted.
func (g *Graph) RootCauses(node string) []string {
	return g.closure(node, g.succ)
}

// closure walks edges from start and returns all reachable nodes, sorted.
func (g *Graph) closure(start string, edges map[string][]string) []string {
	seen := map[string]bool{start: true}
	stack := append([]string(nil), edges[start]...)
	var out []string
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		stack = append(stack, edges[n]...)
	}
	sort.Strings(out)
	return out
}

// CriticalityRanking orders the nodes by the size of their impact set,
// descending — the components whose availability matters most (§1.1:
// "service availability requirements determination"). Ties break
// alphabetically.
func (g *Graph) CriticalityRanking() []Criticality {
	out := make([]Criticality, 0, len(g.Nodes()))
	for _, n := range g.Nodes() {
		out = append(out, Criticality{Node: n, ImpactSize: len(g.Impact(n))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ImpactSize != out[j].ImpactSize {
			return out[i].ImpactSize > out[j].ImpactSize
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Criticality is one entry of the criticality ranking.
type Criticality struct {
	Node       string
	ImpactSize int
}

// Cycles reports whether the graph contains a dependency cycle and returns
// one witness cycle (as a node sequence) if so. Mutual or circular
// dependencies are architectural smells worth surfacing.
func (g *Graph) Cycles() ([]string, bool) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	parent := make(map[string]string)
	var cycle []string
	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = gray
		// Deterministic order.
		next := append([]string(nil), g.succ[n]...)
		sort.Strings(next)
		for _, m := range next {
			switch color[m] {
			case white:
				parent[m] = n
				if dfs(m) {
					return true
				}
			case gray:
				// Reconstruct the cycle m → ... → n → m.
				cycle = []string{m}
				for x := n; x != m; x = parent[x] {
					cycle = append(cycle, x)
				}
				// Reverse to dependency order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}
	for _, n := range g.Nodes() {
		if color[n] == white && dfs(n) {
			return cycle, true
		}
	}
	return nil, false
}

// Layers returns a topological layering of an acyclic graph: layer 0 holds
// the components depending on nothing (pure providers), each further layer
// depends only on earlier ones. It returns an error when the graph has a
// cycle.
func (g *Graph) Layers() ([][]string, error) {
	if c, ok := g.Cycles(); ok {
		return nil, fmt.Errorf("depgraph: dependency cycle: %v", c)
	}
	depth := make(map[string]int)
	var depthOf func(n string) int
	depthOf = func(n string) int {
		if d, ok := depth[n]; ok {
			return d
		}
		d := 0
		for _, m := range g.succ[n] {
			if dd := depthOf(m) + 1; dd > d {
				d = dd
			}
		}
		depth[n] = d
		return d
	}
	maxDepth := 0
	for _, n := range g.Nodes() {
		if d := depthOf(n); d > maxDepth {
			maxDepth = d
		}
	}
	layers := make([][]string, maxDepth+1)
	for _, n := range g.Nodes() {
		layers[depth[n]] = append(layers[depth[n]], n)
	}
	for _, l := range layers {
		sort.Strings(l)
	}
	return layers, nil
}
