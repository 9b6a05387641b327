package core

import (
	"slices"
	"testing"
	"testing/quick"

	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// algoCase is one implementation under test with a uniform signature.
type algoCase struct {
	name string
	run  func(*graph.Graph, Config) Result
	// hops marks the HopCount rule: its labels are hop distances from the
	// max-degree vertex, not a partition.
	hops bool
}

// correct reports whether labels are a's answer on g: the sequential
// oracle's partition, or for hop counts exactly the BFS distances.
func (a algoCase) correct(g *graph.Graph, labels []uint32) bool {
	if a.hops {
		return slices.Equal(labels, bfsOracle(g, g.MaxDegreeVertex()))
	}
	return Equivalent(labels, SeqCC(g))
}

// propagateCase adapts Propagate to the table signature.
func propagateCase(rule Rule, unified bool) func(*graph.Graph, Config) Result {
	return func(g *graph.Graph, cfg Config) Result { return Propagate(g, cfg, rule, unified) }
}

// algorithmsUnderTest enumerates every implementation for the property,
// cancellation and chaos tests, including the engine's synchronous CC and
// its hop-count rule.
var algorithmsUnderTest = []algoCase{
	{name: "thrifty", run: Thrifty},
	{name: "dolp", run: DOLP},
	{name: "dolp-unified", run: DOLPUnified},
	{name: "lp", run: LP},
	{name: "cc-sync", run: propagateCase(MinLabel, false)},
	{name: "hops", run: propagateCase(HopCount, true), hops: true},
	{name: "hops-sync", run: propagateCase(HopCount, false), hops: true},
	{name: "sv", run: ShiloachVishkin},
	{name: "afforest", run: Afforest},
	{name: "jt", run: JayantiTarjan},
	{name: "bfs", run: BFSCC},
	{name: "connectit-kout", run: ConnectItKOut},
	{name: "connectit-bfs", run: ConnectItBFS},
}

// bfsOracle computes hop distances from root sequentially; vertices no path
// reaches hold Unreached.
func bfsOracle(g *graph.Graph, root uint32) []uint32 {
	dist := make([]uint32, g.NumVertices())
	for i := range dist {
		dist[i] = Unreached
	}
	dist[root] = 0
	queue := []uint32{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// buildRandom converts quick's raw bytes into a graph over up to 256
// vertices: each byte pair is one edge. Duplicate edges and self-loops are
// kept — algorithms must tolerate them.
func buildRandom(raw []byte) (*graph.Graph, bool) {
	const n = 256
	var edges []graph.Edge
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, graph.Edge{U: uint32(raw[i]), V: uint32(raw[i+1])})
	}
	g, err := graph.BuildUndirected(edges, graph.WithNumVertices(n))
	if err != nil {
		return nil, false
	}
	return g, true
}

// TestQuickAllAlgorithmsAgreeWithOracle is the repository's central
// property: on arbitrary random multigraphs, every algorithm's partition
// equals the sequential oracle's (hop counts equal BFS distances,
// unreachable vertices included), and the empty graph yields no labels.
func TestQuickAllAlgorithmsAgreeWithOracle(t *testing.T) {
	empty := mustGraph(gen.Empty(0))
	for _, a := range algorithmsUnderTest {
		t.Run(a.name, func(t *testing.T) {
			if res := a.run(empty, Config{}); len(res.Labels) != 0 {
				t.Fatalf("empty graph: %d labels", len(res.Labels))
			}
			f := func(raw []byte) bool {
				g, ok := buildRandom(raw)
				if !ok {
					return false
				}
				return a.correct(g, a.run(g, Config{}).Labels)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuickThriftyHubZero: on arbitrary graphs with at least one edge, the
// max-degree vertex's component converges to label 0 and no other vertex
// holds 0.
func TestQuickThriftyHubZero(t *testing.T) {
	f := func(raw []byte) bool {
		g, ok := buildRandom(raw)
		if !ok || g.NumDirectedEdges() == 0 {
			return true
		}
		res := Thrifty(g, Config{})
		oracle := SeqCC(g)
		hubComp := oracle[g.MaxDegreeVertex()]
		for v, l := range res.Labels {
			if (l == 0) != (oracle[v] == hubComp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNormalizeIdempotent: Normalize(Normalize(x)) == Normalize(x),
// and Normalize preserves the partition.
func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(labels []uint32) bool {
		n1 := Normalize(labels)
		n2 := Normalize(n1)
		for i := range n1 {
			if n1[i] != n2[i] {
				return false
			}
		}
		return Equivalent(labels, n1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalentIsEquivalenceRelation: symmetry and reflexivity of the
// partition comparison on random label vectors.
func TestQuickEquivalentIsEquivalenceRelation(t *testing.T) {
	f := func(a, b []uint8) bool {
		// Equal-length vectors in a small label space so collisions happen.
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		la := make([]uint32, len(a))
		lb := make([]uint32, len(b))
		for i := range a {
			la[i] = uint32(a[i] % 4)
			lb[i] = uint32(b[i] % 4)
		}
		if !Equivalent(la, la) {
			return false
		}
		return Equivalent(la, lb) == Equivalent(lb, la)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIterationCountsSane: no algorithm exceeds the default safety cap
// on random graphs, and label-propagation variants never need more
// iterations than vertices.
func TestQuickIterationCountsSane(t *testing.T) {
	f := func(raw []byte) bool {
		g, ok := buildRandom(raw)
		if !ok {
			return false
		}
		for _, a := range algorithmsUnderTest {
			res := a.run(g, Config{})
			if res.Iterations > 2*g.NumVertices()+16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
