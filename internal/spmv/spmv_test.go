// Package spmv_test holds the contract tests of the generic SpMV-style
// propagation engine (§VII) whose programs are now core.Propagate under the
// MinLabel and HopCount rules: async means one unified labels array, sync
// means two arrays and a sync pass. The directory has no non-test code.
package spmv_test

import (
	"testing"
	"testing/quick"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
)

func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// cc runs connected components on one array (async) or two (sync).
func cc(g *graph.Graph, async bool) core.Result {
	return core.Propagate(g, core.Config{}, core.MinLabel, async)
}

// hopDistance runs BFS hop distance from root on one array or two.
func hopDistance(g *graph.Graph, root uint32, async bool) core.Result {
	return core.Propagate(g, core.Config{PlantVertex: root, PlantVertexSet: true}, core.HopCount, async)
}

// bfsOracle computes hop distances sequentially.
func bfsOracle(g *graph.Graph, root uint32) []uint32 {
	n := g.NumVertices()
	dist := make([]uint32, n)
	for i := range dist {
		dist[i] = core.Unreached
	}
	dist[root] = 0
	queue := []uint32{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == core.Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

func testGraphs() map[string]*graph.Graph {
	// loophub: the max-degree vertex's only edge is a self-loop, so the
	// initial push activates nothing — regression fixture for the
	// do-while guarantee (at least one full sweep must still run).
	loopHub := mustGraph(graph.BuildUndirected(
		[]graph.Edge{{U: 0, V: 0}, {U: 1, V: 2}}, graph.WithNumVertices(4)))
	return map[string]*graph.Graph{
		"rmat":    mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 4))),
		"path":    mustGraph(gen.Path(700)),
		"star":    mustGraph(gen.Star(500)),
		"cliques": mustGraph(gen.Components(4, 7)),
		"web":     mustGraph(gen.Web(gen.WebConfig{CoreScale: 8, CoreEdgeFactor: 6, NumChains: 6, ChainLength: 48, Seed: 2})),
		"grid":    mustGraph(gen.Grid(gen.GridConfig{Rows: 30, Cols: 30})),
		"loophub": loopHub,
	}
}

func TestCCMatchesOracleBothModes(t *testing.T) {
	for name, g := range testGraphs() {
		oracle := core.SeqCC(g)
		for _, async := range []bool{false, true} {
			res := cc(g, async)
			if !core.Equivalent(res.Labels, oracle) {
				t.Fatalf("%s async=%v: wrong partition", name, async)
			}
		}
	}
}

func TestHopDistanceMatchesBFS(t *testing.T) {
	for name, g := range testGraphs() {
		if g.NumVertices() == 0 {
			continue
		}
		root := g.MaxDegreeVertex()
		want := bfsOracle(g, root)
		for _, async := range []bool{false, true} {
			res := hopDistance(g, root, async)
			for v := range want {
				if res.Labels[v] != want[v] {
					t.Fatalf("%s async=%v: dist[%d] = %d, want %d",
						name, async, v, res.Labels[v], want[v])
				}
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(gen.Empty(0))
	for _, async := range []bool{false, true} {
		res := cc(g, async)
		if len(res.Labels) != 0 || res.Iterations != 0 {
			t.Fatalf("empty async=%v: %+v", async, res)
		}
	}
}

func TestSeedsAndFloorSemantics(t *testing.T) {
	// A path seeded at one end: the floor is the seed's value 0, which only
	// the seed holds, so every other vertex keeps propagating until it has
	// its exact distance.
	g := mustGraph(gen.Path(10))
	for _, async := range []bool{false, true} {
		res := hopDistance(g, 9, async)
		for v := 0; v < 10; v++ {
			if res.Labels[v] != uint32(9-v) {
				t.Fatalf("async=%v: dist[%d] = %d, want %d", async, v, res.Labels[v], 9-v)
			}
		}
	}
}

// TestQuickEngineAgreesWithOracles hammers both rules on random graphs.
func TestQuickEngineAgreesWithOracles(t *testing.T) {
	f := func(raw []byte, async bool) bool {
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: uint32(raw[i] % 96), V: uint32(raw[i+1] % 96)})
		}
		g, err := graph.BuildUndirected(edges, graph.WithNumVertices(96))
		if err != nil {
			return false
		}
		if !core.Equivalent(cc(g, async).Labels, core.SeqCC(g)) {
			return false
		}
		root := g.MaxDegreeVertex()
		want := bfsOracle(g, root)
		got := hopDistance(g, root, async).Labels
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
