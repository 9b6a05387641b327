package core

import (
	"slices"
	"testing"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// mustGraph adapts a generator's (graph, error) pair; generation failures
// are programming errors in the tests themselves.
func mustGraph(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func TestSeqCCLabelsAreComponentMinima(t *testing.T) {
	g := mustGraph(gen.Components(4, 5))
	labels := SeqCC(g)
	for v, l := range labels {
		if int(l) != (v/5)*5 {
			t.Fatalf("vertex %d labelled %d, want %d", v, l, (v/5)*5)
		}
	}
}

func TestNormalizeAndEquivalent(t *testing.T) {
	a := []uint32{7, 7, 3, 3, 9}
	b := []uint32{0, 0, 1, 1, 2}
	if !Equivalent(a, b) {
		t.Fatal("same partition judged different")
	}
	c := []uint32{0, 1, 1, 1, 2}
	if Equivalent(a, c) {
		t.Fatal("different partitions judged equal")
	}
	if Equivalent(a, []uint32{1, 2}) {
		t.Fatal("length mismatch judged equal")
	}
	n := Normalize(a)
	want := []uint32{0, 0, 2, 2, 4}
	for i := range want {
		if n[i] != want[i] {
			t.Fatalf("Normalize = %v, want %v", n, want)
		}
	}
}

// TestThriftyGiantConvergesToZero: the defining property of Zero Planting —
// the component containing the max-degree vertex ends with label 0.
func TestThriftyGiantConvergesToZero(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 8, 3)))
	res := Thrifty(g, Config{})
	hub := g.MaxDegreeVertex()
	if res.Labels[hub] != 0 {
		t.Fatalf("hub label = %d, want 0", res.Labels[hub])
	}
	// Every vertex labelled 0 must be in the hub's component and vice versa.
	oracle := SeqCC(g)
	for v, l := range res.Labels {
		inHub := oracle[v] == oracle[hub]
		if (l == 0) != inHub {
			t.Fatalf("vertex %d: label %d, in-hub-component=%v", v, l, inHub)
		}
	}
}

// TestThriftySmallComponentLabels: vertices outside the giant component get
// minID+1 labels (the v+1 label space of Zero Planting).
func TestThriftySmallComponentLabels(t *testing.T) {
	g := mustGraph(gen.Components(3, 4)) // cliques {0..3},{4..7},{8..11}
	res := Thrifty(g, Config{})
	// Hub (max degree, ties → smallest id) is vertex 0; its clique gets 0.
	for v := 0; v < 4; v++ {
		if res.Labels[v] != 0 {
			t.Fatalf("giant-clique vertex %d label %d", v, res.Labels[v])
		}
	}
	for v := 4; v < 8; v++ {
		if res.Labels[v] != 5 { // min id 4, +1 label space
			t.Fatalf("vertex %d label %d, want 5", v, res.Labels[v])
		}
	}
	for v := 8; v < 12; v++ {
		if res.Labels[v] != 9 {
			t.Fatalf("vertex %d label %d, want 9", v, res.Labels[v])
		}
	}
}

// TestThriftyInitialPushIsOneIteration: iteration accounting per §V-C.
func TestThriftyInitialPushIsOneIteration(t *testing.T) {
	g := mustGraph(gen.Star(100))
	tr := &counters.Trace{}
	res := Thrifty(g, Config{Trace: tr})
	if len(tr.Iters) != res.Iterations {
		t.Fatalf("trace has %d records for %d iterations", len(tr.Iters), res.Iterations)
	}
	if tr.Iters[0].Kind != counters.KindInitialPush {
		t.Fatalf("iteration 0 kind = %s, want initial-push", tr.Iters[0].Kind)
	}
	// Star: the hub pushes 0 to all leaves in iteration 0; iteration 1 is
	// the mandatory pull finding nothing; done in 2 iterations.
	if res.Iterations != 2 {
		t.Fatalf("star iterations = %d, want 2", res.Iterations)
	}
	if tr.Iters[1].Kind != counters.KindPull {
		t.Fatalf("iteration 1 kind = %s, want pull", tr.Iters[1].Kind)
	}
}

// TestThriftyZeroConvergenceSkipsEdges: on a star, the second iteration's
// pull must process ~zero edges because every leaf already holds 0.
func TestThriftyZeroConvergenceSkipsEdges(t *testing.T) {
	g := mustGraph(gen.Star(10000))
	ctr := counters.New(1)
	tr := &counters.Trace{}
	Thrifty(g, Config{Ctr: ctr, Trace: tr})
	// Iteration 0 pushes deg(hub) edges. Iteration 1 pulls: every leaf is
	// skipped (label 0), only the hub itself... the hub is 0 too, so 0
	// edges. Total edges must be exactly deg(hub).
	if got := ctr.Total(counters.EdgesProcessed); got != int64(g.Degree(0)) {
		t.Fatalf("total edges processed = %d, want %d (Zero Convergence must skip the converged star)",
			got, g.Degree(0))
	}
}

// TestThriftyProcessesFarFewerEdgesThanDOLP is the Fig 5 invariant at test
// scale: Thrifty's edge traversals are a small fraction of DO-LP's.
func TestThriftyProcessesFarFewerEdgesThanDOLP(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(13, 16, 9)))
	ctrD, ctrT := counters.New(1), counters.New(1)
	DOLP(g, Config{Ctr: ctrD})
	Thrifty(g, Config{Ctr: ctrT})
	d := ctrD.Total(counters.EdgesProcessed)
	th := ctrT.Total(counters.EdgesProcessed)
	if th*4 > d {
		t.Fatalf("Thrifty processed %d edges vs DO-LP %d — expected at least a 4x reduction", th, d)
	}
	// And Thrifty must touch at most ~a third of |E| on a giant-component
	// RMAT graph (the paper reports ~1.4% at billion-edge scale; small
	// graphs have proportionally larger fringes).
	if th*3 > g.NumDirectedEdges() {
		t.Fatalf("Thrifty processed %d of %d directed slots", th, g.NumDirectedEdges())
	}
}

// TestDOLPIterationsVsUnified: the Unified Labels Array may not increase
// the iteration count (Table V's mechanism).
func TestDOLPIterationsVsUnified(t *testing.T) {
	g := mustGraph(gen.Web(gen.WebConfig{CoreScale: 9, CoreEdgeFactor: 8, NumChains: 8, ChainLength: 64, Seed: 4}))
	rd := DOLP(g, Config{})
	ru := DOLPUnified(g, Config{})
	if ru.Iterations > rd.Iterations {
		t.Fatalf("unified variant used %d iterations vs DO-LP's %d", ru.Iterations, rd.Iterations)
	}
	if !Equivalent(rd.Labels, ru.Labels) {
		t.Fatal("unified variant computed a different partition")
	}
}

// engineFixtures are instrFixtures plus loophub, whose max-degree vertex's
// only edge is a self-loop: the initial push activates nothing, and the
// mandatory first pull must still compare every vertex with its neighbours.
func engineFixtures(t testing.TB) map[string]*graph.Graph {
	out := instrFixtures(t)
	out["loophub"] = mustGraph(graph.BuildUndirected(
		[]graph.Edge{{U: 0, V: 0}, {U: 1, V: 2}}, graph.WithNumVertices(4)))
	return out
}

// TestHopDistanceMatchesBFS: the HopCount rule computes exact BFS distances,
// unreachable vertices included, on both label layouts, from the
// max-degree vertex or from a caller-chosen PlantVertex.
func TestHopDistanceMatchesBFS(t *testing.T) {
	for name, g := range engineFixtures(t) {
		want := bfsOracle(g, g.MaxDegreeVertex())
		for _, unified := range []bool{false, true} {
			if got := Propagate(g, Config{}, HopCount, unified).Labels; !slices.Equal(got, want) {
				t.Fatalf("%s unified=%v: distances %v, want %v", name, unified, got, want)
			}
		}
	}
	path := mustGraph(gen.Path(10))
	for _, unified := range []bool{false, true} {
		res := Propagate(path, Config{PlantVertex: 9, PlantVertexSet: true}, HopCount, unified)
		for v, d := range res.Labels {
			if d != uint32(9-v) {
				t.Fatalf("unified=%v: dist[%d] = %d, want %d", unified, v, d, 9-v)
			}
		}
	}
}

// TestAsyncNeverMoreIterations: on one thread the unified array
// (asynchronous execution) never needs more iterations than two arrays
// (synchronous execution), for either rule — the §VII correspondence made
// checkable.
func TestAsyncNeverMoreIterations(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	for name, g := range engineFixtures(t) {
		for _, rule := range []Rule{MinLabel, HopCount} {
			sync := Propagate(g, Config{Pool: pool}, rule, false)
			async := Propagate(g, Config{Pool: pool}, rule, true)
			if async.Iterations > sync.Iterations {
				t.Fatalf("%s rule %d: async took %d iterations vs sync %d", name, rule, async.Iterations, sync.Iterations)
			}
		}
	}
}

// TestTwoArrayVariantsMoveOneHop: the two-array variants are synchronous.
// After every iteration the labels equal one Jacobi min-step of the
// previous iteration's labels (the initial push: a step from the planted
// vertex alone), so no value travels two hops in one iteration. A push that
// read its source label from the array it writes would let a source
// lowered earlier in the same push forward its new value.
func TestTwoArrayVariantsMoveOneHop(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	cases := []struct {
		name    string
		run     func(*graph.Graph, Config) Result
		hops    bool
		planted bool
	}{
		{"dolp", DOLP, false, false},
		{"lp", LP, false, false},
		{"cc-sync", propagateCase(MinLabel, false), false, true},
		{"hops-sync", propagateCase(HopCount, false), true, true},
	}
	for name, g := range engineFixtures(t) {
		for _, c := range cases {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				rule := func(x uint32) uint32 {
					if c.hops && x != Unreached {
						return x + 1
					}
					return x
				}
				hub := g.MaxDegreeVertex()
				want := make([]uint32, g.NumVertices())
				for v := range want {
					switch {
					case c.hops:
						want[v] = Unreached
					case c.planted:
						want[v] = uint32(v) + 1
					default:
						want[v] = uint32(v)
					}
				}
				if c.planted {
					want[hub] = 0
				}
				tr := &counters.Trace{OnIteration: func(rec counters.IterRecord, labels []uint32) {
					prev := slices.Clone(want)
					for v := range want {
						for _, u := range g.Neighbors(uint32(v)) {
							if rec.Kind != counters.KindInitialPush || u == hub {
								want[v] = min(want[v], rule(prev[u]))
							}
						}
					}
					if !slices.Equal(labels, want) {
						t.Fatalf("iteration %d (%s): labels %v, want %v", rec.Index, rec.Kind, labels, want)
					}
				}}
				c.run(g, Config{Pool: pool, Trace: tr})
				if len(tr.Iters) == 0 {
					t.Fatal("no iterations traced")
				}
			})
		}
	}
}

// TestLabelsMonotoneDecrease: a Thrifty trace's zero-count must be
// non-decreasing (labels never move away from converged).
func TestLabelsMonotoneDecrease(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 13)))
	tr := &counters.Trace{}
	Thrifty(g, Config{Trace: tr})
	last := int64(-1)
	for _, it := range tr.Iters {
		if it.Zero < last {
			t.Fatalf("zero-label count decreased: %d -> %d at iteration %d", last, it.Zero, it.Index)
		}
		last = it.Zero
	}
}

// TestConfigDefaults exercises threshold/pool/max-iteration defaulting.
func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.threshold(0.05) != 0.05 {
		t.Fatal("default threshold not applied")
	}
	c.Threshold = 0.2
	if c.threshold(0.05) != 0.2 {
		t.Fatal("override threshold not applied")
	}
	if c.maxIters(10) != 36 {
		t.Fatalf("maxIters default = %d", c.maxIters(10))
	}
	c.MaxIterations = 3
	if c.maxIters(10) != 3 {
		t.Fatal("maxIters override not applied")
	}
	if c.pool() == nil {
		t.Fatal("default pool nil")
	}
}

// TestMaxIterationsCapStopsRuns: adversarial cap keeps algorithms from
// running away (results may be incomplete — that is the point).
func TestMaxIterationsCapStopsRuns(t *testing.T) {
	g := mustGraph(gen.Path(5000))
	res := DOLP(g, Config{MaxIterations: 3})
	if res.Iterations != 3 {
		t.Fatalf("DOLP ran %d iterations under a cap of 3", res.Iterations)
	}
	res = LP(g, Config{MaxIterations: 2})
	if res.Iterations != 2 {
		t.Fatalf("LP ran %d iterations under a cap of 2", res.Iterations)
	}
}

// TestVerifyAgainstGraphRejects under- and over-merging.
func TestVerifyAgainstGraphRejects(t *testing.T) {
	g := mustGraph(gen.Components(2, 3))
	good := SeqCC(g)
	if !VerifyAgainstGraph(g, good) {
		t.Fatal("rejected correct labels")
	}
	under := append([]uint32(nil), good...)
	under[1] = 99 // splits an edge's endpoints
	if VerifyAgainstGraph(g, under) {
		t.Fatal("accepted under-merged labels")
	}
	over := make([]uint32, len(good)) // everything one component
	if VerifyAgainstGraph(g, over) {
		t.Fatal("accepted over-merged labels")
	}
	if VerifyAgainstGraph(g, good[:2]) {
		t.Fatal("accepted truncated labels")
	}
}
