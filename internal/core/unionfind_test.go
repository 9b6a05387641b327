package core

import (
	"testing"

	"thriftylp/graph/gen"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
)

// TestAfforestLinkUnitesAndIsIdempotent exercises the hooking primitive
// directly.
func TestAfforestLinkUnitesAndIsIdempotent(t *testing.T) {
	comp := []uint32{0, 1, 2, 3}
	var ck chunkCounts
	afforestLink(1, 3, comp, &ck)
	// Roots 1 and 3: the higher id hooks under the lower.
	if comp[3] != 1 {
		t.Fatalf("comp after link = %v", comp)
	}
	afforestLink(1, 3, comp, &ck) // already united: no change
	if comp[3] != 1 || comp[1] != 1 {
		t.Fatalf("comp after re-link = %v", comp)
	}
	// Transitive union through non-roots.
	afforestLink(3, 2, comp, &ck)
	fl := &chunkFlusher{cfg: &Config{}}
	afforestCompress(parallel.Default(), comp, fl)
	if comp[2] != 1 || comp[3] != 1 {
		t.Fatalf("comp after transitive link+compress = %v", comp)
	}
}

// TestAfforestCompressFlattens: after compress every entry points directly
// at a root.
func TestAfforestCompressFlattens(t *testing.T) {
	// A chain 4→3→2→1→0.
	comp := []uint32{0, 0, 1, 2, 3}
	fl := &chunkFlusher{cfg: &Config{}}
	afforestCompress(parallel.Default(), comp, fl)
	for v, p := range comp {
		if p != 0 {
			t.Fatalf("comp[%d] = %d after compress", v, p)
		}
	}
}

// TestSampleFrequentComponent: an overwhelmingly dominant label must win.
func TestSampleFrequentComponent(t *testing.T) {
	comp := make([]uint32, 10000)
	for i := range comp {
		comp[i] = 7
	}
	comp[3] = 9
	if got := sampleFrequentComponent(comp); got != 7 {
		t.Fatalf("sampleFrequentComponent = %d", got)
	}
}

// TestAfforestSkipsGiantEdges: phase 2 must process far fewer edges than
// the whole graph on a giant-component RMAT — the sampling payoff that
// makes Afforest the paper's strongest baseline.
func TestAfforestSkipsGiantEdges(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(13, 16, 4)))
	ctr := counters.New(1)
	Afforest(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	// Neighbour rounds cost ≈ 2·|V|; phase 2 only touches non-giant
	// vertices. Altogether this must be well under half the directed slots.
	if edges*2 > g.NumDirectedEdges() {
		t.Fatalf("Afforest processed %d of %d slots — sampling skip not effective",
			edges, g.NumDirectedEdges())
	}
}

// TestJTProcessesEachEdgeOnce: JT's edge loop visits each undirected edge
// exactly once (u<v direction), matching the paper's description.
func TestJTProcessesEachEdgeOnce(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 8)))
	ctr := counters.New(1)
	JayantiTarjan(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	want := g.NumDirectedEdges() / 2
	// Self-loops are stored once with u == v and are skipped by the u < v
	// filter, so edges <= want; it must be within the loop-count slack.
	if edges > want || edges < want-int64(g.NumVertices()) {
		t.Fatalf("JT processed %d edges, want ~%d (each edge once)", edges, want)
	}
}

// TestSVTerminatesOnPathologicalShapes: long chains and stars exercise the
// hook/shortcut interplay.
func TestSVTerminatesOnPathologicalShapes(t *testing.T) {
	for name, g := range map[string]func() Result{
		"path": func() Result { return ShiloachVishkin(mustGraph(gen.Path(3000)), Config{}) },
		"star": func() Result { return ShiloachVishkin(mustGraph(gen.Star(3000)), Config{}) },
	} {
		res := g()
		if res.Iterations > 60 {
			t.Fatalf("%s: SV needed %d passes", name, res.Iterations)
		}
	}
}

// TestConnectItBFSSamplingClaimsGiant: after the BFS sampling phase the
// finish loop must skip nearly everything on a one-component graph —
// total edge traversals stay near one full scan (the BFS itself).
func TestConnectItBFSSamplingClaimsGiant(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 16, 6)))
	ctr := counters.New(1)
	ConnectItBFS(g, Config{Ctr: ctr})
	edges := ctr.Total(counters.EdgesProcessed)
	if edges > 2*g.NumDirectedEdges() {
		t.Fatalf("ConnectIt-BFS processed %d of %d slots", edges, g.NumDirectedEdges())
	}
}
