package core

import (
	"sync/atomic"
	"testing"

	"thriftylp/graph/gen"
	"thriftylp/internal/parallel"
)

func TestSchedulerSweepCoversAllVertices(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(11, 8, 3)))
	for _, dynamic := range []bool{false, true} {
		sch := newScheduler(g, Config{DynamicScheduling: dynamic}, parallel.Default())
		touched := make([]int32, g.NumVertices())
		for round := 0; round < 3; round++ { // reuse across "iterations"
			sch.sweep(func(_, lo, hi int) {
				for v := lo; v < hi; v++ {
					atomic.AddInt32(&touched[v], 1)
				}
			})
		}
		for v, c := range touched {
			if c != 3 {
				t.Fatalf("dynamic=%v: vertex %d swept %d times, want 3", dynamic, v, c)
			}
		}
	}
}

func TestSchedulerEmptyGraph(t *testing.T) {
	g := mustGraph(gen.Empty(0))
	sch := newScheduler(g, Config{}, parallel.Default())
	called := false
	sch.sweep(func(_, _, _ int) { called = true })
	if called {
		t.Fatal("sweep over empty graph invoked fn")
	}
}

// TestSchedulerEdgeBalance: with a hub-heavy graph, the stealing schedule's
// partitions carry far fewer vertices near the hub than uniform chunks
// would — verify partitions are edge-balanced within 2× of ideal except for
// unsplittable hubs.
func TestSchedulerEdgeBalance(t *testing.T) {
	g := mustGraph(gen.RMAT(gen.DefaultRMAT(12, 16, 5)))
	pool := parallel.Default()
	parts := parallel.PartitionEdges(g.Offsets(), parallel.PartitionsPerThread*pool.Threads())
	total := g.NumDirectedEdges()
	ideal := total / int64(len(parts))
	maxHub := int64(g.Degree(g.MaxDegreeVertex()))
	for _, p := range parts {
		edges := g.Offsets()[p.Hi] - g.Offsets()[p.Lo]
		bound := 2*ideal + maxHub
		if edges > bound {
			t.Fatalf("partition [%d,%d) has %d edges, bound %d", p.Lo, p.Hi, edges, bound)
		}
	}
}

// TestDynamicSchedulingAblationCorrect: both disciplines produce identical
// partitions for every algorithm family.
func TestDynamicSchedulingAblationCorrect(t *testing.T) {
	g := mustGraph(gen.Web(gen.WebConfig{CoreScale: 9, CoreEdgeFactor: 8, NumChains: 6, ChainLength: 32, Seed: 11}))
	for _, a := range algorithmsUnderTest {
		res := a.run(g, Config{DynamicScheduling: true})
		if !a.correct(g, res.Labels) {
			t.Fatalf("%s with dynamic scheduling: wrong partition", a.name)
		}
	}
}
