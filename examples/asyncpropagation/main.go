// Asynchronous propagation: the paper's §VII closes by asking about "the
// connection between the unified arrays optimization and asynchronous
// execution". This example makes that connection concrete on the
// label-propagation engine: the same two update rules — connected
// components and BFS hop distance — run under a synchronous two-array
// schedule and an asynchronous unified-array schedule, and the iteration
// counts show how much of Thrifty's Unified Labels win is really
// "asynchrony smuggled into a bulk-synchronous loop".
//
//	go run ./examples/asyncpropagation
package main

import (
	"fmt"
	"log"

	"thriftylp/graph"
	"thriftylp/graph/gen"
	"thriftylp/internal/core"
)

func main() {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{}
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	rm, err := gen.RMATCompact(gen.DefaultRMAT(16, 16, 5))
	add("social (RMAT)", rm, err)
	web, err2 := gen.Web(gen.DefaultWeb(15, 5))
	add("web crawl", web, err2)
	road, err3 := gen.Road(1<<17, 5)
	add("road grid", road, err3)

	fmt.Printf("%-15s  %-22s  %-22s\n", "", "CC iterations", "BFS iterations")
	fmt.Printf("%-15s  %-10s %-10s  %-10s %-10s\n", "dataset", "sync", "async", "sync", "async")
	for _, tc := range graphs {
		ccS := core.Propagate(tc.g, core.Config{}, core.MinLabel, false)
		ccA := core.Propagate(tc.g, core.Config{}, core.MinLabel, true)
		bfS := core.Propagate(tc.g, core.Config{}, core.HopCount, false)
		bfA := core.Propagate(tc.g, core.Config{}, core.HopCount, true)
		fmt.Printf("%-15s  %-10d %-10d  %-10d %-10d\n",
			tc.name, ccS.Iterations, ccA.Iterations, bfS.Iterations, bfA.Iterations)
	}
	fmt.Println("\nSynchronous sweeps move values one hop per iteration; the unified array")
	fmt.Println("lets a value cross an entire in-order run of vertices in one sweep — the")
	fmt.Println("effect is largest exactly where diameters are large (roads, crawls).")
}
