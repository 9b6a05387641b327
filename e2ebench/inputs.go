package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// sizing fixes input sizes and repetition counts. "full" is the benchmark;
// "tiny" keeps every code path but finishes in about a second, for tests.
type sizing struct {
	rmatScale, webScale, shardScale int
	// setupReps is the least number of times set-up is repeated per run;
	// setup_s and reload_s report the median.
	setupReps int
	// minOps is the least number of solves a run makes, so that p90 has at
	// least ten samples beyond it.
	minOps int
	serve  serveSizing
}

var sizes = map[string]sizing{
	"full": {
		rmatScale: 19, webScale: 18, shardScale: 15,
		setupReps: 9, minOps: 100,
		serve: serveSizing{nominalRate: 4000, reloads: 9},
	},
	"tiny": {
		rmatScale: 10, webScale: 10, shardScale: 9,
		setupReps: 2, minOps: 10,
		serve: serveSizing{nominalRate: 500, reloads: 1},
	},
}

// rmatGraph generates the social-network analog the paper targets: Graph500
// RMAT with zero-degree vertices removed.
func rmatGraph(scale int, seed uint64) (*graph.Graph, error) {
	return gen.RMATCompact(gen.DefaultRMAT(scale, 16, seed))
}

// webGraph generates the web-crawl analog: an RMAT core with long pendant
// chains, which keeps Thrifty in sparse push iterations.
func webGraph(scale int, seed uint64) (*graph.Graph, error) {
	return gen.Web(gen.DefaultWeb(scale, seed))
}

// writeInput writes g to dir/name — a text edge list, or binary CSR when
// the name ends in .bin — records its shape for the stamp, and returns the
// path. The generated graph is dropped afterwards: the program under test
// sees only the file.
func (r *runner) writeInput(g *graph.Graph, name string) (string, error) {
	r.vertices, r.edges = g.NumVertices(), g.NumEdges()
	r.csrBytes = int64(g.NumVertices()+1)*8 + g.NumDirectedEdges()*4
	path := filepath.Join(r.dir, name)
	if filepath.Ext(name) == ".bin" {
		if err := graph.SaveBinary(path, g); err != nil {
			return "", err
		}
	} else if err := writeEdgeList(path, g); err != nil {
		return "", err
	}
	runtime.GC()
	return path, nil
}

func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := graph.WriteEdgeList(w, g); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// moreSetups reports whether set-up repetition i should run, given the
// times in seconds of those done so far: at least setupReps, and more,
// up to 100, while they have taken under two seconds in all, so that a
// cheap set-up's median rests on more samples.
func (r *runner) moreSetups(i int, done []float64) bool {
	var total float64
	for _, d := range done {
		total += d
	}
	return i < r.size.setupReps || (i < 100 && total < 2)
}
