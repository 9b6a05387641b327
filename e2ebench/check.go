package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"thriftylp/cc"
	"thriftylp/graph"
)

// oracle is the ground truth every output is checked against, computed once
// per run from the sequential BFS labelling (each vertex labelled with the
// smallest vertex id of its component).
type oracle struct {
	root       []uint32 // component representative of each vertex
	size       []int64  // component size, indexed by representative
	components int
	largest    int64
	edges      int64
}

func newOracle(g *graph.Graph) *oracle {
	o := &oracle{root: cc.Sequential(g), size: make([]int64, g.NumVertices()), edges: g.NumEdges()}
	for _, r := range o.root {
		if o.size[r] == 0 {
			o.components++
		}
		o.size[r]++
		o.largest = max(o.largest, o.size[r])
	}
	return o
}

// checkLabels reports whether labels partition the vertices exactly as the
// oracle does.
func (o *oracle) checkLabels(labels []uint32) error {
	if len(labels) != len(o.root) {
		return fmt.Errorf("labels cover %d vertices, want %d", len(labels), len(o.root))
	}
	if !cc.Equivalent(labels, o.root) {
		return fmt.Errorf("labels do not match the oracle's components")
	}
	return nil
}

// checkIdentical reports whether a sharded labelling is byte-identical to
// the unsharded Thrifty labelling of the same graph.
func checkIdentical(sharded, thrifty []uint32) error {
	if !slices.Equal(sharded, thrifty) {
		return fmt.Errorf("sharded labels differ from unsharded Thrifty labels")
	}
	return nil
}

// query is one request against the query server.
type query struct {
	endpoint string // component, same, size or census
	u, v     uint32
	label    uint32 // the component label asked for by /size
}

func (q query) path() string {
	switch q.endpoint {
	case "component":
		return fmt.Sprintf("/component?v=%d", q.v)
	case "same":
		return fmt.Sprintf("/same?u=%d&v=%d", q.u, q.v)
	case "size":
		return fmt.Sprintf("/size?c=%d", q.label)
	}
	return "/census"
}

// checkAnswer checks one query's response body. labels is the labelling the
// server publishes for this file: re-solving the same file gives the same
// labels, so a /component label or a /size argument taken from it stays
// valid across reloads.
func (o *oracle) checkAnswer(q query, labels []uint32, body []byte) error {
	switch q.endpoint {
	case "component":
		var a struct {
			Vertex, Component uint32
			Size              int64
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if a.Vertex != q.v || a.Component != labels[q.v] || a.Size != o.size[o.root[q.v]] {
			return fmt.Errorf("/component?v=%d answered %+v, want label %d size %d", q.v, a, labels[q.v], o.size[o.root[q.v]])
		}
	case "same":
		var a struct {
			U, V uint32
			Same bool
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if want := o.root[q.u] == o.root[q.v]; a.U != q.u || a.V != q.v || a.Same != want {
			return fmt.Errorf("/same?u=%d&v=%d answered %+v, want %v", q.u, q.v, a, want)
		}
	case "size":
		var a struct {
			Component uint32
			Size      int64
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if want := o.size[o.root[q.v]]; a.Component != q.label || a.Size != want {
			return fmt.Errorf("/size?c=%d answered %+v, want size %d", q.label, a, want)
		}
	case "census":
		var a struct {
			Vertices   int
			Edges      int64
			Components int
			Largest    struct{ Size int64 }
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return err
		}
		if a.Vertices != len(o.root) || a.Edges != o.edges || a.Components != o.components || a.Largest.Size != o.largest {
			return fmt.Errorf("/census answered %+v, want %d vertices, %d edges, %d components, largest %d",
				a, len(o.root), o.edges, o.components, o.largest)
		}
	default:
		return fmt.Errorf("unknown endpoint %q", q.endpoint)
	}
	return nil
}
