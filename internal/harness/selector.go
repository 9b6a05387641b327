package harness

import (
	"fmt"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// This file is the auto-selector validation matrix: every generator family
// the repository models, timed under cc.AlgoAuto AND under each candidate
// algorithm the decision policy chooses among, so "auto is within tolerance
// of the per-input best" is a measured claim rather than an assumption.

// SelectorFixture is one generator family of the selector matrix, with the
// golden algorithm the decision policy is expected to pick for it.
type SelectorFixture struct {
	Name   string
	Expect cc.Algorithm
	Build  func() (*graph.Graph, error)
}

// SelectorFixtures covers every gen family: power-law social (RMAT both
// layouts), web crawl, road-like grid, uniform random, preferential
// attachment, star, chain, fragmented cliques, and dense clique. Sizes are
// chosen so the full timed matrix stays a CI smoke job (seconds, not
// minutes) while each family still exhibits the structure the probe keys on.
func SelectorFixtures() []SelectorFixture {
	return []SelectorFixture{
		{"rmat", cc.AlgoThrifty, func() (*graph.Graph, error) {
			return gen.RMAT(gen.DefaultRMAT(15, 8, 42))
		}},
		{"rmat-compact", cc.AlgoThrifty, func() (*graph.Graph, error) {
			return gen.RMATCompact(gen.DefaultRMAT(15, 8, 42))
		}},
		{"web", cc.AlgoThrifty, func() (*graph.Graph, error) {
			return gen.Web(gen.DefaultWeb(14, 42))
		}},
		{"road", cc.AlgoBFSCC, func() (*graph.Graph, error) {
			return gen.Grid(gen.GridConfig{Rows: 512, Cols: 512, DropFraction: 0.05, Seed: 42})
		}},
		{"er", cc.AlgoBFSCC, func() (*graph.Graph, error) {
			return gen.ErdosRenyi(1<<16, 1<<18, 42)
		}},
		{"ba", cc.AlgoThrifty, func() (*graph.Graph, error) {
			return gen.BarabasiAlbert(100_000, 3, 42)
		}},
		{"star", cc.AlgoBFSCC, func() (*graph.Graph, error) {
			return gen.Star(200_000)
		}},
		{"path", cc.AlgoThrifty, func() (*graph.Graph, error) {
			return gen.Path(200_000)
		}},
		{"cliques", cc.AlgoAfforest, func() (*graph.Graph, error) {
			return gen.Components(40, 50)
		}},
		{"complete", cc.AlgoBFSCC, func() (*graph.Graph, error) {
			return gen.Complete(500)
		}},
	}
}

// SelectorCandidates are the concrete algorithms the decision policy
// chooses among; the matrix times each so "best" is measured per input.
func SelectorCandidates() []cc.Algorithm {
	return []cc.Algorithm{cc.AlgoThrifty, cc.AlgoAfforest, cc.AlgoBFSCC}
}

// SelectorCell is one family's measurement: what auto chose and cost,
// against every candidate's time.
type SelectorCell struct {
	Dataset   string
	Vertices  int
	Edges     int64
	Selected  cc.Algorithm
	Reason    string
	ProbeCost time.Duration
	// AutoNs is the full auto run (probe + selected algorithm), minimum over
	// reps; BestAlgo/BestNs is the fastest candidate measured directly.
	AutoNs      int64
	BestAlgo    cc.Algorithm
	BestNs      int64
	CandidateNs map[cc.Algorithm]int64
}

// Regret returns how far auto landed from the measured per-input best, as a
// ratio (1.0 = matched the best exactly; 1.05 = 5% slower).
func (c SelectorCell) Regret() float64 {
	if c.BestNs == 0 {
		return 1
	}
	return float64(c.AutoNs) / float64(c.BestNs)
}

// SelectorMatrix times cc.AlgoAuto and every candidate on every selector
// fixture. Timing follows the TimeAlgorithm discipline (warmup + reps,
// minimum reported).
func SelectorMatrix(cfg RunConfig) ([]SelectorCell, error) {
	var cells []SelectorCell
	for _, f := range SelectorFixtures() {
		g, err := f.Build()
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", f.Name, err)
		}
		autoBest, res, err := TimeAlgorithm(cc.AlgoAuto, g, cfg)
		if err != nil {
			return nil, fmt.Errorf("auto on %s: %w", f.Name, err)
		}
		cell := SelectorCell{
			Dataset:     f.Name,
			Vertices:    g.NumVertices(),
			Edges:       g.NumEdges(),
			AutoNs:      autoBest.Nanoseconds(),
			CandidateNs: make(map[cc.Algorithm]int64, 4),
		}
		if res.Stats != nil {
			cell.Selected = res.Stats.Selected
			if res.Stats.Probe != nil {
				cell.Reason = res.Stats.Probe.Reason
				cell.ProbeCost = res.Stats.Probe.Cost
			}
		}
		for _, a := range SelectorCandidates() {
			best, _, err := TimeAlgorithm(a, g, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a, f.Name, err)
			}
			cell.CandidateNs[a] = best.Nanoseconds()
			if cell.BestNs == 0 || best.Nanoseconds() < cell.BestNs {
				cell.BestAlgo, cell.BestNs = a, best.Nanoseconds()
			}
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// RenderSelectorCells formats the matrix as an aligned console table.
func RenderSelectorCells(cells []SelectorCell) string {
	out := fmt.Sprintf("%-14s %-14s %-14s %10s %10s %-10s %8s %10s\n",
		"dataset", "selected", "reason", "auto ms", "best ms", "best algo", "regret", "probe µs")
	for _, c := range cells {
		out += fmt.Sprintf("%-14s %-14s %-14s %10.3f %10.3f %-10s %7.2fx %10.1f\n",
			c.Dataset, c.Selected, c.Reason,
			float64(c.AutoNs)/1e6, float64(c.BestNs)/1e6, c.BestAlgo,
			c.Regret(), float64(c.ProbeCost.Nanoseconds())/1e3)
	}
	return out
}
