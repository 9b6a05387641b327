package cc

import (
	"time"

	"thriftylp/graph"
	"thriftylp/internal/core"
	"thriftylp/internal/stats"
)

// AlgoAuto is not an algorithm but a selector: the run begins with an
// O(sample) structural probe of the input (internal/stats.ProbeGraph) and a
// decision policy maps the probe to the concrete algorithm expected to win
// on inputs shaped like this one. The chosen algorithm, the probe values,
// and the probe's cost are reported through RunStats (Selected, Probe), so
// an auto run is never a black box.
const AlgoAuto Algorithm = "auto"

// ProbeStats is the structural fingerprint an AlgoAuto run measured before
// choosing its algorithm, surfaced on RunStats.Probe. The fields mirror
// internal/stats.Probe; see that type for the estimation details. Cost is
// the probe's own wall time — the overhead the selector added to the run.
type ProbeStats struct {
	// Exact O(1) facts from CSR metadata.
	Vertices        int
	DirectedEdges   int64
	MeanDegree      float64
	MaxDegree       int
	SkewRatio       float64
	HubEdgeFraction float64

	// Sampled degree-distribution estimates.
	SampleSize       int
	SampleCoverage   float64
	SampleMeanDegree float64
	SampleP99        int
	SampleAlpha      float64
	IsolatedFraction float64

	// Connectivity hint (0 unless SampleCoverage >= 0.5).
	LargestSampleComponent float64
	EdgeSamples            int

	// Cost is the probe's wall time; Reason is the decision-policy rule that
	// fired ("skewed", "hub-dominated", "fragmented", "chain-like",
	// "uniform-degree", "trivial").
	Cost   time.Duration
	Reason string
}

func toProbeStats(p stats.Probe, reason string) *ProbeStats {
	return &ProbeStats{
		Vertices:               p.Vertices,
		DirectedEdges:          p.DirectedEdges,
		MeanDegree:             p.MeanDegree,
		MaxDegree:              p.MaxDegree,
		SkewRatio:              p.SkewRatio,
		HubEdgeFraction:        p.HubEdgeFraction,
		SampleSize:             p.SampleSize,
		SampleCoverage:         p.SampleCoverage,
		SampleMeanDegree:       p.SampleMeanDegree,
		SampleP99:              p.SampleP99,
		SampleAlpha:            p.SampleAlpha,
		IsolatedFraction:       p.IsolatedFraction,
		LargestSampleComponent: p.LargestSampleComponent,
		EdgeSamples:            p.EdgeSamples,
		Cost:                   p.Cost,
		Reason:                 reason,
	}
}

// selectAlgorithm is the decision policy: probe in, concrete algorithm and
// the name of the rule that fired out. The rules are ordered most-specific
// first and calibrated by measurement over this repository's generator
// families (see DESIGN.md "Algorithm auto-selection"); the constants are
// deliberately coarse — each rule only has to separate regimes whose best
// algorithms differ by integer factors, not percentages.
//
// Why each rule picks what it picks:
//
//   - hub-dominated: one vertex touches >=40% of all edges (star-like).
//     Thrifty's initial push serializes on the hub's adjacency list while
//     the pull direction has nothing to skip yet; a direction-optimizing
//     BFS claims such graphs in two levels and measured 2x faster than
//     Thrifty on star inputs.
//   - skewed: a max degree 20x the mean is the paper's home turf — zero
//     planting lands on a giant-component hub and Zero Convergence prunes
//     the bulk of edge work (power-law inputs: RMAT, web, Barabasi-Albert).
//   - fragmented: the k-out connectivity hint found no dominant cluster, so
//     the input is thousands of small components. Per-component costs
//     dominate; Afforest's sampling union-find handles them without one
//     BFS launch per component and without LP's per-iteration sweeps.
//   - chain-like: mean degree under ~2.6 means paths/cycles/road-like
//     topology with tiny frontiers. Thrifty's sequential-drain cutoff makes
//     its many short push iterations cheap, and label propagation avoids
//     BFS's level-synchronization overhead on deep, narrow graphs.
//   - uniform-degree: no skew to exploit (Erdos-Renyi, grids, complete
//     graphs): Zero Planting has no special hub to find, so LP family loses
//     its edge; direction-optimizing BFS explores the single giant
//     component with the fewest edge touches.
//
// One rule precedes all the structural ones: beyond-memory-budget. When the
// caller declared a byte budget (WithMemoryBudget or THRIFTY_MEM_BUDGET)
// and the input's estimated whole-graph working set exceeds it, no
// whole-graph algorithm is admissible regardless of shape, so the selector
// picks the sharded out-of-core pipeline.
func selectAlgorithm(p stats.Probe, budget int64) (Algorithm, string) {
	switch {
	case p.Vertices == 0 || p.DirectedEdges == 0:
		// Empty or edgeless: every algorithm is O(V); Thrifty keeps the
		// labels convention consistent with the package's default.
		return AlgoThrifty, "trivial"
	case budget > 0 && estimateResidentBytes(p) > budget:
		return AlgoShard, "beyond-memory-budget"
	case p.HubEdgeFraction >= 0.4:
		return AlgoBFSCC, "hub-dominated"
	case p.SkewRatio >= 20:
		return AlgoThrifty, "skewed"
	case p.SampleCoverage >= 0.5 && p.LargestSampleComponent < 0.4:
		return AlgoAfforest, "fragmented"
	case p.MeanDegree < 2.6:
		return AlgoThrifty, "chain-like"
	default:
		return AlgoBFSCC, "uniform-degree"
	}
}

// autoSelect probes g and returns the chosen algorithm plus the reported
// probe. Deterministic: the probe uses a fixed sampling seed, so equal
// graphs always select equally (for a fixed budget). When the budget rule
// fires it also sizes the shard count on o, unless the caller pinned one.
func autoSelect(g *graph.Graph, o *options) (Algorithm, *ProbeStats) {
	p := stats.ProbeGraph(g, stats.ProbeOptions{})
	budget := o.memoryBudget()
	algo, reason := selectAlgorithm(p, budget)
	if reason == "beyond-memory-budget" && o.shards == 0 {
		o.shards = budgetShardCount(estimateResidentBytes(p), budget)
	}
	return algo, toProbeStats(p, reason)
}

// Arena is a reusable allocation pool for runs' working buffers (labels,
// frontiers, bitmaps). Passing the same Arena to consecutive runs via
// WithArena makes the second and later runs recycle the previous run's
// buffers instead of allocating fresh ones — the steady-state win for
// serving paths and benchmark loops that solve many graphs of similar size.
//
// Rules: an Arena serves one run at a time (concurrent runs need an Arena
// each), and starting a new run on an Arena invalidates the Labels slice of
// the previous run's Result — retain results across runs by copying.
type Arena struct{ inner core.Arena }

// NewArena returns an empty Arena.
func NewArena() *Arena { return &Arena{} }

// WithArena routes the run's working-buffer acquisitions through a. A nil
// a is ignored (plain allocation).
func WithArena(a *Arena) Option {
	return func(o *options) {
		if a != nil {
			o.cfg.Arena = &a.inner
		}
	}
}

// Auto probes g, picks the algorithm the decision policy expects to win,
// and runs it. The choice is reported in Result.Stats.Selected.
func Auto(g *graph.Graph, opts ...Option) Result { return mustRun(AlgoAuto, g, opts) }
