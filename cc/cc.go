// Package cc is the public connected-components API of this repository. It
// exposes the Thrifty Label Propagation algorithm of Koohi Esfahani,
// Kilpatrick & Vandierendonck (CLUSTER 2021) together with the baselines the
// paper evaluates against, behind one uniform interface:
//
//	g, _ := gen.RMAT(gen.DefaultRMAT(20, 16, 42))
//	res, _ := cc.Run(cc.AlgoThrifty, g)
//	fmt.Println(res.NumComponents(), res.Iterations)
//
// All algorithms accept the same options and produce a Result whose labels
// can be compared across algorithms with Equivalent (labels are canonical
// per algorithm, not across algorithms: Thrifty's giant component converges
// to label 0, union-find labels are root vertex ids).
package cc

import (
	"time"

	"thriftylp/graph"
	"thriftylp/internal/core"
	"thriftylp/internal/parallel"
)

// Algorithm names a connected-components algorithm.
type Algorithm string

// The implemented algorithms. AlgoThrifty is the paper's contribution; the
// rest are the evaluation baselines of Table IV plus the DO-LP+Unified
// ablation variant of Fig 9/10.
// AlgoShard (declared in shard.go) is the sharded out-of-core Thrifty
// pipeline; AlgoAuto (auto.go) is the probe-driven selector.
const (
	AlgoThrifty       Algorithm = "thrifty"
	AlgoDOLP          Algorithm = "dolp"
	AlgoDOLPUnified   Algorithm = "dolp-unified"
	AlgoLP            Algorithm = "lp"
	AlgoSV            Algorithm = "sv"
	AlgoAfforest      Algorithm = "afforest"
	AlgoJayantiT      Algorithm = "jt"
	AlgoBFSCC         Algorithm = "bfs"
	AlgoConnectItKOut Algorithm = "connectit-kout"
	AlgoConnectItBFS  Algorithm = "connectit-bfs"
)

// Algorithms returns every implemented algorithm in a stable order,
// including the AlgoAuto selector (last).
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoThrifty, AlgoDOLP, AlgoDOLPUnified, AlgoLP,
		AlgoSV, AlgoAfforest, AlgoJayantiT, AlgoBFSCC,
		AlgoConnectItKOut, AlgoConnectItBFS, AlgoShard, AlgoAuto,
	}
}

// IterationStats is per-iteration telemetry of a label-propagation run,
// populated when WithInstrumentation is supplied.
type IterationStats struct {
	// Index is the iteration number; Thrifty counts its initial push as
	// iteration 0.
	Index int
	// Kind is "pull", "push", "pull-frontier" or "initial-push".
	Kind string
	// Active is the frontier size at iteration start.
	Active int64
	// ActiveEdges is the summed degree of the frontier at iteration start
	// (the |F.E| term of the density ratio).
	ActiveEdges int64
	// Changed is the number of vertices whose label changed.
	Changed int64
	// ConvergedZero is the number of vertices holding label 0 at iteration
	// end (meaningful for Thrifty's Zero Convergence).
	ConvergedZero int64
	// Edges is the number of edge traversals performed this iteration.
	Edges int64
	// Density is the frontier density that drove the direction decision.
	Density float64
	// Threshold is the push/pull density threshold the direction decision
	// compared Density against; together they carry the *why* of the choice.
	Threshold float64
	// Duration is the iteration's wall time.
	Duration time.Duration
}

// Instrumentation collects software event counts (the paper's Fig 5/6
// hardware-counter substitutes) and per-iteration telemetry.
type Instrumentation struct {
	// Events maps event name → count. Names: "edges", "vertex-visits",
	// "label-loads", "label-stores", "cas-ops", "branch-checks",
	// "cache-lines".
	Events map[string]int64
	// Iterations holds per-iteration telemetry in execution order.
	Iterations []IterationStats
	// OnIteration, if set before the run, is invoked at the end of every
	// iteration with that iteration's stats and a read-only view of the
	// labels array at that moment. Used to measure convergence against an
	// oracle (Fig 3/7). The callback must not retain or mutate labels.
	OnIteration func(it IterationStats, labels []uint32)
}

type options struct {
	cfg     core.Config
	inst    *Instrumentation
	pool    *parallel.Pool
	ownPool bool
	ingest  *graph.IngestStats
	// shards and memBudget configure/steer the sharded pipeline (shard.go);
	// shardStats is runShard's output channel to RunContext.
	shards     int
	memBudget  int64
	shardStats *ShardStats
}

// Option configures a run.
type Option func(*options)

// WithThreshold overrides the push/pull density threshold (Table VII
// studies 1% vs 5%). Zero keeps the algorithm default: 1% for Thrifty,
// 5% for DO-LP.
func WithThreshold(t float64) Option {
	return func(o *options) { o.cfg.Threshold = t }
}

// WithThreads runs the algorithm on a dedicated pool of the given size
// instead of the shared GOMAXPROCS-sized pool.
func WithThreads(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.pool = parallel.NewPool(n)
			o.ownPool = true
		}
	}
}

// WithMaxIterations caps the iteration count (a safety net for adversarial
// inputs; correct runs never hit it).
func WithMaxIterations(n int) Option {
	return func(o *options) { o.cfg.MaxIterations = n }
}

// WithInstrumentation enables event counting and per-iteration telemetry,
// filling inst when the run completes. Instrumented runs are slower; do not
// combine with wall-time measurements you intend to report.
func WithInstrumentation(inst *Instrumentation) Option {
	return func(o *options) { o.inst = inst }
}

// WithIngestStats attaches ingestion-phase timings (as reported by
// graph.Ingest) to the run's RunStats, so one record carries the full
// load→build→solve story. The stats are carried through verbatim; the run
// itself is unaffected.
func WithIngestStats(st graph.IngestStats) Option {
	return func(o *options) { o.ingest = &st }
}

// WithPlantVertex overrides Thrifty's Zero Planting heuristic: the 0 label
// is planted at v instead of the maximum-degree vertex. Useful when the
// caller knows a central vertex, and as the structure-oblivious-planting
// ablation (plant at vertex 0). Ignored by other algorithms.
func WithPlantVertex(v uint32) Option {
	return func(o *options) { o.cfg.PlantVertex = v; o.cfg.PlantVertexSet = true }
}

// WithoutInitialPush is the Initial Push ablation: Thrifty starts with a
// full pull iteration the way DO-LP does, quantifying what the one-hop hub
// push saves (Table VI). Ignored by other algorithms.
func WithoutInitialPush() Option {
	return func(o *options) { o.cfg.NoInitialPush = true }
}

// WithEagerPullFrontier is the frontier-bookkeeping ablation: every Thrifty
// pull iteration records a detailed frontier instead of only counting
// active vertices and materializing one Pull-Frontier bridge iteration
// (§IV-E). Ignored by other algorithms.
func WithEagerPullFrontier() Option {
	return func(o *options) { o.cfg.EagerFrontier = true }
}

// WithDynamicScheduling is the runtime ablation: vertex sweeps use uniform
// dynamic chunking instead of the paper's 32×threads edge-balanced
// partitions with work stealing (§V-A). Applies to every algorithm's
// edge-scanning sweeps.
func WithDynamicScheduling() Option {
	return func(o *options) { o.cfg.DynamicScheduling = true }
}
