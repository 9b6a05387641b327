package harness

import (
	"fmt"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
)

// This file is the machine-readable perf-regression harness: the same two
// medium-scale skewed fixtures the BenchmarkThrifty gate runs on, timed
// uninstrumented (fast path) for every label-propagation algorithm, exported
// as JSON so the throughput trajectory can be tracked across commits
// (`make bench-json` writes BENCH_thrifty.json).

// RegressionFixtures returns the perf-gate fixtures: the medium RMAT social
// analog and web-crawl analog of suiteFixtures, the same two the
// BenchmarkThrifty gate runs on, so numbers are comparable across runs and
// commits.
func RegressionFixtures() []RegressionFixture {
	rmat, web, _ := suiteFixtures(ScaleMedium)
	return []RegressionFixture{rmat, web}
}

// regressionAlgos are the traversal kernels sharing the instrumentation-
// policy design, plus the auto selector; all are timed so a fast-path
// regression in any kernel — or a bad selector decision — is visible, not
// just in the headline algorithm.
var regressionAlgos = []cc.Algorithm{
	cc.AlgoThrifty, cc.AlgoDOLP, cc.AlgoDOLPUnified, cc.AlgoLP, cc.AlgoAuto,
}

// BenchSchema identifies the BENCH_thrifty.json layout. v2 added the host
// stamp (cpus, Go version, platform) and per-record phase breakdowns; v3
// added the auto-selector rows and their "selected" field.
const BenchSchema = "thriftylp/bench/v3"

// BenchRecord is one (algorithm, dataset) measurement.
type BenchRecord struct {
	Algorithm   string  `json:"algorithm"`
	Dataset     string  `json:"dataset"`
	Vertices    int     `json:"vertices"`
	Edges       int64   `json:"edges"`
	Iterations  int     `json:"iterations"`
	NsPerRun    int64   `json:"ns_per_run"`
	EdgesPerSec float64 `json:"edges_per_sec"`
	Reps        int     `json:"reps"`
	// Selected is the concrete algorithm an "auto" row resolved to (its
	// NsPerRun includes the probe); empty on direct rows.
	Selected string `json:"selected,omitempty"`
	// PushIterations/PullIterations decompose Iterations by direction, and
	// PhaseNs breaks the (last timed) run's wall time down per iteration
	// kind — both from the always-on RunStats, so recording them does not
	// perturb the fast-path timing in NsPerRun.
	PushIterations int              `json:"push_iterations"`
	PullIterations int              `json:"pull_iterations"`
	PhaseNs        map[string]int64 `json:"phase_ns,omitempty"`
}

// BenchReport is the full regression run, as serialized to
// BENCH_thrifty.json.
type BenchReport struct {
	// Schema versions the file layout (see BenchSchema).
	Schema string `json:"schema"`
	HostStamp
	Records []BenchRecord `json:"records"`
}

// BenchRegression times every label-propagation algorithm, uninstrumented,
// on the regression fixtures: one warmup run plus cfg.Reps timed runs per
// cell, minimum reported (the paper's convention for eliminating scheduler
// noise, and the same discipline as TimeAlgorithm).
func BenchRegression(cfg RunConfig) (BenchReport, error) {
	rep := BenchReport{
		Schema:    BenchSchema,
		HostStamp: currentHostStamp(cfg.Threads),
	}
	algos := regressionAlgos
	if len(cfg.Algos) > 0 {
		algos = cfg.Algos
	}
	for _, f := range RegressionFixtures() {
		g, err := f.Build()
		if err != nil {
			return BenchReport{}, fmt.Errorf("building %s: %w", f.Name, err)
		}
		for _, a := range algos {
			best, res, err := TimeAlgorithm(a, g, cfg)
			if err != nil {
				return BenchReport{}, fmt.Errorf("%s on %s: %w", a, f.Name, err)
			}
			rec := BenchRecord{
				Algorithm:      string(a),
				Dataset:        f.Name,
				Vertices:       g.NumVertices(),
				Edges:          g.NumEdges(),
				Iterations:     res.Iterations,
				NsPerRun:       best.Nanoseconds(),
				EdgesPerSec:    float64(g.NumEdges()) / best.Seconds(),
				Reps:           cfg.reps(),
				PushIterations: res.PushIterations,
				PullIterations: res.PullIterations,
			}
			if res.Stats != nil && len(res.Stats.PhaseDurations) > 0 {
				rec.PhaseNs = make(map[string]int64, len(res.Stats.PhaseDurations))
				for kind, d := range res.Stats.PhaseDurations {
					rec.PhaseNs[kind] = d.Nanoseconds()
				}
			}
			if res.Stats != nil {
				rec.Selected = string(res.Stats.Selected)
			}
			rep.Records = append(rep.Records, rec)
			if cfg.Trace != nil {
				// One extra instrumented run per cell, outside the timed
				// loop: the counting path produces the iteration stream the
				// trace needs, so it must never contribute to NsPerRun.
				if err := traceCell(a, g, f.Name, cfg); err != nil {
					return BenchReport{}, fmt.Errorf("tracing %s on %s: %w", a, f.Name, err)
				}
			}
		}
	}
	return rep, nil
}

// traceCell runs one instrumented repetition and appends its per-iteration
// records to cfg.Trace.
func traceCell(a cc.Algorithm, g *graph.Graph, dataset string, cfg RunConfig) error {
	inst := &cc.Instrumentation{}
	res, err := cc.RunContext(cfg.ctx(), a, g, cfg.opts(cc.WithInstrumentation(inst))...)
	if err != nil {
		return err
	}
	// Auto runs additionally record which algorithm the probe chose and why.
	if err := cfg.Trace.WriteSelector(dataset, 0, res.Stats); err != nil {
		return err
	}
	return cfg.Trace.WriteRun(string(a), dataset, 0, inst.Iterations)
}

// Table renders the report for the console.
func (r BenchReport) Table() *Table {
	t := &Table{
		ID:      "bench",
		Title:   "Perf regression (uninstrumented fast path, min of reps)",
		Columns: []string{"algorithm", "dataset", "ms/run", "Medges/s", "iters", "edges", "reps"},
	}
	for _, rec := range r.Records {
		algo := rec.Algorithm
		if rec.Selected != "" {
			algo += ":" + rec.Selected
		}
		t.AddRow(algo, rec.Dataset, Millis(time.Duration(rec.NsPerRun)),
			rec.EdgesPerSec/1e6, rec.Iterations, rec.Edges, rec.Reps)
	}
	return t
}
