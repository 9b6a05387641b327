// Command e2ebench is the repository's end-to-end benchmark. It generates one
// workload's input from a seed, writes it to a file, drives the system from
// that file through the public functions of cc, graph, internal/serve,
// internal/shard and internal/dist, checks every output against the
// sequential oracle, and prints its metrics as one JSON object on the last
// line of standard output.
//
//	e2ebench --workload rmat-solve --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, timed around calls into each package from
// outside. README.md lists the workloads, the metrics and which layer metric
// is expected to move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workload is one benchmark input plus the way it is driven.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"rmat-solve", runRMATSolve},
	{"web-solve", runWebSolve},
	{"rmat-serve", runRMATServe},
	{"rmat-shard", runRMATShard},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: rmat-solve, web-solve, rmat-serve or rmat-shard")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 12, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
		data    = flag.String("data", ".bench_build/data", "directory for generated input files (removed after the run)")
	)
	flag.Parse()
	res, err := benchmark(os.Stdout, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *data, "full")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs one workload and returns its result line. The host and
// working-set stamp is written to stamp.
func benchmark(stamp io.Writer, name string, seed uint64, seconds time.Duration, traced bool, dataDir, size string) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	sz, ok := sizes[size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", size)
	}
	if seconds < 100*time.Millisecond {
		return nil, fmt.Errorf("--seconds must be at least 0.1")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(dataDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{seed: seed, seconds: seconds, traced: traced, dir: dir, size: sz, values: map[string]float64{}, wall: map[string]float64{}, cpuStart: readCPUTimes()}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := printStamp(stamp, name, r); err != nil {
		return nil, err
	}
	return r.result()
}

// runner carries one run's settings and collects its outcome.
type runner struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string
	size    sizing

	attempted, failed int64
	// values holds the metrics measured so far, by name; result fills in
	// the metrics the workload does not exercise with zero.
	values map[string]float64
	// wall holds the stamp's wall-clock figures, by name.
	wall map[string]float64
	// csrBytes, vertices and edges describe the workload's graph for the
	// working-set stamp.
	csrBytes        int64
	vertices        int
	edges           int64
	failureExamples []string
	// cpuStart is the CPU time totals when the run began, for the stamp's
	// share of stolen time.
	cpuStart cpuTimes
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

// setWall records a wall-clock counterpart of an end-to-end metric for
// the stamp line.
func (r *runner) setWall(name string, v float64) { r.wall[name] = v }

// fail records one failed operation with a short reason; the first few
// reasons are kept for the stamp line.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failureExamples) < 5 {
		r.failureExamples = append(r.failureExamples, fmt.Sprintf(format, args...))
	}
}

// result assembles the output line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (r *runner) result() (*result, error) {
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]measure{}}
	for _, m := range list {
		res.Metrics[m.name] = measure{Value: r.values[m.name], Unit: m.unit}
	}
	if !r.traced {
		for _, m := range endToEnd {
			if _, ok := r.values[m.name]; !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
		}
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	res.Correct = r.failed == 0
	return res, nil
}
