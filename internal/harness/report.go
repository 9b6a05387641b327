package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// This file is the one bench-report framework the four perf suites share:
// the host stamp, the Report interface, the JSON writer and the stamp
// reader. Each suite keeps its own record types, schema string and JSON
// layout; rendering goes through the same Table the experiments print with.

// HostStamp identifies the machine and toolchain a benchmark report was
// produced on: absolute throughput is machine-dependent, so reports are
// primarily read as same-machine trajectories and Mismatch flags comparisons
// across differing hosts. It embeds flat into report structs, so every
// BENCH layout stores it as top-level fields.
type HostStamp struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Threads    int    `json:"threads"` // 0 = GOMAXPROCS pool
}

// Host returns the stamp itself; embedding promotes it, so every report
// type meets Report through its HostStamp.
func (h HostStamp) Host() HostStamp { return h }

// currentHostStamp stamps the running process's host and the configured
// worker-thread count.
func currentHostStamp(threads int) HostStamp {
	return HostStamp{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Threads:    threads,
	}
}

// Mismatch compares two host stamps and returns a human-readable line per
// differing field (empty when comparable). A perf delta measured across any
// mismatch is not a code regression signal.
func (h HostStamp) Mismatch(prev HostStamp) []string {
	var out []string
	diff := func(field string, old, new any) {
		out = append(out, fmt.Sprintf("%s changed: %v -> %v", field, old, new))
	}
	if prev.GoMaxProcs != h.GoMaxProcs {
		diff("gomaxprocs", prev.GoMaxProcs, h.GoMaxProcs)
	}
	if prev.NumCPU != h.NumCPU {
		diff("numcpu", prev.NumCPU, h.NumCPU)
	}
	if prev.GoVersion != h.GoVersion {
		diff("go version", prev.GoVersion, h.GoVersion)
	}
	if prev.GOOS != h.GOOS {
		diff("goos", prev.GOOS, h.GOOS)
	}
	if prev.GOARCH != h.GOARCH {
		diff("goarch", prev.GOARCH, h.GOARCH)
	}
	if prev.Threads != h.Threads {
		diff("threads", prev.Threads, h.Threads)
	}
	return out
}

// Report is one perf suite's result (BenchReport, IngestReport,
// ServeReport, ShardReport): a host stamp plus a console rendering.
type Report interface {
	Host() HostStamp
	Table() *Table
}

// WriteReport serializes a report to path, indented for reviewable diffs.
func WriteReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadHostStamp loads the host stamp of a previously written report of any
// suite: every layout stores the stamp as flat top-level fields.
func ReadHostStamp(path string) (HostStamp, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return HostStamp{}, err
	}
	var h HostStamp
	if err := json.Unmarshal(data, &h); err != nil {
		return HostStamp{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return h, nil
}

// RegressionFixture is one deterministic graph of the perf suites.
type RegressionFixture struct {
	Name  string
	Build func() (*graph.Graph, error)
}

// suiteFixtures returns the three seed-deterministic fixtures the suites
// share, at a scale: an RMAT social analog (pull-heavy, few iterations), a
// web-crawl analog (skewed core plus pendant chains, the push-heavy
// many-iteration regime) and a pure star (the hub-dominated extreme where
// zero-convergence suppression does maximal work). ScaleSmall is the one
// small-scale list, for tests and CI smoke; every other scale runs the
// medium fixtures the committed BENCH files record.
func suiteFixtures(scale Scale) (rmat, web, star RegressionFixture) {
	if scale == ScaleSmall {
		return RegressionFixture{"rmat-small", func() (*graph.Graph, error) {
				return gen.RMATCompact(gen.DefaultRMAT(14, 8, 42))
			}},
			RegressionFixture{"weblike-small", func() (*graph.Graph, error) {
				return gen.Web(gen.DefaultWeb(13, 42))
			}},
			RegressionFixture{"star-small", func() (*graph.Graph, error) {
				return gen.Star(1 << 14)
			}}
	}
	return RegressionFixture{"rmat-medium", func() (*graph.Graph, error) {
			return gen.RMATCompact(gen.DefaultRMAT(17, 16, 42))
		}},
		RegressionFixture{"weblike-medium", func() (*graph.Graph, error) {
			return gen.Web(gen.DefaultWeb(16, 42))
		}},
		RegressionFixture{"star-large", func() (*graph.Graph, error) {
			return gen.Star(1 << 20)
		}}
}
