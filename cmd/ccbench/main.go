// Command ccbench regenerates the tables and figures of the Thrifty Label
// Propagation paper's evaluation section on the synthetic analog suite.
//
// Usage:
//
//	ccbench -exp table4                 # one experiment
//	ccbench -exp all -scale small       # everything, quickly
//	ccbench -exp fig5 -scale large -reps 5 -csv out.csv
//
// Experiment ids follow the paper's numbering: table1, table2, table4,
// table5, table6, table7, fig1, fig2, fig3, fig5, fig6, fig7, fig9.
//
// The perf suites write machine-readable results instead, each to the file
// its flag names; `make bench-json` runs all four to refresh BENCH_*.json:
//
//   - -ingest-json: edge-list and binary CSR ingestion, frozen sequential
//     baseline vs the parallel zero-copy pipeline.
//   - -serve-json: a real thriftyd query server on a loopback listener under
//     concurrent clients; per-endpoint QPS and latency percentiles.
//   - -shard-json: the out-of-core sharded pipeline at several shard counts
//     against unsharded Thrifty, plus streamed-generator memory. The run
//     FAILS if the compacted exchange does not beat the naive encoding or
//     suppression never fires.
//   - -json: uninstrumented fast-path timings of every label-propagation
//     kernel and auto; -algo narrows the set, -trace records one
//     instrumented run per cell.
//
// Any combination runs in one invocation, in the order listed, and replaces
// the experiments. Each suite warns when the file it overwrites was
// recorded on a different host.
//
//	ccbench -json BENCH_thrifty.json -reps 5
//	ccbench -json auto.json -algo auto
//	ccbench -ingest-json i.json -serve-json s.json -shard-json d.json -scale small -reps 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"thriftylp/cc"
	"thriftylp/internal/harness"
	"thriftylp/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see package doc) or 'all'")
		scale   = flag.String("scale", "medium", "dataset scale: small, medium, large")
		reps    = flag.Int("reps", 3, "timed repetitions per measurement (min is reported)")
		threads = flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
		csvPath = flag.String("csv", "", "also append results as CSV to this file")
		jsonOut = flag.String("json", "", "run the perf-regression suite and write JSON results to this file")
		algoSel = flag.String("algo", "", "with -json: comma-separated algorithms to time (e.g. 'auto' or 'thrifty,auto'); empty = default regression set")
		ingOut  = flag.String("ingest-json", "", "run the ingestion regression suite and write JSON results to this file")
		srvOut  = flag.String("serve-json", "", "run the serving load test and write JSON results to this file")
		shdOut  = flag.String("shard-json", "", "run the sharded-exchange regression gate and write JSON results to this file")
		list    = flag.Bool("list", false, "list available experiments and exit")
		timeout = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		trace   = flag.String("trace", "", "with -json: write per-iteration trace records of one instrumented run per cell to this JSONL file")
		httpAd  = flag.String("http", "", "serve /metrics, expvar and /debug/pprof on this address while the suite runs")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(harness.Experiments(), "\n"))
		return
	}

	// SIGINT or -timeout cancels cooperatively: the in-flight algorithm
	// stops at its next iteration boundary and ccbench exits non-zero,
	// instead of leaving a multi-hour benchmark unkillable except by
	// SIGKILL. A second SIGINT kills immediately.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}

	// An unknown scale would silently fall through to the fixture helpers'
	// default (medium) sizes.
	switch harness.Scale(*scale) {
	case harness.ScaleSmall, harness.ScaleMedium, harness.ScaleLarge:
	default:
		fatalf("unknown -scale %q (valid: %s, %s, %s)", *scale, harness.ScaleSmall, harness.ScaleMedium, harness.ScaleLarge)
	}
	cfg := harness.RunConfig{
		Scale:   harness.Scale(*scale),
		Reps:    *reps,
		Threads: *threads,
		Ctx:     ctx,
	}

	if *trace != "" && *jsonOut == "" {
		fatalf("-trace requires -json (tracing instruments the regression suite cells)")
	}
	if *algoSel != "" {
		if *jsonOut == "" {
			fatalf("-algo requires -json (it restricts the regression suite; experiments fix their own algorithms)")
		}
		for _, name := range strings.Split(*algoSel, ",") {
			a := cc.Algorithm(strings.TrimSpace(name))
			if !slices.Contains(cc.Algorithms(), a) {
				fatalf("unknown algorithm %q (known: %v)", a, cc.Algorithms())
			}
			cfg.Algos = append(cfg.Algos, a)
		}
	}
	if *httpAd != "" {
		srv, err := obs.Serve(*httpAd, obs.NewRegistry(), nil)
		if err != nil {
			fatalf("%v", err)
		}
		defer srv.Close()
		fmt.Printf("debug server listening on %s\n", srv.URL())
	}

	if *trace != "" {
		tw, err := obs.CreateTrace(*trace)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := tw.Close(); err != nil {
				fatalf("closing trace: %v", err)
			}
		}()
		cfg.Trace = tw
	}
	suites := []struct {
		out  string
		name string
		run  func(harness.RunConfig) (harness.Report, error)
	}{
		{*ingOut, "ingestion suite", report(harness.IngestRegression)},
		{*srvOut, "serving load test", report(harness.ServeRegression)},
		{*shdOut, "sharded regression gate", report(harness.ShardRegression)},
		{*jsonOut, "regression suite", report(harness.BenchRegression)},
	}
	ranSuite := false
	for _, s := range suites {
		if s.out == "" {
			continue
		}
		ranSuite = true
		// The previous stamp is read before the file is overwritten, so a
		// host change between the two measurements can be flagged: a delta
		// across differing hosts is not a code regression signal.
		prev, prevErr := harness.ReadHostStamp(s.out)
		start := time.Now()
		rep, err := s.run(cfg)
		if err != nil {
			fatalf("%s: %v", s.name, err)
		}
		if err := harness.WriteReport(s.out, rep); err != nil {
			fatalf("writing %s: %v", s.out, err)
		}
		if prevErr == nil {
			for _, line := range rep.Host().Mismatch(prev) {
				fmt.Fprintf(os.Stderr, "ccbench: warning: host mismatch vs previous %s: %s\n", s.out, line)
			}
		}
		fmt.Print(rep.Table().Render())
		fmt.Printf("(%s completed in %v, wrote %s)\n",
			s.name, time.Since(start).Round(time.Millisecond), s.out)
	}
	if ranSuite {
		return
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.Experiments()
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatalf("opening %s: %v", *csvPath, err)
		}
		defer f.Close()
		csv = f
	}

	for _, id := range ids {
		start := time.Now()
		t, err := harness.RunExperiment(id, cfg)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fatalf("experiment %s: timeout after %v", id, *timeout)
			}
			if errors.Is(err, context.Canceled) {
				fatalf("experiment %s: interrupted", id)
			}
			fatalf("experiment %s: %v", id, err)
		}
		fmt.Println(t.Render())
		fmt.Printf("(%s completed in %v at scale %s)\n\n", id, time.Since(start).Round(time.Millisecond), cfg.Scale)
		if csv != nil {
			fmt.Fprintf(csv, "# %s\n%s\n", id, t.CSV())
		}
	}
}

// report adapts a suite runner to return the shared Report interface.
func report[R harness.Report](run func(harness.RunConfig) (R, error)) func(harness.RunConfig) (harness.Report, error) {
	return func(cfg harness.RunConfig) (harness.Report, error) { return run(cfg) }
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ccbench: "+format+"\n", args...)
	os.Exit(1)
}
