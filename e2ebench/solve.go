package main

import (
	"context"
	"runtime"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
)

// runRMATSolve is the paper's target regime: a hub-dominated social graph
// read as a text edge list, then solved back to back. The selector picks
// Thrifty and the solve is pull-dominated.
func runRMATSolve(r *runner) error {
	g, err := rmatGraph(r.size.rmatScale, r.seed)
	if err != nil {
		return err
	}
	path, err := r.writeInput(g, "rmat.el")
	if err != nil {
		return err
	}
	return r.solveWorkload(path)
}

// runWebSolve is the web-crawl regime: binary CSR read through mmap (no
// text parsing), then solved back to back; long chains keep Thrifty in
// dozens of sparse push iterations.
func runWebSolve(r *runner) error {
	g, err := webGraph(r.size.webScale, r.seed)
	if err != nil {
		return err
	}
	path, err := r.writeInput(g, "web.bin")
	if err != nil {
		return err
	}
	return r.solveWorkload(path)
}

// solve runs one auto-selected solve and checks it against o. It returns
// the result and its wall and CPU time, or ok=false after counting a
// failure.
func (r *runner) solve(g *graph.Graph, o *oracle, opts ...cc.Option) (res cc.Result, wall, cpu time.Duration, ok bool) {
	r.attempted++
	c, start := cpuNow(), time.Now()
	res, err := cc.RunContext(context.Background(), cc.AlgoAuto, g, opts...)
	wall, cpu = time.Since(start), cpuNow()-c
	if err == nil {
		err = o.checkLabels(res.Labels)
	}
	if err != nil {
		r.fail("solve: %v", err)
		return res, wall, cpu, false
	}
	return res, wall, cpu, true
}

// solveWorkload measures path (a) without serving: edge file → ingest →
// select → solve.
func (r *runner) solveWorkload(path string) error {
	var (
		setups, reloads, loads, builds, validates, residuals []float64
		setupCPU, reloadCPU, mbPerS                          []float64
		g                                                    *graph.Graph
		o                                                    *oracle
	)
	for i := 0; r.moreSetups(i, reloads); i++ {
		if g != nil {
			if err := g.Close(); err != nil {
				return err
			}
			g = nil
			runtime.GC()
		}
		c, start := cpuNow(), time.Now()
		gi, st, err := graph.Ingest(path)
		if err != nil {
			return err
		}
		setup, setupC := time.Since(start), cpuNow()-c
		g = gi
		var validate time.Duration
		if r.traced {
			t := time.Now()
			if err := g.Validate(); err != nil {
				return err
			}
			validate = time.Since(t)
		}
		res, err := cc.RunContext(context.Background(), cc.AlgoAuto, g)
		if err != nil {
			return err
		}
		reload, reloadC := time.Since(start), cpuNow()-c
		if o == nil {
			o = newOracle(g)
		}
		r.attempted++
		if err := o.checkLabels(res.Labels); err != nil {
			r.fail("first solve: %v", err)
		}
		setups = append(setups, setup.Seconds())
		reloads = append(reloads, reload.Seconds())
		setupCPU = append(setupCPU, setupC.Seconds())
		reloadCPU = append(reloadCPU, reloadC.Seconds())
		loads = append(loads, ms(st.LoadDuration))
		builds = append(builds, ms(st.BuildDuration))
		validates = append(validates, ms(validate))
		mbPerS = append(mbPerS, float64(st.Bytes)/(1<<20)/st.Total().Seconds())
		accounted := st.Total() + validate + res.Stats.Duration
		residuals = append(residuals, ms(reload-accounted))
	}
	defer g.Close()
	r.setSetups(setupCPU, reloadCPU, setups, reloads)

	if !r.traced {
		mem := startMemSampler(nil)
		times := r.solveLoop(g, o, r.seconds, nil)
		r.set("mem_peak_mb", mem.peakMB()+float64(g.MappedBytes())/(1<<20))
		r.setOpStats(times, 50)
		return nil
	}

	r.set("graph.load_ms", median(loads))
	r.set("graph.build_ms", median(builds))
	r.set("graph.validate_ms", median(validates))
	r.set("graph.ingest_mb_per_s", median(mbPerS))
	r.set("trace.residual_ms", median(residuals))
	r.set("trace.residual_frac", median(residuals)/(median(reloads)*1000))

	base := r.solveLoop(g, o, r.seconds/2, nil)
	var stats []*cc.RunStats
	var iters, pushes, pulls []float64
	before := readRuntime()
	traced := r.solveLoop(g, o, r.seconds/2, func(res *cc.Result) {
		stats = append(stats, res.Stats)
		iters = append(iters, float64(res.Iterations))
		pushes = append(pushes, float64(res.PushIterations))
		pulls = append(pulls, float64(res.PullIterations))
	})
	r.setRuntime(before, len(traced.wall))
	r.set("trace.overhead_ms", median(traced.wall)-median(base.wall))
	r.setSolveLayers(stats)
	r.set("core.iterations", median(iters))
	r.set("core.push_iterations", median(pushes))
	r.set("core.pull_iterations", median(pulls))

	// Event counting switches the kernels to their counting path, so it
	// runs once, apart from the timed solves.
	inst := &cc.Instrumentation{}
	if _, _, _, ok := r.solve(g, o, cc.WithInstrumentation(inst)); ok {
		r.set("core.edge_frac", float64(inst.Events["edges"])/float64(g.NumDirectedEdges()))
	}
	return nil
}

// solveLoop solves back to back for at least d and at least minOps solves,
// checking each result outside the timed interval, and returns the solve
// times. record, when set, receives every correct result.
func (r *runner) solveLoop(g *graph.Graph, o *oracle, d time.Duration, record func(*cc.Result)) opTimes {
	var t opTimes
	deadline := time.Now().Add(d)
	for len(t.wall) < r.size.minOps || time.Now().Before(deadline) {
		res, wall, cpu, ok := r.solve(g, o)
		t.add(wall, cpu)
		if ok && record != nil {
			record(&res)
		}
	}
	return t
}

// setSetups reports the median set-up and reload CPU times of the set-up
// repetitions, in seconds, and puts the wall-clock medians in the stamp.
func (r *runner) setSetups(setupCPU, reloadCPU, setupWall, reloadWall []float64) {
	r.set("setup_s", median(setupCPU))
	r.set("reload_cpu_s", median(reloadCPU))
	r.setWall("setup_s", median(setupWall))
	r.setWall("reload_s", median(reloadWall))
}

// setSolveLayers reports the probe, kernel-phase and scheduler breakdown
// of a set of solves, as medians per solve.
func (r *runner) setSolveLayers(stats []*cc.RunStats) {
	var probe, other, idle, jobs, failedSteals []float64
	phases := map[string][]float64{}
	var owned, stolen int64
	for _, st := range stats {
		var p time.Duration
		if st.Probe != nil {
			p = st.Probe.Cost
		}
		probe = append(probe, us(p))
		rest := st.Duration - p
		for kind := range kernelPhases {
			phases[kind] = append(phases[kind], ms(st.PhaseDuration(kind)))
			rest -= st.PhaseDuration(kind)
		}
		other = append(other, ms(rest))
		idle = append(idle, ms(st.Sched.PoolIdle))
		jobs = append(jobs, float64(st.Sched.PoolJobs))
		failedSteals = append(failedSteals, float64(st.Sched.FailedSteals))
		owned += st.Sched.PartitionsOwned
		stolen += st.Sched.PartitionsStolen
	}
	r.set("stats.probe_us", median(probe))
	r.set("cc.other_ms", median(other))
	for kind, name := range kernelPhases {
		r.set(name, median(phases[kind]))
	}
	r.set("parallel.idle_ms", median(idle))
	r.set("parallel.jobs", median(jobs))
	r.set("parallel.failed_steals", median(failedSteals))
	if owned+stolen > 0 {
		r.set("parallel.stolen_frac", float64(stolen)/float64(owned+stolen))
	}
}

// kernelPhases maps RunStats phase kinds to their metric names.
var kernelPhases = map[string]string{
	"initial-push":  "core.initial_push_ms",
	"pull":          "core.pull_ms",
	"pull-frontier": "core.pull_frontier_ms",
	"push":          "core.push_ms",
}
