package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"thriftylp/cc"
	"thriftylp/internal/obs"
	"thriftylp/internal/serve"
)

// serveSizing sets the query server workload's rates and schedule.
type serveSizing struct {
	// nominalRate is the fixed open-loop query rate (per second) of the
	// traced run's reload phase.
	nominalRate float64
	// reloads is how many POST /reload the reload phase issues.
	reloads int
}

// runRMATServe is path (a) with serving: the RMAT graph as binary CSR
// behind an in-process query server on loopback, queried by nproc clients
// that each wait for their answer (a closed loop), first alone and then
// beside reloads of the same file. The traced run adds an open loop at a
// fixed rate.
func runRMATServe(r *runner) error {
	g, err := rmatGraph(r.size.rmatScale, r.seed)
	if err != nil {
		return err
	}
	path, err := r.writeInput(g, "rmat.bin")
	if err != nil {
		return err
	}

	var setups, setupCPU []float64
	var srv *serve.Server
	for i := 0; r.moreSetups(i, setups); i++ {
		if srv != nil {
			srv.Source().Retire()
			runtime.GC()
		}
		c, start := cpuNow(), time.Now()
		srv = serve.New(serve.Config{Path: path})
		if err := srv.Load(context.Background()); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupCPU = append(setupCPU, (cpuNow() - c).Seconds())
	}
	r.set("setup_s", median(setupCPU))
	r.setWall("setup_s", median(setups))

	sn := srv.Source().Acquire()
	if sn == nil {
		return errors.New("no snapshot after load")
	}
	o := newOracle(sn.Graph)
	labels := slices.Clone(sn.Result.Labels)
	mapped := sn.Graph.MappedBytes()
	sn.Release()
	r.attempted++
	if err := o.checkLabels(labels); err != nil {
		r.fail("published labels: %v", err)
	}

	rng := rand.New(rand.NewPCG(r.seed, 1))
	sz := r.size.serve
	qs := queryMix(rng, 1<<16, labels)
	if !r.traced {
		// Everything the load generator keeps is allocated before the
		// memory sampler starts and is fixed in size, so the peak does not
		// grow with the server's throughput.
		quiet, beside := newSamples(r.seconds/2), newSamples(r.seconds/2)
		mem := startMemSampler(mappedPoll(path, mapped))
		s, err := startSession(srv)
		if err != nil {
			return err
		}
		q, _ := r.closed(s, o, labels, rng, qs, quiet, 0)
		_, reloads := r.closed(s, o, labels, rng, qs, beside, sz.reloads)
		r.set("mem_peak_mb", mem.peakMB())
		// Reload CPU time is taken with no queries in flight, whose CPU
		// time would otherwise count in it.
		var idle, idleCPU []float64
		for i := 0; r.moreSetups(i, idle); i++ {
			r.attempted++
			wall, cpu, err := s.reload()
			if err != nil {
				r.fail("%v", err)
				continue
			}
			idle = append(idle, wall.Seconds())
			idleCPU = append(idleCPU, cpu.Seconds())
		}
		r.probe(s, o, labels, rng)
		if err := s.close(); err != nil {
			return err
		}
		rates := make([]float64, len(q.cpuMs))
		for i, c := range q.cpuMs {
			rates[i] = float64(runtime.GOMAXPROCS(0)) * 1000 / c
		}
		r.set("op_cpu_ms_p50", median(q.cpuMs))
		r.set("op_cpu_ms_tail", quantile(q.cpuMs, 0.9))
		r.set("max_rate_per_s", median(rates))
		r.set("reload_cpu_s", median(idleCPU))
		r.setWall("op_ms_p50", quiet.windowed(0.5)/1000)
		r.setWall("op_ms_tail", quiet.windowed(0.9)/1000)
		r.setWall("rate_per_s", median(q.rates))
		r.setWall("reload_s", median(reloads))
		r.setWall("idle_reload_s", median(idle))
		return nil
	}

	// Traced: the quiet closed loop on the untraced server gives the
	// overhead base; then a server whose slow-query log keeps every
	// request span in memory runs it again, and then takes queries in an
	// open loop at the nominal rate beside reloads.
	s, err := startSession(srv)
	if err != nil {
		return err
	}
	base, _ := r.closed(s, o, labels, rng, qs, newSamples(r.seconds/4), 0)
	if err := s.close(); err != nil {
		return err
	}
	var spans bytes.Buffer
	tw := obs.NewTraceWriter(&spans)
	reg := obs.NewRegistry()
	srv = serve.New(serve.Config{Path: path, Registry: reg, SlowLog: obs.NewSlowLog(tw, 0, 0)})
	if err := srv.Load(context.Background()); err != nil {
		return err
	}
	if s, err = startSession(srv); err != nil {
		return err
	}
	before := readRuntime()
	quiet, _ := r.closed(s, o, labels, rng, qs, newSamples(r.seconds/4), 0)
	loaded, reloads := r.open(s, o, labels, rng, r.seconds/2, sz.reloads)
	r.setRuntime(before, int(quiet.answered+loaded.answered))
	conns := s.lg.dialed.Load()
	// The kernel runs only inside reloads; report the last reload's solve.
	if sn := srv.Source().Acquire(); sn != nil {
		r.setSolveLayers([]*cc.RunStats{sn.Result.Stats})
		r.set("core.iterations", float64(sn.Result.Iterations))
		r.set("core.push_iterations", float64(sn.Result.PushIterations))
		r.set("core.pull_iterations", float64(sn.Result.PullIterations))
		sn.Release()
	}
	if err := s.close(); err != nil {
		return err
	}
	if err := tw.Close(); err != nil {
		return err
	}
	recs, err := obs.ReadTrace(&spans)
	if err != nil {
		return err
	}
	r.set("trace.overhead_ms", (quiet.lat.windowed(0.5)-base.lat.windowed(0.5))/1000)
	r.set("loadgen.lag_us_p50", quantile(loaded.lag, 0.5))
	r.set("loadgen.lag_us_p99", quantile(loaded.lag, 0.99))
	r.set("loadgen.conns_opened", float64(conns))
	r.set("loadgen.backlog_max", float64(loaded.backlogMax))
	r.set("serve.shed", float64(reg.Counter(serve.MetricShed)))
	r.set("serve.reload_query_ms_p99", quantile(loaded.lat.all(), 0.99)/1000)
	r.setServeLayers(recs, slices.Concat(quiet.lat.all(), loaded.svc), reloads)
	return nil
}

// setServeLayers reports the request-span and reload-span breakdown. The
// first reload record is the initial load, before the measured phase.
func (r *runner) setServeLayers(recs []obs.TraceRecord, svc, reloads []float64) {
	var queue, acquire, handler, encode, total []float64
	var ingest, validate, solve, publish, residual []float64
	for _, rec := range recs {
		switch {
		case rec.Kind == obs.KindRequest && rec.Status == http.StatusOK:
			queue = append(queue, float64(rec.QueueNs)/1e3)
			acquire = append(acquire, float64(rec.AcquireNs)/1e3)
			handler = append(handler, float64(rec.HandlerNs)/1e3)
			encode = append(encode, float64(rec.EncodeNs)/1e3)
			total = append(total, float64(rec.DurationNs)/1e3)
		case rec.Kind == obs.KindReload:
			ingest = append(ingest, float64(rec.LoadNs)/1e6)
			validate = append(validate, float64(rec.ValidateNs)/1e6)
			solve = append(solve, float64(rec.SolveNs)/1e6)
			publish = append(publish, float64(rec.PublishNs)/1e3)
		}
	}
	if len(ingest) > 0 {
		ingest, validate, solve, publish = ingest[1:], validate[1:], solve[1:], publish[1:]
	}
	// Path (a)'s residual: the reload time the client saw, less the
	// ingest, validate, solve and publish spans the server reported.
	for i := range min(len(reloads), len(ingest)) {
		accounted := ingest[i] + validate[i] + solve[i] + publish[i]/1e3
		residual = append(residual, reloads[i]*1e3-accounted)
	}
	r.set("serve.queue_us_p50", quantile(queue, 0.5))
	r.set("serve.queue_us_p99", quantile(queue, 0.99))
	r.set("serve.acquire_us_p50", quantile(acquire, 0.5))
	r.set("serve.handler_us_p50", quantile(handler, 0.5))
	r.set("serve.handler_us_p99", quantile(handler, 0.99))
	r.set("serve.encode_us_p50", quantile(encode, 0.5))
	r.set("serve.transport_us_p50", quantile(svc, 0.5)-quantile(total, 0.5))
	r.set("serve.load_ingest_ms", median(ingest))
	r.set("serve.load_validate_ms", median(validate))
	r.set("serve.load_solve_ms", median(solve))
	r.set("serve.publish_us", median(publish))
	r.set("trace.residual_ms", median(residual))
	r.set("trace.residual_frac", median(residual)/(median(reloads)*1e3))
}

// session is a server listening on loopback with its load generator and
// a separate control client for reloads.
type session struct {
	srv    *serve.Server
	addr   string
	lg     *loadgen
	ctl    *http.Client
	served chan error
}

func startSession(srv *serve.Server) (*session, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	s.lg = newLoadgen(s.addr, runtime.NumCPU())
	s.ctl = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1}}
	return s, nil
}

// close drains the server and waits for Serve to return.
func (s *session) close() error {
	s.lg.close()
	s.ctl.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// open runs queries in an open loop at the nominal rate for d, beside
// reloads reloads (see beside).
func (r *runner) open(s *session, o *oracle, labels []uint32, rng *rand.Rand, d time.Duration, reloads int) (*phase, []float64) {
	qs := queryMix(rng, int(r.size.serve.nominalRate*d.Seconds()), labels)
	return r.beside(s, o, labels, rng, d, reloads, func(check func(query, []byte) error) *phase {
		return s.lg.run(r.size.serve.nominalRate, qs, check)
	})
}

// closed runs qs in a closed loop for the windows of lat, beside reloads
// reloads.
func (r *runner) closed(s *session, o *oracle, labels []uint32, rng *rand.Rand, qs []query, lat *samples, reloads int) (*phase, []float64) {
	d := lat.span * time.Duration(len(lat.kept))
	return r.beside(s, o, labels, rng, d, reloads, func(check func(query, []byte) error) *phase {
		return s.lg.closedLoop(lat, qs, check)
	})
}

// beside runs the query load for d with reloads reloads spread evenly over
// it. Before and after each reload the control client checks a
// /component, /same and /census answer. It returns the query phase and
// each reload's time from POST to its 200 response, in seconds.
func (r *runner) beside(s *session, o *oracle, labels []uint32, rng *rand.Rand, d time.Duration, reloads int,
	load func(check func(query, []byte) error) *phase) (*phase, []float64) {
	var probes [][]query
	for range 2 * reloads {
		probes = append(probes, probeQueries(rng, len(labels)))
	}
	check := func(q query, body []byte) error { return o.checkAnswer(q, labels, body) }

	var (
		took      []float64
		attempted int64
		wg        sync.WaitGroup
		failures  []string
	)
	probe := func(k int) {
		attempted += int64(len(probes[k]))
		failures = append(failures, s.probe(probes[k], check)...)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for k := 0; k < reloads; k++ {
			at := start.Add(time.Duration((float64(k) + 0.5) / float64(reloads) * float64(d)))
			time.Sleep(time.Until(at))
			probe(2 * k)
			attempted++
			wall, _, err := s.reload()
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			took = append(took, wall.Seconds())
			probe(2*k + 1)
		}
	}()
	p := load(check)
	wg.Wait()
	r.absorb(p)
	r.attempted += attempted
	for _, f := range failures {
		r.fail("%s", f)
	}
	return p, took
}

// probeQueries draws one /component, /same and /census query.
func probeQueries(rng *rand.Rand, n int) []query {
	u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
	return []query{{endpoint: "component", v: v}, {endpoint: "same", u: u, v: v}, {endpoint: "census"}}
}

// probe sends qs on the control client and returns the failed checks.
func (s *session) probe(qs []query, check func(query, []byte) error) []string {
	var failures []string
	for _, q := range qs {
		body, err := get(s.ctl, "http://"+s.addr+q.path())
		if err == nil {
			err = check(q, body)
		}
		if err != nil {
			failures = append(failures, err.Error())
		}
	}
	return failures
}

// probe checks one round of probe queries against the oracle.
func (r *runner) probe(s *session, o *oracle, labels []uint32, rng *rand.Rand) {
	qs := probeQueries(rng, len(labels))
	r.attempted += int64(len(qs))
	for _, f := range s.probe(qs, func(q query, body []byte) error { return o.checkAnswer(q, labels, body) }) {
		r.fail("%s", f)
	}
}

// reload sends one POST /reload on the control client and returns its
// wall and process CPU time from POST to the 200 response.
func (s *session) reload() (wall, cpu time.Duration, err error) {
	c, t := cpuNow(), time.Now()
	resp, err := s.ctl.Post("http://"+s.addr+"/reload", "", nil)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // lets the connection be reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("reload: status %d", resp.StatusCode)
		}
	}
	return time.Since(t), cpuNow() - c, err
}

// absorb counts a phase's queries and failures into the run.
func (r *runner) absorb(p *phase) {
	r.attempted += p.attempted
	for _, f := range p.failures {
		r.fail("%s", f)
	}
	r.failed += p.failed - int64(len(p.failures))
}
