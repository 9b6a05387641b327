package harness

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"thriftylp/graph"
	"thriftylp/internal/obs"
	"thriftylp/internal/retry"
	"thriftylp/internal/serve"
)

// This file is the serving-layer load-test harness: it stands up a real
// internal/serve server (real listener, real HTTP stack, admission control
// on) over the regression fixture graph and drives it with concurrent
// clients, reporting QPS and latency percentiles per endpoint to
// BENCH_serve.json. Like the kernel and ingestion gates, the report is a
// same-host trajectory: a serving regression (slower queries, collapsed
// admission, reload stalls) shows up as a diff in a checked-in JSON file.

// ServeSchema identifies the BENCH_serve.json layout. v2 added the
// server-side histogram percentiles (server_p50_ns/server_p99_ns/
// server_count) next to the client-observed ones.
const ServeSchema = "thriftylp/bench-serve/v2"

// ServeRecord is one endpoint's load-test measurement.
type ServeRecord struct {
	Endpoint string `json:"endpoint"`
	// Requests/Shed/Errors decompose the client attempts: 200s, 429
	// sheds (retried by the client, counted where they happened), and
	// anything else.
	Requests int `json:"requests"`
	Shed     int `json:"shed"`
	Errors   int `json:"errors"`
	// QPS is successful requests per wall-clock second of the drive phase.
	QPS float64 `json:"qps"`
	// P50Ns/P99Ns/MaxNs are client-observed latency percentiles of the
	// successful requests.
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
	MeanNs int64 `json:"mean_ns"`
	// ServerP50Ns/ServerP99Ns are the server's own view of the same load,
	// read from the endpoint's lock-free latency histogram after the drive.
	// They exclude client/transport time, so they sit at or below the
	// client-observed percentiles; ServerCount is the histogram's sample
	// count (successful responses the server recorded).
	ServerP50Ns int64 `json:"server_p50_ns"`
	ServerP99Ns int64 `json:"server_p99_ns"`
	ServerCount int64 `json:"server_count"`
}

// ServeReport is the full serving load test, as serialized to
// BENCH_serve.json.
type ServeReport struct {
	Schema string `json:"schema"`
	HostStamp
	Dataset  string `json:"dataset"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// Clients is the number of concurrent drivers; RequestsPerClient their
	// per-endpoint request budget.
	Clients           int `json:"clients"`
	RequestsPerClient int `json:"requests_per_client"`
	// LoadNs is the initial ingest+validate+solve (the availability gap a
	// cold start or reload implies); DriveNs the load-generation phase.
	LoadNs  int64         `json:"load_ns"`
	DriveNs int64         `json:"drive_ns"`
	Records []ServeRecord `json:"records"`
}

// serveEndpoints are the query mixes driven, one record each.
var serveEndpoints = []string{"component", "same", "size", "census"}

// ServeRegression materializes the fixture graph as a binary CSR, serves it
// through a real internal/serve server on a loopback listener, and drives
// it with cfg-scaled concurrent clients. Each client walks all four
// endpoints with deterministic pseudo-random vertex ids and rides through
// 429 shedding with the same capped-backoff retry the production reload
// watcher uses — so the reported QPS is what a well-behaved client fleet
// actually sustains, shedding included.
func ServeRegression(cfg RunConfig) (ServeReport, error) {
	rep := ServeReport{
		Schema:    ServeSchema,
		HostStamp: currentHostStamp(cfg.Threads),
	}
	// The load test serves the RMAT fixture: small for tests and CI smoke,
	// medium for the checked-in baseline.
	fix, _, _ := suiteFixtures(cfg.scale())
	rep.Dataset = fix.Name

	g, err := fix.Build()
	if err != nil {
		return ServeReport{}, fmt.Errorf("building %s: %w", fix.Name, err)
	}
	rep.Vertices = g.NumVertices()
	rep.Edges = g.NumEdges()

	dir, err := os.MkdirTemp("", "thriftylp-serve-")
	if err != nil {
		return ServeReport{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, fix.Name+".bin")
	if err := graph.SaveBinary(path, g); err != nil {
		return ServeReport{}, err
	}

	// The harness passes its own registry so it can read the server-side
	// latency histograms back out after the drive.
	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{Path: path, Registry: reg})
	loadStart := time.Now()
	if err := srv.Load(cfg.ctx()); err != nil {
		return ServeReport{}, err
	}
	rep.LoadNs = time.Since(loadStart).Nanoseconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeReport{}, err
	}
	go srv.Serve(ln) //thrifty:goroutine exits when the deferred Drain closes the listener
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Drain(dctx)
	}()
	base := "http://" + ln.Addr().String()

	clients := cfg.Threads
	if clients <= 0 {
		clients = 2 * rep.GoMaxProcs
	}
	perClient := 200 * cfg.reps()
	if cfg.scale() == ScaleSmall {
		perClient = 25
	}
	rep.Clients, rep.RequestsPerClient = clients, perClient

	type obsv struct {
		endpoint string
		ns       int64
		status   int
	}
	results := make([][]obsv, clients)
	pol := retry.Policy{Initial: time.Millisecond, Max: 50 * time.Millisecond, Attempts: 5}

	driveStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//thrifty:goroutine joined by wg.Wait below after a fixed request count
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			client := &http.Client{Timeout: 10 * time.Second}
			out := make([]obsv, 0, perClient*len(serveEndpoints))
			for n := 0; n < perClient; n++ {
				for _, ep := range serveEndpoints {
					v := uint32(rng.Intn(rep.Vertices))
					var url string
					switch ep {
					case "component":
						url = fmt.Sprintf("%s/component?v=%d", base, v)
					case "same":
						url = fmt.Sprintf("%s/same?u=%d&v=%d", base, v, uint32(rng.Intn(rep.Vertices)))
					case "size":
						url = fmt.Sprintf("%s/size?c=%d", base, v)
					case "census":
						url = base + "/census"
					}
					start := time.Now()
					status := 0
					shed := 0
					err := retry.Do(cfg.ctx(), pol, func(context.Context) error {
						resp, err := client.Get(url)
						if err != nil {
							return err
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						status = resp.StatusCode
						if status == http.StatusTooManyRequests {
							shed++
							return fmt.Errorf("shed")
						}
						return nil
					})
					ns := time.Since(start).Nanoseconds()
					if err != nil && status == 0 {
						status = -1 // transport error
					}
					for i := 0; i < shed; i++ {
						out = append(out, obsv{ep, 0, http.StatusTooManyRequests})
					}
					if status != http.StatusTooManyRequests {
						out = append(out, obsv{ep, ns, status})
					}
				}
			}
			results[c] = out
		}(c)
	}
	wg.Wait()
	drive := time.Since(driveStart)
	rep.DriveNs = drive.Nanoseconds()

	// A random id is not necessarily a live component label, so /size
	// legitimately answers 404 for misses; both outcomes exercise the same
	// lookup path and count as served requests. Anything else is an error.
	byEp := map[string]*ServeRecord{}
	var lats = map[string][]int64{}
	for _, ep := range serveEndpoints {
		byEp[ep] = &ServeRecord{Endpoint: ep}
	}
	for _, out := range results {
		for _, o := range out {
			r := byEp[o.endpoint]
			switch {
			case o.status == http.StatusOK:
				r.Requests++
				lats[o.endpoint] = append(lats[o.endpoint], o.ns)
			case o.status == http.StatusTooManyRequests:
				r.Shed++
			case o.status == http.StatusNotFound && o.endpoint == "size":
				r.Requests++
				lats[o.endpoint] = append(lats[o.endpoint], o.ns)
			default:
				r.Errors++
			}
		}
	}
	for _, ep := range serveEndpoints {
		r := byEp[ep]
		ls := lats[ep]
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		if n := len(ls); n > 0 {
			r.P50Ns = ls[n/2]
			r.P99Ns = ls[n*99/100]
			r.MaxNs = ls[n-1]
			var sum int64
			for _, l := range ls {
				sum += l
			}
			r.MeanNs = sum / int64(n)
		}
		r.QPS = float64(r.Requests) / drive.Seconds()
		hs := reg.Histogram(serve.LatencyHistogram(ep)).Snapshot()
		r.ServerCount = hs.Count
		r.ServerP50Ns = hs.Quantile(0.50)
		r.ServerP99Ns = hs.Quantile(0.99)
		rep.Records = append(rep.Records, *r)
	}
	return rep, nil
}

// Table renders the report for the console.
func (r ServeReport) Table() *Table {
	t := &Table{
		ID: "serve",
		Title: fmt.Sprintf("Serving load test (%s: %d vertices, %d edges; %d clients × %d rounds; load %.1f ms)",
			r.Dataset, r.Vertices, r.Edges, r.Clients, r.RequestsPerClient, Millis(time.Duration(r.LoadNs))),
		Columns: []string{"endpoint", "qps", "p50 µs", "p99 µs", "max µs", "srv p50 µs", "srv p99 µs", "shed", "errors"},
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, rec := range r.Records {
		t.AddRow(rec.Endpoint, rec.QPS, us(rec.P50Ns), us(rec.P99Ns), us(rec.MaxNs),
			us(rec.ServerP50Ns), us(rec.ServerP99Ns), rec.Shed, rec.Errors)
	}
	return t
}
