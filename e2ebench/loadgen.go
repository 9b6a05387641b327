package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen is an open-loop query generator: query i is due at start + i/rate
// whether or not earlier queries have been answered, and its latency is
// timed from when it was due, so a server stall also delays the queries
// queued behind it. It keeps at most conns keep-alive connections on a
// transport of its own.
type loadgen struct {
	base   string
	client *http.Client
	conns  int
	dialed atomic.Int64
}

func newLoadgen(addr string, conns int) *loadgen {
	lg := &loadgen{base: "http://" + addr, conns: conns}
	var d net.Dialer
	lg.client = &http.Client{
		Timeout: 2 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				lg.dialed.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		},
	}
	return lg
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// phase is the outcome of one query loop.
type phase struct {
	// lat holds answered queries' latencies (us) by window: from due to
	// response in an open loop, windowed by when the query was due; from
	// send to response in a closed loop, windowed by when it was answered.
	lat *samples
	// svc is an open loop's time from send to response (us) per answered
	// query, and lag how late the generator sent each query (us) — after
	// its due time or after the connection freed up, whichever was later,
	// so queueing behind a busy connection counts as backlog, not lag.
	svc, lag []float64
	// rates is a closed loop's answered queries per second in each window,
	// and cpuMs the process's CPU time per answered query (ms) in each
	// window: the server's, the generator's and the answer checks'.
	rates, cpuMs []float64
	// answered counts the queries answered correctly.
	answered int64
	// backlogMax is the most queries due but not yet answered at any send.
	backlogMax        int64
	attempted, failed int64
	failures          []string
}

// samples holds a phase's latencies by window in memory fixed before the
// phase starts: each window keeps a uniform sample of at most
// samplesPerWindow latencies (reservoir sampling), so the generator's
// memory does not grow with the server's throughput.
type samples struct {
	span time.Duration // window length
	mu   sync.Mutex
	rng  *rand.Rand
	kept [][]float64
	seen []int64
}

// samplesPerWindow is above the number of queries one window takes today,
// so every latency is kept until the server gets much faster.
const samplesPerWindow = 1 << 13

// newSamples returns the windows of a phase lasting d: a quarter second
// long, or a fifth of d if that is shorter. Latencies past the last whole
// window are dropped.
func newSamples(d time.Duration) *samples {
	span := min(time.Second/4, d/5)
	n := int(d / span)
	s := &samples{span: span, rng: rand.New(rand.NewPCG(1, 2)), kept: make([][]float64, n), seen: make([]int64, n)}
	for w := range s.kept {
		s.kept[w] = make([]float64, 0, samplesPerWindow)
	}
	return s
}

// add records latency x taken at offset t into the phase.
func (s *samples) add(t time.Duration, x float64) {
	w := int(t / s.span)
	if w < 0 || w >= len(s.kept) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[w]++
	if k := s.kept[w]; len(k) < cap(k) {
		s.kept[w] = append(k, x)
	} else if j := s.rng.Int64N(s.seen[w]); j < int64(len(k)) {
		k[j] = x
	}
}

// windowed returns the q-quantile of latency within each window, as the
// median over the windows. The host's CPUs are shared, and an episode of
// stolen time then moves the few windows it covers, not the statistic.
func (s *samples) windowed(q float64) float64 {
	var perWindow []float64
	for _, k := range s.kept {
		if len(k) > 0 {
			perWindow = append(perWindow, quantile(k, q))
		}
	}
	return median(perWindow)
}

// all returns every kept latency.
func (s *samples) all() []float64 { return slices.Concat(s.kept...) }

// run sends qs at rate per second and checks each answer with check,
// outside the timed interval.
func (lg *loadgen) run(rate float64, qs []query, check func(query, []byte) error) *phase {
	var (
		completed atomic.Int64
		work      = make(chan int, len(qs)) // sized to the number of sends
		results   = make([]phase, lg.conns)
		wg        sync.WaitGroup
		p         = phase{lat: newSamples(time.Duration(float64(len(qs)) / rate * float64(time.Second)))}
	)
	start := time.Now().Add(time.Millisecond)
	offset := func(i int) time.Duration { return time.Duration(float64(i) / rate * float64(time.Second)) }
	for w := range results {
		wg.Add(1)
		go func(res *phase) {
			defer wg.Done()
			free := start
			for i := range work {
				url := lg.base + qs[i].path()
				due := start.Add(offset(i))
				sent := time.Now()
				res.lag = append(res.lag, us(sent.Sub(later(due, free))))
				body, err := get(lg.client, url)
				done := time.Now()
				free = done
				completed.Add(1)
				res.attempted++
				if err == nil {
					err = check(qs[i], body)
				}
				if err != nil {
					res.failed++
					if len(res.failures) < 3 {
						res.failures = append(res.failures, err.Error())
					}
					continue
				}
				res.answered++
				p.lat.add(offset(i), us(done.Sub(due)))
				res.svc = append(res.svc, us(done.Sub(sent)))
			}
		}(&results[w])
	}
	pacerDone := make(chan struct{})
	go func() {
		defer close(pacerDone)
		lockPacer()
		for i := range qs {
			sleepUntil(start.Add(offset(i)))
			p.backlogMax = max(p.backlogMax, int64(i)-completed.Load())
			work <- i
		}
		close(work)
	}()
	<-pacerDone
	wg.Wait()
	for _, res := range results {
		p.svc = append(p.svc, res.svc...)
		p.lag = append(p.lag, res.lag...)
		p.merge(&res)
	}
	return &p
}

// merge adds one connection's counts to the phase.
func (p *phase) merge(res *phase) {
	p.answered += res.answered
	p.attempted += res.attempted
	p.failed += res.failed
	p.failures = append(p.failures, res.failures...)
}

// closedLoop keeps every connection busy with back-to-back queries, taken
// in turn from qs, for the windows of lat: the next query on a connection
// goes out as soon as the last is answered, so a latency is the time from
// send to response. lat is allocated by the caller, before any memory
// measurement starts.
func (lg *loadgen) closedLoop(lat *samples, qs []query, check func(query, []byte) error) *phase {
	var (
		next    atomic.Int64
		results = make([]phase, lg.conns)
		wg      sync.WaitGroup
		p       = phase{lat: lat}
		d       = lat.span * time.Duration(len(lat.kept))
	)
	start := time.Now()
	// The process's CPU clock at each window boundary.
	cpuAt := make([]time.Duration, len(lat.kept)+1)
	var clock sync.WaitGroup
	clock.Add(1)
	go func() {
		defer clock.Done()
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * lat.span)))
			cpuAt[k] = cpuNow()
		}
	}()
	for w := range results {
		wg.Add(1)
		go func(res *phase) {
			defer wg.Done()
			for time.Since(start) < d {
				q := qs[int(next.Add(1)-1)%len(qs)]
				url := lg.base + q.path()
				sent := time.Now()
				body, err := get(lg.client, url)
				done := time.Now()
				res.attempted++
				if err == nil {
					err = check(q, body)
				}
				if err != nil {
					res.failed++
					if len(res.failures) < 3 {
						res.failures = append(res.failures, err.Error())
					}
					continue
				}
				res.answered++
				lat.add(done.Sub(start), us(done.Sub(sent)))
			}
		}(&results[w])
	}
	wg.Wait()
	clock.Wait()
	for _, res := range results {
		p.merge(&res)
	}
	for k, n := range lat.seen {
		p.rates = append(p.rates, float64(n)/lat.span.Seconds())
		if n > 0 {
			p.cpuMs = append(p.cpuMs, ms(cpuAt[k+1]-cpuAt[k])/float64(n))
		}
	}
	return &p
}

// get fetches url and returns the body of a 200 response; any other status
// is an error, so sheds (429) and timeouts count as failures.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// queryMix draws n queries over an n-vertex graph that walk the four
// endpoints in equal turns — /component, /same, /size, /census — as the
// repository's serving load test does. labels gives the published label of
// each vertex, for /size.
func queryMix(rng *rand.Rand, n int, labels []uint32) []query {
	qs := make([]query, n)
	for i := range qs {
		v := uint32(rng.IntN(len(labels)))
		switch i % 4 {
		case 0:
			qs[i] = query{endpoint: "component", v: v}
		case 1:
			qs[i] = query{endpoint: "same", u: uint32(rng.IntN(len(labels))), v: v}
		case 2:
			qs[i] = query{endpoint: "size", v: v, label: labels[v]}
		default:
			qs[i] = query{endpoint: "census"}
		}
	}
	return qs
}
