package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. Each has one meaning per workload, given in README.md.
// Every time among them is CPU time of the process (cpuNow): on a host
// whose CPUs are shared, wall time follows the neighbours' load, CPU time
// follows the work done. The stamp line carries the wall-clock figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_ms_p50", "ms"},
	{"op_cpu_ms_tail", "ms"},
	{"max_rate_per_s", "1/s"},
	{"reload_cpu_s", "s"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the traced run's metrics, grouped by the package whose
// public functions they time. A layer a workload does not reach reads 0.
var perLayer = []metricDef{
	{"graph.load_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"graph.validate_ms", "ms"},
	{"graph.ingest_mb_per_s", "MB/s"},

	{"stats.probe_us", "us"},
	{"cc.other_ms", "ms"},

	{"core.initial_push_ms", "ms"},
	{"core.pull_ms", "ms"},
	{"core.pull_frontier_ms", "ms"},
	{"core.push_ms", "ms"},
	{"core.iterations", "count"},
	{"core.push_iterations", "count"},
	{"core.pull_iterations", "count"},
	{"core.edge_frac", "ratio"},

	{"parallel.stolen_frac", "ratio"},
	{"parallel.failed_steals", "count"},
	{"parallel.idle_ms", "ms"},
	{"parallel.jobs", "count"},

	{"serve.queue_us_p50", "us"},
	{"serve.queue_us_p99", "us"},
	{"serve.acquire_us_p50", "us"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.encode_us_p50", "us"},
	{"serve.transport_us_p50", "us"},
	{"serve.shed", "count"},
	{"serve.reload_query_ms_p99", "ms"},
	{"serve.load_ingest_ms", "ms"},
	{"serve.load_validate_ms", "ms"},
	{"serve.load_solve_ms", "ms"},
	{"serve.publish_us", "us"},

	{"shard.write_ms", "ms"},
	{"shard.open_ms", "ms"},
	{"shard.slice_load_ms", "ms"},
	{"shard.node_build_ms", "ms"},
	{"shard.boundary_entries", "count"},

	{"dist.rounds", "count"},
	{"dist.exchange_ms", "ms"},
	{"dist.round_ms_max", "ms"},
	{"dist.exchanged_bytes", "bytes"},
	{"dist.compaction_ratio", "ratio"},
	{"dist.suppressed", "count"},
	{"dist.overhead_x", "ratio"},

	{"loadgen.lag_us_p50", "us"},
	{"loadgen.lag_us_p99", "us"},
	{"loadgen.conns_opened", "count"},
	{"loadgen.backlog_max", "count"},

	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_pause_ms", "ms"},

	{"trace.overhead_ms", "ms"},
	{"trace.residual_ms", "ms"},
	{"trace.residual_frac", "ratio"},
}

// quantile returns the q-quantile of xs by the nearest-rank method, 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// windowedQuantile returns the median, over the windows of a measured
// phase, of the q-quantile of the samples within each window; window[i]
// names the window of xs[i]. The host's CPUs are shared, and an episode of
// stolen time then moves the few windows it covers, not the statistic.
func windowedQuantile(xs []float64, window []int, q float64) float64 {
	byWindow := map[int][]float64{}
	for i, w := range window {
		byWindow[w] = append(byWindow[w], xs[i])
	}
	var perWindow []float64
	for _, w := range byWindow {
		perWindow = append(perWindow, quantile(w, q))
	}
	return median(perWindow)
}

// blocks assigns n samples taken in order to windows of size consecutive
// samples each.
func blocks(n, size int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = i / size
	}
	return w
}

// opTimes are the wall and CPU times in ms of operations run back to back,
// in execution order.
type opTimes struct{ wall, cpu []float64 }

func (t *opTimes) add(wall, cpu time.Duration) {
	t.wall = append(t.wall, ms(wall))
	t.cpu = append(t.cpu, ms(cpu))
}

// setOpStats reports the CPU time per operation and the rate the process's
// GOMAXPROCS CPUs sustain at that cost, and puts the wall-clock latency
// and rate in the stamp. Each figure is taken within blocks of block
// operations, and the median over the blocks is reported.
func (r *runner) setOpStats(t opTimes, block int) {
	w := blocks(len(t.cpu), block)
	r.set("op_cpu_ms_p50", windowedQuantile(t.cpu, w, 0.5))
	r.set("op_cpu_ms_tail", windowedQuantile(t.cpu, w, 0.9))
	r.set("max_rate_per_s", median(blockRates(t.cpu, block, float64(runtime.GOMAXPROCS(0)))))
	r.setWall("op_ms_p50", windowedQuantile(t.wall, w, 0.5))
	r.setWall("op_ms_tail", windowedQuantile(t.wall, w, 0.9))
	r.setWall("rate_per_s", median(blockRates(t.wall, block, 1)))
}

// blockRates returns, for each block of block consecutive operations
// taking durs ms each, the operations per second that cpus clocks running
// at once complete.
func blockRates(durs []float64, block int, cpus float64) []float64 {
	var rates []float64
	for lo := 0; lo < len(durs); lo += block {
		var total float64
		for _, d := range durs[lo:min(lo+block, len(durs))] {
			total += d
		}
		rates = append(rates, cpus*float64(min(block, len(durs)-lo))/(total/1000))
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// memSampler records the live Go heap after every garbage collection of a
// measured phase. Live heap is what a collection found reachable; unlike
// the heap in use it does not depend on when collections happen to run.
// It is read through runtime/metrics, without stopping the world, from a
// finalizer re-armed each cycle. Given a mapped poll, the sampler also
// records the peak of the bytes that poll reports.
type memSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	stopped atomic.Bool

	mu         sync.Mutex
	live       []float64
	peakMapped int64
}

const heapLive = "/gc/heap/live:bytes"

// startMemSampler collects garbage first, so that the figures reflect the
// measured phase and not what set-up left live at its last collection.
// mapped, when not nil, is polled every 2 ms, often enough to see a
// mapping that lives for one reload.
func startMemSampler(mapped func() int64) *memSampler {
	runtime.GC()
	s := &memSampler{stop: make(chan struct{}), live: make([]float64, 0, 1<<14)}
	s.observeHeap()
	s.armGC()
	if mapped == nil {
		return s
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			m := mapped()
			s.mu.Lock()
			s.peakMapped = max(s.peakMapped, m)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *memSampler) observeHeap() {
	sample := []metrics.Sample{{Name: heapLive}}
	metrics.Read(sample)
	s.mu.Lock()
	s.live = append(s.live, float64(sample[0].Value.Uint64()))
	s.mu.Unlock()
}

// gcSentinel is garbage as soon as it is made; its finalizer runs once
// the next collection has ended.
type gcSentinel struct{ s *memSampler }

// armGC has the live heap read after the next collection, and re-arms
// itself there until the sampler stops.
func (s *memSampler) armGC() {
	runtime.SetFinalizer(&gcSentinel{s: s}, func(g *gcSentinel) {
		if !g.s.stopped.Load() {
			g.s.observeHeap()
			g.s.armGC()
		}
	})
}

// peakMB stops the sampler and returns, in MB, the 99th percentile of the
// live heap over the phase's collections plus the peak mapped bytes. The
// percentile is a peak that no single collection, ending at an unlucky
// moment, sets by itself.
func (s *memSampler) peakMB() float64 {
	s.stopped.Store(true)
	close(s.stop)
	s.done.Wait()
	s.observeHeap()
	s.mu.Lock()
	defer s.mu.Unlock()
	return (quantile(s.live, 0.99) + float64(s.peakMapped)) / (1 << 20)
}

// mappedPoll returns a poll of the bytes this process has mapped from the
// file at path, summed over every mapping of it in /proc/self/maps, so
// that the old and new mappings that coexist during a reload both count.
// Where /proc/self/maps cannot be read or names no mapping of the file,
// which is mapped throughout the phase, the poll returns fallback.
func mappedPoll(path string, fallback int64) func() int64 {
	if abs, err := filepath.Abs(path); err == nil {
		path = abs
	}
	if real, err := filepath.EvalSymlinks(path); err == nil {
		path = real
	}
	return func() int64 {
		raw, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			return fallback
		}
		var total int64
		for _, line := range strings.Split(string(raw), "\n") {
			// start-end perms offset dev inode path
			f := strings.Fields(line)
			if len(f) < 6 || strings.TrimSuffix(strings.Join(f[5:], " "), " (deleted)") != path {
				continue
			}
			lo, hi, _ := strings.Cut(f[0], "-")
			a, errA := strconv.ParseUint(lo, 16, 64)
			b, errB := strconv.ParseUint(hi, 16, 64)
			if errA == nil && errB == nil && b > a {
				total += int64(b - a)
			}
		}
		if total == 0 {
			return fallback
		}
		return total
	}
}

// runtimeCounters is a snapshot of the allocation and GC pause totals.
type runtimeCounters struct{ allocBytes, pauseNs uint64 }

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{ms.TotalAlloc, ms.PauseTotalNs}
}

// setRuntime reports allocation per operation and the GC pause total of the
// phase that began at before and ran ops operations.
func (r *runner) setRuntime(before runtimeCounters, ops int) {
	after := readRuntime()
	r.set("runtime.alloc_mb_per_op", float64(after.allocBytes-before.allocBytes)/float64(max(ops, 1))/(1<<20))
	r.set("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
}
