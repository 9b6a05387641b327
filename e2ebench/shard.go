package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/internal/dist"
	"thriftylp/internal/shard"
)

// shards is the shard count of the on-disk set.
const shards = 2

// runRMATShard is path (b): an RMAT text edge list is ingested, written as
// an on-disk shard set and opened, then solved repeatedly by the exchange
// scheduler with real mmap slice loads. It is the only workload that
// reaches internal/shard and internal/dist.
func runRMATShard(r *runner) error {
	input, err := rmatGraph(r.size.shardScale, r.seed)
	if err != nil {
		return err
	}
	path, err := r.writeInput(input, "rmat.el")
	if err != nil {
		return err
	}

	var (
		setups, reloads, loads, builds, writes, opens, residuals []float64
		setupCPU, reloadCPU, mbPerS                              []float64
		set                                                      *shard.Set
		g                                                        *graph.Graph
		o                                                        *oracle
		thrifty                                                  []uint32
	)
	for i := 0; r.moreSetups(i, reloads); i++ {
		if set != nil {
			if err := os.RemoveAll(set.Dir); err != nil {
				return err
			}
			runtime.GC()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("shards-%d", i))
		c, start := cpuNow(), time.Now()
		gi, st, err := graph.Ingest(path)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := shard.Write(gi, dir, shards); err != nil {
			return err
		}
		write := time.Since(t)
		t = time.Now()
		if set, err = shard.Open(dir); err != nil {
			return err
		}
		open := time.Since(t)
		setup, setupC := time.Since(start), cpuNow()-c

		res, src, clock, err := runShards(set, r.traced)
		if err != nil {
			return err
		}
		reload, reloadC := time.Since(start), cpuNow()-c

		g = gi
		if o == nil {
			o = newOracle(g)
			ref, err := cc.RunContext(context.Background(), cc.AlgoThrifty, g)
			if err != nil {
				return err
			}
			thrifty = ref.Labels
			r.attempted++
			if err := o.checkLabels(thrifty); err != nil {
				r.fail("unsharded reference: %v", err)
			}
		}
		r.checkShard(res, o, thrifty)
		setups = append(setups, setup.Seconds())
		reloads = append(reloads, reload.Seconds())
		setupCPU = append(setupCPU, setupC.Seconds())
		reloadCPU = append(reloadCPU, reloadC.Seconds())
		loads = append(loads, ms(st.LoadDuration))
		builds = append(builds, ms(st.BuildDuration))
		writes = append(writes, ms(write))
		opens = append(opens, ms(open))
		mbPerS = append(mbPerS, float64(st.Bytes)/(1<<20)/st.Total().Seconds())
		if r.traced {
			accounted := st.Total() + write + open + src.load + src.build + clock.exchange()
			residuals = append(residuals, ms(reload-accounted))
		}
	}
	r.setSetups(setupCPU, reloadCPU, setups, reloads)

	if !r.traced {
		g = nil
		mem := startMemSampler(nil)
		times := r.shardLoop(set, o, thrifty, r.seconds, nil)
		r.set("mem_peak_mb", mem.peakMB()+float64(largestSlice(set.Manifest))/(1<<20))
		r.setOpStats(times, 25)
		return nil
	}

	r.set("graph.load_ms", median(loads))
	r.set("graph.build_ms", median(builds))
	r.set("graph.ingest_mb_per_s", median(mbPerS))
	r.set("shard.write_ms", median(writes))
	r.set("shard.open_ms", median(opens))
	r.set("trace.residual_ms", median(residuals))
	r.set("trace.residual_frac", median(residuals)/(median(reloads)*1000))

	base := r.shardLoop(set, o, thrifty, r.seconds/2, nil)
	var sliceLoads, nodeBuilds, exchanges, roundMax, rounds []float64
	var last dist.Result
	before := readRuntime()
	traced := r.shardLoop(set, o, thrifty, r.seconds/2, func(res dist.Result, src *timedSource, clock *roundClock) {
		sliceLoads = append(sliceLoads, ms(src.load))
		nodeBuilds = append(nodeBuilds, ms(src.build))
		exchanges = append(exchanges, ms(clock.exchange()))
		roundMax = append(roundMax, ms(clock.longestRound()))
		rounds = append(rounds, float64(res.Rounds))
		last = res
	})
	r.setRuntime(before, len(traced.wall))
	r.set("trace.overhead_ms", median(traced.wall)-median(base.wall))
	r.set("shard.slice_load_ms", median(sliceLoads))
	r.set("shard.node_build_ms", median(nodeBuilds))
	r.set("shard.boundary_entries", float64(last.BoundaryEntries))
	r.set("dist.rounds", median(rounds))
	r.set("dist.exchange_ms", median(exchanges))
	r.set("dist.round_ms_max", median(roundMax))
	r.set("dist.exchanged_bytes", float64(last.ExchangedBytes))
	if last.ExchangedBytes > 0 {
		r.set("dist.compaction_ratio", float64(last.NaiveBytes)/float64(last.ExchangedBytes))
	}
	r.set("dist.suppressed", float64(last.SuppressedVertices))

	// The overhead base is the unsharded Thrifty solve of the same graph.
	var unsharded []float64
	for i := 0; i < r.size.minOps/5; i++ {
		start := time.Now()
		res, err := cc.RunContext(context.Background(), cc.AlgoThrifty, g)
		unsharded = append(unsharded, ms(time.Since(start)))
		r.attempted++
		if err == nil {
			err = checkIdentical(res.Labels, thrifty)
		}
		if err != nil {
			r.fail("unsharded solve: %v", err)
		}
	}
	r.set("dist.overhead_x", median(base.wall)/median(unsharded))
	return nil
}

// runShards runs one sharded solve over set. A traced solve goes through a
// timedSource and timestamps exchange rounds through the scheduler's
// per-round callback; an untraced one has nil timings.
func runShards(set *shard.Set, traced bool) (dist.Result, *timedSource, *roundClock, error) {
	if !traced {
		res, err := dist.RunSource(set, dist.Config{})
		return res, nil, nil, err
	}
	src, clock := &timedSource{Source: set}, &roundClock{}
	res, err := dist.RunSource(src, dist.Config{ExchangeFault: clock.mark})
	clock.end = time.Now()
	return res, src, clock, err
}

// checkShard counts a sharded result that is not byte-identical to the
// unsharded Thrifty labels, or not the oracle's partition, as a failure.
func (r *runner) checkShard(res dist.Result, o *oracle, thrifty []uint32) {
	r.attempted++
	err := checkIdentical(res.Labels, thrifty)
	if err == nil {
		err = o.checkLabels(res.Labels)
	}
	if err == nil && res.Canceled {
		err = fmt.Errorf("run reported cancellation")
	}
	if err != nil {
		r.fail("sharded solve: %v", err)
	}
}

// shardLoop runs sharded solves over set for at least d and minOps solves
// and returns their times; record, when set, makes the runs traced and
// receives each one's result and timings.
func (r *runner) shardLoop(set *shard.Set, o *oracle, thrifty []uint32, d time.Duration,
	record func(dist.Result, *timedSource, *roundClock)) opTimes {
	var t opTimes
	deadline := time.Now().Add(d)
	for len(t.wall) < r.size.minOps || time.Now().Before(deadline) {
		c, start := cpuNow(), time.Now()
		res, src, clock, err := runShards(set, record != nil)
		t.add(time.Since(start), cpuNow()-c)
		if err != nil {
			r.attempted++
			r.fail("sharded solve: %v", err)
			continue
		}
		r.checkShard(res, o, thrifty)
		if record != nil {
			record(res, src, clock)
		}
	}
	return t
}

// largestSlice is the mapped size of the biggest shard file: the solve
// phase keeps at most one slice mapped at a time.
func largestSlice(m *shard.Manifest) int64 {
	var most int64
	for _, s := range m.Shards {
		most = max(most, s.Slots*4+int64(s.Hi-s.Lo+1)*8)
	}
	return most
}

// timedSource wraps a shard source to time the scheduler's solve phase from
// outside: Slice is the slice load, and the time from Slice returning to
// the matching Release is shard.NewNode — interior build, interior solve
// and boundary extraction. The solve phase visits shards one at a time.
type timedSource struct {
	shard.Source
	load, build time.Duration
	handed      time.Time
}

func (s *timedSource) Slice(i int) (*graph.CSRSlice, error) {
	start := time.Now()
	sl, err := s.Source.Slice(i)
	s.handed = time.Now()
	s.load += s.handed.Sub(start)
	return sl, err
}

func (s *timedSource) Release(sl *graph.CSRSlice) error {
	s.build += time.Since(s.handed)
	return s.Source.Release(sl)
}

// roundClock timestamps the start of each exchange round: the first node
// to enter a round marks it. Rounds are separated by a barrier, so every
// call for round r happens after every call for round r-1.
type roundClock struct {
	mu     sync.Mutex
	starts []time.Time
	end    time.Time
}

func (c *roundClock) mark(round, _ int) {
	c.mu.Lock()
	if round == len(c.starts) {
		c.starts = append(c.starts, time.Now())
	}
	c.mu.Unlock()
}

// exchange is the time from the first round's start to the end of the run.
func (c *roundClock) exchange() time.Duration {
	if len(c.starts) == 0 {
		return 0
	}
	return c.end.Sub(c.starts[0])
}

func (c *roundClock) longestRound() time.Duration {
	var most time.Duration
	for i, s := range c.starts {
		end := c.end
		if i+1 < len(c.starts) {
			end = c.starts[i+1]
		}
		most = max(most, end.Sub(s))
	}
	return most
}
