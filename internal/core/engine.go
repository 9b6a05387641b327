package core

import (
	"time"
	"unsafe"

	"thriftylp/graph"
	"thriftylp/internal/atomicx"
	"thriftylp/internal/bitmap"
	"thriftylp/internal/counters"
	"thriftylp/internal/parallel"
	"thriftylp/internal/worklist"
)

// The label-propagation family runs on one engine: one driver loop
// (propagate), one pull kernel and one push kernel. The paper presents
// Thrifty as four switches on DO-LP's direction-optimizing loop (§IV); each
// algorithm below is a constant variant that sets those switches, together
// with the frontier bookkeeping and threshold it is evaluated with.
//
// The kernels are generic over the instrumentation policy (see instr.go):
// plain runs take the monomorphized fast path, runs with counters, trace or
// lines enabled take the counting path with identical traversal structure.
// They are generic over the variant's frontier kind too (frontierShape), so
// each kind gets its own edge loops. The other variant fields are read per
// iteration or per vertex, never per edge: the per-edge loops hold only the
// min-propagation itself and the policy hooks, which fold away on the fast
// path.

// Thrifty is the paper's contribution (Algorithm 2): Label Propagation CC
// with all four structure-aware optimizations for skewed-degree graphs —
// Unified Labels Array, Zero Convergence, Zero Planting and Initial Push
// (see variant) — with the implementation choices of §IV-E: a 1% push/pull
// threshold, counting-only pulls plus one Pull-Frontier bridge iteration,
// and per-thread worklists with chunked work stealing for sparse frontiers.
func Thrifty(g *graph.Graph, cfg Config) Result { return run(g, cfg, thriftyLP) }

// DOLP is Direction-Optimizing Label Propagation, a faithful implementation
// of Algorithm 1 of the paper: two labels arrays (old/new), a frontier of
// vertices whose label changed, push traversal with atomic-min when the
// frontier is sparse, pull traversal over all vertices when dense, and an
// end-of-iteration labels-array synchronization pass. This is the paper's
// primary baseline (its column in Table IV, Fig 5-8, and the reference
// against which Thrifty's 25.2× average speedup is quoted).
func DOLP(g *graph.Graph, cfg Config) Result { return run(g, cfg, dolpLP) }

// DOLPUnified is DO-LP with exactly one of Thrifty's four optimizations
// applied: the Unified Labels Array (§IV-A). No zero planting, zero
// convergence or initial push. It exists for the ablation of Fig 9/10: the
// gap between DOLP and DOLPUnified measures the Unified Labels contribution
// (~65% of Thrifty's total improvement in the paper), and the gap between
// DOLPUnified and Thrifty the other three techniques combined.
func DOLPUnified(g *graph.Graph, cfg Config) Result { return run(g, cfg, dolpUnifiedLP) }

// LP is the textbook synchronous Label Propagation CC (§II): every vertex,
// every iteration, takes the minimum of its own and its neighbours' labels
// from the previous iteration's array, until a fixed point. It has no
// frontier, no direction optimization and no convergence shortcuts — it is
// the semantic reference the optimized variants are validated against, and
// the zero line for measuring what DO-LP's frontier machinery buys.
func LP(g *graph.Graph, cfg Config) Result { return run(g, cfg, plainLP) }

// Rule is the update rule a value undergoes as it crosses an edge. Rules
// are monotone, so the minimum over neighbours u of f(x_u) equals f of the
// minimum of x_u: the kernels apply the rule once per vertex in pull and
// once per source in push, and the per-edge loops stay the CC min loop.
type Rule uint8

const (
	// MinLabel passes labels unchanged: connected components.
	MinLabel Rule = iota
	// HopCount adds one per edge: BFS hop distance from the planted
	// vertex. Vertices no path reaches keep Unreached.
	HopCount
)

// Unreached is the HopCount value of a vertex no path reaches. It doubles as
// the floor of the variants without Zero Convergence: vertex id ^uint32(0)
// is rejected on input, so no label ever equals it.
const Unreached = ^uint32(0)

// Propagate runs Thrifty's variant under rule, either on one unified labels
// array (asynchronous: a value written early in a sweep is read later in
// the same sweep) or on two arrays with a sync pass (synchronous: a value
// moves one hop per iteration). This is the §VII question of how the
// unified-arrays optimization relates to asynchronous execution, and how
// Thrifty's switches carry over to other min-propagation rules. HopCount
// measures from cfg.PlantVertex when PlantVertexSet, else from the
// max-degree vertex.
func Propagate(g *graph.Graph, cfg Config, rule Rule, unified bool) Result {
	v := thriftyLP
	v.rule, v.unified = rule, unified
	return run(g, cfg, v)
}

// frontierKind selects how a variant tracks the active vertices that drive
// the push/pull decision.
type frontierKind uintptr

const (
	// worklistFrontier is Thrifty's (§IV-E): pulls only count changed
	// vertices; when the run turns sparse one Pull-Frontier iteration
	// records them into per-thread worklists, which pushes then drain with
	// chunked work stealing.
	worklistFrontier frontierKind = iota
	// bitmapFrontier is Algorithm 1's: every iteration marks changed
	// vertices in a bitmap, recounted after the iteration; a push extracts
	// the set bits into a vertex list.
	bitmapFrontier
	// noFrontier is plain LP's: every iteration is a full pull, until one
	// changes nothing.
	noFrontier
)

// frontierShape carries a frontier kind k into the engine as the type
// argument [k]byte. Its size is a compile-time constant per instantiation,
// as the instrumentation policy's is (instr.go), so each kind compiles to
// its own pull and push code: the other kinds' loops drop out as dead code
// and leave the registers to the loops that run.
type frontierShape interface{ [0]byte | [1]byte | [2]byte }

// kindOf returns the frontier kind F carries.
func kindOf[F frontierShape]() frontierKind {
	var f F
	return frontierKind(unsafe.Sizeof(f))
}

// variant is one label-propagation algorithm as an engine configuration.
type variant struct {
	// unified is the Unified Labels Array (§IV-A): pull and push read and
	// write one array. Otherwise they read the previous iteration's array
	// and write a second one, and a sync pass copies it back after every
	// iteration.
	unified bool
	// floor is Zero Convergence (§IV-B): labels only move down, so a vertex
	// holding floor has converged — pull skips it, and a neighbour scan
	// stops when it meets it. Unreached turns the technique off.
	floor uint32
	// plant is Zero Planting (§IV-C): labels start at v+1 and the
	// max-degree vertex (or Config.PlantVertex) gets the reserved label 0,
	// which in a skewed graph is almost surely a hub of the giant
	// component. Otherwise labels start at v.
	plant bool
	// initialPush is Initial Push (§IV-D): iteration 0 pushes the planted
	// 0 one hop from the hub instead of a full first pull. Needs the
	// worklist frontier.
	initialPush bool
	frontier    frontierKind
	// threshold is the default push/pull density threshold.
	threshold float64
	// prefetch enables the early label loads on long adjacency lists (see
	// prefetchDist) in the worklist frontier's edge loops.
	prefetch bool
	rule     Rule
	// The seed counter goldens (instr_test.go) pin each algorithm's event
	// accounting; these fields change what the counting policy records,
	// never the traversal. pushLoad charges a label load besides the CAS
	// per pushed edge (DO-LP's accounting). traffic records labels-array
	// cache lines and charges the sync pass (every variant but LP).
	pushLoad, traffic bool
}

// The algorithms' variants.
var (
	thriftyLP = variant{
		unified: true, floor: 0, plant: true, initialPush: true,
		frontier: worklistFrontier, threshold: DefaultThriftyThreshold,
		prefetch: true, traffic: true,
	}
	dolpLP = variant{
		floor: Unreached, frontier: bitmapFrontier,
		threshold: DefaultDOLPThreshold, pushLoad: true, traffic: true,
	}
	dolpUnifiedLP = variant{
		unified: true, floor: Unreached, frontier: bitmapFrontier,
		threshold: DefaultDOLPThreshold, pushLoad: true, traffic: true,
	}
	plainLP = variant{floor: Unreached, frontier: noFrontier}
)

// run selects the frontier shape and the instrumentation policy once per
// run.
func run(g *graph.Graph, cfg Config, v variant) Result {
	switch v.frontier {
	case worklistFrontier:
		return runShaped[[worklistFrontier]byte](g, cfg, v)
	case bitmapFrontier:
		return runShaped[[bitmapFrontier]byte](g, cfg, v)
	default:
		return runShaped[[noFrontier]byte](g, cfg, v)
	}
}

func runShaped[F frontierShape](g *graph.Graph, cfg Config, v variant) Result {
	switch {
	case cfg.Faults != nil:
		return propagate[F](g, cfg, v, newChaos(cfg))
	case !cfg.fastInstr():
		return propagate[F](g, cfg, v, newCounting(cfg))
	default:
		return propagate[F](g, cfg, v, noInstr{})
	}
}

// engine is the state the kernels share during one run. In the unified
// variants src and dst alias.
type engine[I instr[I], F frontierShape] struct {
	offs     []int64 // the graph's CSR
	adj      []uint32
	pool     *parallel.Pool
	sch      *scheduler
	v        variant
	src, dst []uint32
	stop     *Stop
	proto    I
}

// propagate is the driver loop: initial labels and planting, the initial
// push, the direction decision, the Pull-Frontier bridge, the sync pass,
// frontier bookkeeping, phase timing, trace records and cancel points.
func propagate[F frontierShape, I instr[I]](g *graph.Graph, cfg Config, v variant, proto I) Result {
	n := g.NumVertices()
	if n == 0 {
		return Result{Labels: []uint32{}}
	}
	pool := cfg.pool()
	e := &engine[I, F]{offs: g.Offsets(), adj: g.Adjacency(), pool: pool, sch: newScheduler(g, cfg, pool), v: v, stop: cfg.Stop, proto: proto}
	threshold := cfg.threshold(v.threshold)
	m := g.NumDirectedEdges()
	if m == 0 {
		m = 1 // keep the density ratio finite on edgeless graphs
	}

	// Initial labels (Algorithm 1 lines 2-4, Algorithm 2 lines 2-9). The
	// max-degree vertex is memoized in the CSR, so planting pays no
	// per-run reduction.
	e.dst = cfg.Arena.Uint32s(n)
	switch {
	case v.rule == HopCount:
		parallel.Fill(pool, e.dst, func(int) uint32 { return Unreached })
	case v.plant:
		parallel.Fill(pool, e.dst, func(i int) uint32 { return uint32(i) + 1 })
	default:
		parallel.Fill(pool, e.dst, func(i int) uint32 { return uint32(i) })
	}
	root := g.MaxDegreeVertex()
	if cfg.PlantVertexSet {
		root = cfg.PlantVertex
	}
	if v.plant {
		e.dst[root] = 0
	}
	e.src = e.dst
	if !v.unified {
		e.src = cfg.Arena.Uint32s(n)
		parallel.Copy(pool, e.src, e.dst)
	}

	var cur, next *worklist.Set
	var fr, nextFr frontierState
	switch v.frontier {
	case worklistFrontier:
		cur = cfg.Arena.Worklist(n, pool.Threads())
		next = cfg.Arena.Worklist(n, pool.Threads())
	case bitmapFrontier:
		fr.bm, nextFr.bm = cfg.Arena.Bitmap(n), cfg.Arena.Bitmap(n)
		fr.bm.SetAll()
	}

	res := Result{}
	maxIters := cfg.maxIters(n)
	// phases accumulates per-kind wall time at iteration boundaries — one
	// map update per iteration, paid on every path including noInstr.
	phases := make(map[string]time.Duration, 4)

	// sync is the two-array variants' end-of-iteration labels copy
	// (Algorithm 1 lines 21-22). It streams both arrays through the cache
	// hierarchy — 2n label accesses and 2·⌈n/16⌉ cache lines — which is the
	// traffic the Unified Labels Array removes, so the counters charge it.
	sync := func() {
		if v.unified {
			return
		}
		parallel.Copy(pool, e.src, e.dst)
		if v.traffic && cfg.Ctr != nil {
			cfg.Ctr.Add(0, counters.LabelLoads, int64(n))
			cfg.Ctr.Add(0, counters.LabelStores, int64(n))
			cfg.Ctr.Add(0, counters.CacheLines, 2*int64((n+15)/16))
		}
	}
	// finish closes an iteration and reports whether the run was cancelled.
	// The check precedes the loop condition: a cancelled sweep's empty
	// frontier means "aborted", not "converged".
	finish := func(kind counters.IterKind, start time.Time, ebefore, active, activeE, changed int64, density float64) bool {
		cfg.Lines.FlushIteration(cfg.Ctr, 0)
		res.Iterations++
		dur := time.Since(start)
		phases[string(kind)] += dur
		if cfg.Trace.Enabled() {
			var zero int64
			if v.floor != Unreached {
				zero = countZeros(pool, e.dst)
			}
			cfg.Trace.Record(counters.IterRecord{
				Index:       res.Iterations - 1,
				Kind:        kind,
				Active:      active,
				ActiveEdges: activeE,
				Changed:     changed,
				Zero:        zero,
				Edges:       cfg.Ctr.Total(counters.EdgesProcessed) - ebefore,
				Density:     density,
				Threshold:   threshold,
				Duration:    dur,
			}, e.dst)
		}
		return cfg.cancelPoint(&res, string(kind))
	}

	activeV, activeE := int64(n), m
	haveFrontier, stopped := false, false
	if v.initialPush && !cfg.NoInitialPush {
		// Initial Push (Algorithm 2 lines 11-12): the push kernel over a
		// one-vertex frontier, counted as iteration 0 (§V-C). The
		// NoInitialPush ablation starts the way DO-LP does instead, with
		// everything active and a full first pull (Table VI).
		start, ebefore := time.Now(), cfg.Ctr.Total(counters.EdgesProcessed)
		deg := int64(g.Degree(root))
		cur.AddUnchecked(0, root)
		activeV, activeE = e.push(cur, next, nil, nil, 1+deg)
		cur, next = next, cur
		next.Reset()
		sync()
		res.PushIterations++
		haveFrontier = true
		stopped = finish(counters.KindInitialPush, start, ebefore, 1, deg, activeV, 0)
	}

	// A worklist frontier holds only what the initial push reached, so a
	// full pull must run before the first push — Algorithm 2 is a do-while,
	// and that pull is what compares every vertex, including those outside
	// the planted component, with its neighbours. The other frontiers start
	// with every vertex active.
	didPull := v.frontier != worklistFrontier
	for !stopped && (activeV > 0 || !didPull) && res.Iterations < maxIters {
		start, ebefore := time.Now(), cfg.Ctr.Total(counters.EdgesProcessed)
		density := float64(activeV+activeE) / float64(m)
		atStart, atStartE := activeV, activeE
		sparse := didPull && density < threshold && v.frontier != noFrontier
		var kind counters.IterKind
		var changed, changedE int64
		switch {
		case sparse && v.frontier == bitmapFrontier:
			kind = counters.KindPush
			changed, _ = e.push(nil, nil, fr.extract(pool), nextFr.bm, -1)
		case sparse && haveFrontier:
			kind = counters.KindPush
			changed, changedE = e.push(cur, next, nil, nil, activeV+activeE)
			cur, next = next, cur
			next.Reset()
		case sparse:
			// Pull-Frontier (§IV-E): the last dense-style pull, which also
			// records the vertices it changes so the following pushes have a
			// worklist to consume.
			kind = counters.KindPullFrontier
			cur.Reset()
			changed, changedE = e.pull(cur, nil)
			haveFrontier = true
		default:
			// A counting-only pull, unless the EagerFrontier ablation has
			// every pull record the worklist frontier, paying the insertion
			// cost the paper's design avoids.
			kind = counters.KindPull
			var rec *worklist.Set
			if v.frontier == worklistFrontier && cfg.EagerFrontier {
				cur.Reset()
				rec = cur
			}
			changed, changedE = e.pull(rec, nextFr.bm)
			haveFrontier = rec != nil
			didPull = true
		}
		if kind == counters.KindPush {
			res.PushIterations++
		} else {
			res.PullIterations++
		}
		sync()
		switch v.frontier {
		case worklistFrontier:
			activeV, activeE = changed, changedE
		case bitmapFrontier:
			nextFr.recount(pool, g)
			fr, nextFr = nextFr, fr
			nextFr.bm.Reset()
			activeV, activeE = fr.activeV, fr.activeE
		case noFrontier:
			if changed == 0 {
				activeV = 0 // every vertex stays active until a sweep changes nothing
			}
		}
		stopped = finish(kind, start, ebefore, atStart, atStartE, changed, density)
	}

	res.Labels = e.dst
	res.Sched = e.sch.stealStats()
	res.PhaseDurations = phases
	return res
}

// pushSeqCutoff is the |F.V|+|F.E| estimate below which a worklist push
// runs on the calling thread instead of waking the pool: parking/unparking
// the workers costs more than traversing a few thousand edges, and web-like
// graphs spend dozens of iterations on chain frontiers this small.
const pushSeqCutoff = 4096

// Software-prefetch tuning for the variants with prefetch set. Go exposes
// no portable prefetch intrinsic, so on long adjacency lists the kernels
// issue an early demand load of the label prefetchDist edges ahead of the
// scan cursor and fold it into a live sink: neighbour label accesses are the
// kernels' cache-miss source (adjacency order is uncorrelated with label
// layout), and issuing the load early lets the out-of-order core overlap the
// miss with the comparisons on the intervening neighbours. prefetchDist=8
// (two miss latencies' worth of ~4-cycle compare iterations) measured best
// among 4/8/16 on this package's benchmarks; lists shorter than
// prefetchMinDeg skip the peeled loop, where the extra bounds check costs
// more than a same-cache-line "miss" would. The touch is not an algorithmic
// label access, so it is not charged to the instrumentation counters.
const (
	prefetchDist   = 8
	prefetchMinDeg = 64
)

// prefetchSink receives each worker's accumulated prefetch loads so the
// compiler cannot discard them as dead. Written once per partition/drain
// with an atomic store (the value itself is meaningless and never read).
var prefetchSink uint32

// pull runs one pull iteration over every vertex (Algorithm 1 lines 13-20,
// Algorithm 2 lines 22-34): a vertex takes the minimum of its own and its
// neighbours' src labels, under the rule, into dst. A vertex at the floor is
// skipped and a scan that meets the floor stops (Zero Convergence). Changed
// vertices are inserted into fr or marked in bm when given. Returns the
// changed-vertex count and degree sum, which drive the next direction
// decision.
//
//thrifty:hotpath
func (e *engine[I, F]) pull(fr *worklist.Set, bm *bitmap.Bitmap) (int64, int64) {
	// src and the floor, which every vertex needs, are held in locals. The
	// CSR arrays, dst and the switches are read through e where they are
	// used, once per vertex that is not skipped: held in locals they would
	// stay live across the edge loops, and the register allocator would
	// reload them on every edge. Switches that only the counting policy
	// reads do stay in locals: on the fast path they are dead.
	floor, stop, proto := e.v.floor, e.stop, e.proto
	zc, traffic := floor != Unreached, e.v.traffic
	var av, ae int64
	e.sch.sweep(func(tid, lo, hi int) {
		ins := proto.Fresh()
		// Cancellation poll at partition entry: remaining partitions are
		// claimed and skipped, so the sweep drains promptly.
		if stop.Requested() {
			return
		}
		var localV, localE int64
		var pf uint32
		src := e.src
		for v := lo; v < hi; v++ {
			iVisit(ins)
			iBranchIf(ins, zc)
			own := atomicx.LoadUint32(&src[v])
			iLoad(ins)
			iTouchIf(ins, traffic, uint32(v))
			if own == floor {
				continue // Zero Convergence: v has converged (Algorithm 2 line 24)
			}
			newLabel := own
			nb := e.adj[e.offs[v]:e.offs[v+1]]
			switch {
			case kindOf[F]() != worklistFrontier:
				// DO-LP's and LP's scan. Without an early exit the min
				// compiles branch-free, which their dense first sweeps —
				// where about every other neighbour lowers the candidate —
				// need.
				for _, u := range nb {
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouchIf(ins, traffic, u)
					if l := atomicx.LoadUint32(&src[u]); l < newLabel {
						newLabel = l
					}
				}
			case len(nb) >= prefetchMinDeg && e.v.prefetch:
				for i := 0; i < len(nb); i++ {
					if i+prefetchDist < len(nb) {
						pf ^= atomicx.LoadUint32(&src[nb[i+prefetchDist]])
					}
					u := nb[i]
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouchIf(ins, traffic, u)
					if l := atomicx.LoadUint32(&src[u]); l < newLabel {
						newLabel = l
						iBranch(ins)
						if l == floor {
							break // Zero Convergence: nothing smaller exists (line 31)
						}
					}
				}
			default:
				for _, u := range nb {
					iEdge(ins)
					iLoad(ins)
					iBranch(ins)
					iTouchIf(ins, traffic, u)
					if l := atomicx.LoadUint32(&src[u]); l < newLabel {
						newLabel = l
						iBranch(ins)
						if l == floor {
							break // Zero Convergence: nothing smaller exists (line 31)
						}
					}
				}
			}
			iBranch(ins)
			if newLabel < own {
				// The rule, once per vertex: min f(x_u) = f(min x_u). A
				// hop count lowers v only if it is below own even after
				// the +1; newLabel < own keeps it clear of Unreached.
				if e.v.rule == HopCount {
					if newLabel++; newLabel == own {
						continue
					}
				}
				if e.v.unified {
					// dst aliases src. The uint32 index keeps the compiler
					// from reusing the load's address, which it would spill
					// on every vertex, skipped ones included.
					atomicx.StoreUint32(&src[uint32(v)], newLabel)
				} else {
					e.dst[v] = newLabel // only v's own sweep writes dst[v]; nothing reads it until the sync pass
				}
				iStore(ins)
				localV++
				localE += int64(len(nb))
				switch {
				case kindOf[F]() == bitmapFrontier:
					bm.SetAtomic(v) // chunks share words at their edges
				case fr != nil:
					fr.Add(tid, uint32(v))
				}
			}
		}
		atomicx.StoreUint32(&prefetchSink, pf)
		iFlush(ins, tid)
		atomicx.AddInt64(&av, localV)
		atomicx.AddInt64(&ae, localE)
	})
	return av, ae
}

// push runs one push iteration (Algorithm 1 lines 9-12, Algorithm 2 lines
// 13-20): each frontier vertex sends its src label, under the rule, to its
// neighbours' dst labels with atomic-min. The frontier is either the
// worklist cur, whose lowered neighbours go to next — work is the caller's
// |F.V|+|F.E| estimate, and frontiers under pushSeqCutoff drain on the
// calling thread — or the vertex list active, whose lowered neighbours are
// marked in bm. Returns the new frontier's vertex count and, for worklists,
// its degree sum.
//
// A worklist drain steals chunks from other threads' lists once its own is
// empty, and a racing duplicate insertion — permitted by the mark array's
// non-CAS discipline — at worst pushes a vertex twice, which is harmless
// because labels only decrease.
//
//thrifty:hotpath
func (e *engine[I, F]) push(cur, next *worklist.Set, active []uint32, bm *bitmap.Bitmap, work int64) (int64, int64) {
	// The arrays and the switches are read through e once per source (see
	// pull).
	stop, proto := e.stop, e.proto
	pushLoad, traffic := e.v.pushLoad, e.v.traffic
	var av, ae int64
	// body pushes from the vertex list vs or, when cur is set, from every
	// chunk it claims from cur.
	body := func(tid int, vs []uint32) {
		ins := proto.Fresh()
		var localV, localE int64
		var pf uint32
		for ring := 0; ; {
			if cur != nil {
				if vs = cur.Claim(tid, &ring); vs == nil {
					break
				}
			}
			// Cancellation poll once per chunk: chain frontiers drain
			// thousands of degree-2 vertices, where even an uncontended
			// flag load per vertex is measurable.
			if stop.Requested() {
				break
			}
			for _, v := range vs {
				iVisit(ins)
				lv := atomicx.LoadUint32(&e.src[v])
				iLoad(ins)
				if e.v.rule == HopCount && lv != Unreached {
					lv++ // the rule, once per source
				}
				offs, dst := e.offs, e.dst
				nb := e.adj[offs[v]:offs[v+1]]
				switch {
				case kindOf[F]() == bitmapFrontier:
					for _, u := range nb {
						iEdge(ins)
						iLoadIf(ins, pushLoad)
						iCAS(ins)
						iBranch(ins)
						iTouchIf(ins, traffic, u)
						if atomicx.MinUint32(&dst[u], lv) {
							iStore(ins)
							if bm.SetAtomic(int(u)) {
								localV++
							}
						}
					}
				case len(nb) >= prefetchMinDeg && e.v.prefetch:
					// Long list (the initial push from the planted hub is
					// the extreme case): touch the label prefetchDist edges
					// ahead.
					for i := 0; i < len(nb); i++ {
						if i+prefetchDist < len(nb) {
							pf ^= atomicx.LoadUint32(&dst[nb[i+prefetchDist]])
						}
						u := nb[i]
						iEdge(ins)
						iLoadIf(ins, pushLoad)
						iCAS(ins)
						iBranch(ins)
						iTouchIf(ins, traffic, u)
						if atomicx.MinUint32(&dst[u], lv) {
							iStore(ins)
							if next.AddIfAbsent(tid, u) {
								localV++
								localE += offs[u+1] - offs[u]
							}
						}
					}
				default:
					for _, u := range nb {
						iEdge(ins)
						iLoadIf(ins, pushLoad)
						iCAS(ins)
						iBranch(ins)
						iTouchIf(ins, traffic, u)
						if atomicx.MinUint32(&dst[u], lv) {
							iStore(ins)
							if next.AddIfAbsent(tid, u) {
								localV++
								localE += offs[u+1] - offs[u]
							}
						}
					}
				}
			}
			if cur == nil {
				break
			}
		}
		iFlush(ins, tid)
		atomicx.StoreUint32(&prefetchSink, pf)
		atomicx.AddInt64(&av, localV)
		atomicx.AddInt64(&ae, localE)
	}
	switch {
	case kindOf[F]() == bitmapFrontier:
		parallel.For(e.pool, len(active), 512, func(tid, lo, hi int) { body(tid, active[lo:hi]) })
	case work >= 0 && work < pushSeqCutoff:
		body(0, nil)
	default:
		e.pool.MustRun(func(tid int) { body(tid, nil) })
	}
	return av, ae
}

// frontierState is the bitmap frontier: the active-vertex bitmap and the
// vertex/edge counts that drive the direction decision of Algorithm 1
// (line 7: density = (|F.V| + |F.E|) / |E|, over directed adjacency slots).
type frontierState struct {
	bm      *bitmap.Bitmap
	activeV int64
	activeE int64
}

// recount recomputes the active vertex and edge totals from the bitmap.
// The scan is word-at-a-time (TrailingZeros64 drain): after the first few
// iterations the frontier is sparse, so most 64-bit words are zero and cost
// one load instead of 64 per-bit probes.
func (f *frontierState) recount(pool *parallel.Pool, g *graph.Graph) {
	n := g.NumVertices()
	offs := g.Offsets()
	var av, ae int64
	parallel.For(pool, n, 4096, func(_, lo, hi int) {
		var v, e int64
		f.bm.ForEachRange(lo, hi, func(i int) {
			v++
			e += offs[i+1] - offs[i]
		})
		atomicx.AddInt64(&av, v)
		atomicx.AddInt64(&ae, e)
	})
	f.activeV, f.activeE = av, ae
}

// extract gathers the set bits into a vertex list (dense→sparse frontier
// conversion before a push iteration), word-at-a-time via AppendRange: a
// push iteration only runs when the frontier is below the density threshold,
// which is exactly when most bitmap words are zero and the drain loop skips
// them in one branch each.
func (f *frontierState) extract(pool *parallel.Pool) []uint32 {
	threads := pool.Threads()
	partial := make([][]uint32, threads)
	n := f.bm.Len()
	parallel.For(pool, n, 8192, func(tid, lo, hi int) {
		partial[tid] = f.bm.AppendRange(partial[tid], lo, hi) //thrifty:benign-race per-thread collection buffer indexed by tid
	})
	out := make([]uint32, 0, f.activeV)
	for _, p := range partial {
		out = append(out, p...)
	}
	return out
}
