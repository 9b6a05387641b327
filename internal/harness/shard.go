package harness

import (
	"fmt"
	"os"

	"thriftylp/cc"
	"thriftylp/graph/gen"
	"thriftylp/internal/shard"
)

// This file is the sharded-pipeline regression gate: the hub-heavy fixtures
// where zero-convergence suppression is supposed to pay, solved with
// AlgoShard at several shard counts and with unsharded Thrifty as the
// denominator, exported as JSON (`make bench-json` writes BENCH_shard.json).
// Beyond timing, the gate records the exchange traffic — compacted bytes vs
// the naive flat-encoding bytes, suppressed-vertex counts, per-round
// breakdowns — and FAILS (returns an error, not just a number) when the
// compacted exchange stops beating the naive encoding on these inputs: that
// invariant is the whole point of the compaction machinery.

// ShardSchema identifies the BENCH_shard.json layout.
const ShardSchema = "thriftylp/bench-shard/v1"

// ShardRoundRecord is one exchange round's traffic within a ShardRecord.
type ShardRoundRecord struct {
	Bytes      int64 `json:"bytes"`
	NaiveBytes int64 `json:"naive_bytes"`
	Pairs      int64 `json:"pairs"`
	Suppressed int64 `json:"suppressed"`
}

// ShardRecord is one (dataset, shard count) measurement.
type ShardRecord struct {
	Dataset  string `json:"dataset"`
	Shards   int    `json:"shards"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// Rounds is the exchange-round count to global convergence;
	// LocalIterations sums the interior Thrifty iterations across shards.
	Rounds          int `json:"rounds"`
	LocalIterations int `json:"local_iterations"`
	// BoundaryEntries sizes the boundary lists the exchange operates on.
	BoundaryEntries int64 `json:"boundary_entries"`
	// ExchangedBytes is the compacted traffic; NaiveBytes the flat
	// (4B vertex, 4B label) denominator; CompactionRatio their quotient
	// (naive / compacted, higher is better).
	ExchangedBytes  int64   `json:"exchanged_bytes"`
	NaiveBytes      int64   `json:"naive_bytes"`
	CompactionRatio float64 `json:"compaction_ratio"`
	Pairs           int64   `json:"pairs"`
	Suppressed      int64   `json:"suppressed"`
	// NsPerRun is the sharded solve's wall time (min over reps);
	// UnshardedNs is single-CSR Thrifty on the same input from the same
	// session, and Overhead their quotient (sharded / unsharded — the price
	// of the exchange when the graph would still have fit in RAM).
	NsPerRun    int64   `json:"ns_per_run"`
	UnshardedNs int64   `json:"unsharded_ns"`
	Overhead    float64 `json:"overhead"`
	Reps        int     `json:"reps"`
	// PerRound decomposes the exchange traffic by round.
	PerRound []ShardRoundRecord `json:"per_round,omitempty"`
}

// StreamRecord is the streamed-generator accounting attached to the report:
// the peak heap the streamed sharded build needed next to the bytes the
// in-memory path's raw edge list alone would have cost on the same input.
type StreamRecord struct {
	Scale         int     `json:"scale"`
	EdgeFactor    int     `json:"edge_factor"`
	Shards        int     `json:"shards"`
	Vertices      int     `json:"vertices"`
	DirectedSlots int64   `json:"directed_slots"`
	PeakBytes     int64   `json:"peak_bytes"`
	EdgeListBytes int64   `json:"edge_list_bytes"`
	Ratio         float64 `json:"ratio"` // edge-list / peak, higher is better
}

// ShardReport is the full sharded regression run, as serialized to
// BENCH_shard.json.
type ShardReport struct {
	Schema string `json:"schema"`
	HostStamp
	Records []ShardRecord `json:"records"`
	// Stream is the streamed-generator memory accounting (nil when the
	// streamed build failed — it is measured, not assumed).
	Stream *StreamRecord `json:"stream,omitempty"`
}

// shardBenchCounts are the shard counts every fixture is measured at.
var shardBenchCounts = []int{2, 4, 8}

// ShardFixtures returns the sharded-gate datasets: the three fixtures of
// suiteFixtures at the given scale — both skewed analogs, plus the pure star
// where suppression does maximal work.
func ShardFixtures(scale Scale) []RegressionFixture {
	rmat, web, star := suiteFixtures(scale)
	return []RegressionFixture{rmat, web, star}
}

// ShardRegression measures the sharded pipeline on every fixture at every
// shard count: one warmup plus cfg.Reps timed reps per cell, minimum
// reported (the TimeAlgorithm discipline), with unsharded Thrifty timed
// once per fixture as the denominator. It returns an error — failing the
// gate — if any cell's compacted exchange does not beat the naive
// encoding, or if suppression never fired on these hub-heavy inputs.
func ShardRegression(cfg RunConfig) (ShardReport, error) {
	rep := ShardReport{
		Schema:    ShardSchema,
		HostStamp: currentHostStamp(cfg.Threads),
	}
	for _, f := range ShardFixtures(cfg.scale()) {
		if err := cfg.ctx().Err(); err != nil {
			return ShardReport{}, err
		}
		g, err := f.Build()
		if err != nil {
			return ShardReport{}, fmt.Errorf("building %s: %w", f.Name, err)
		}
		unsharded, _, err := TimeAlgorithm(cc.AlgoThrifty, g, cfg)
		if err != nil {
			return ShardReport{}, fmt.Errorf("thrifty on %s: %w", f.Name, err)
		}
		for _, shards := range shardBenchCounts {
			if err := cfg.ctx().Err(); err != nil {
				return ShardReport{}, err
			}
			best, res, err := TimeAlgorithm(cc.AlgoShard, g, cfg, cc.WithShards(shards))
			if err != nil {
				return ShardReport{}, fmt.Errorf("shard=%d on %s: %w", shards, f.Name, err)
			}
			st := res.Stats.Shard
			if st == nil {
				return ShardReport{}, fmt.Errorf("shard=%d on %s: no ShardStats", shards, f.Name)
			}
			rec := ShardRecord{
				Dataset:         f.Name,
				Shards:          st.Shards,
				Vertices:        g.NumVertices(),
				Edges:           g.NumEdges(),
				Rounds:          st.Rounds,
				LocalIterations: st.LocalIterations,
				BoundaryEntries: st.BoundaryEntries,
				ExchangedBytes:  st.ExchangedBytes,
				NaiveBytes:      st.NaiveBytes,
				Pairs:           st.Pairs,
				Suppressed:      st.SuppressedVertices,
				NsPerRun:        best.Nanoseconds(),
				UnshardedNs:     unsharded.Nanoseconds(),
				Reps:            cfg.reps(),
			}
			if rec.ExchangedBytes > 0 {
				rec.CompactionRatio = float64(rec.NaiveBytes) / float64(rec.ExchangedBytes)
			}
			if rec.UnshardedNs > 0 {
				rec.Overhead = float64(rec.NsPerRun) / float64(rec.UnshardedNs)
			}
			for _, rr := range st.PerRound {
				rec.PerRound = append(rec.PerRound, ShardRoundRecord{
					Bytes: rr.Bytes, NaiveBytes: rr.NaiveBytes, Pairs: rr.Pairs, Suppressed: rr.Suppressed,
				})
			}
			// The gate: on these skewed fixtures the compaction machinery must
			// actually pay. Numbers that merely drift are tracked by diffing
			// the JSON; an inversion here is a correctness-of-purpose bug.
			if st.Shards > 1 {
				if rec.ExchangedBytes >= rec.NaiveBytes {
					return ShardReport{}, fmt.Errorf(
						"%s shards=%d: compacted exchange %d B >= naive %d B",
						f.Name, st.Shards, rec.ExchangedBytes, rec.NaiveBytes)
				}
				if rec.Suppressed == 0 {
					return ShardReport{}, fmt.Errorf(
						"%s shards=%d: zero-convergence suppression never fired", f.Name, st.Shards)
				}
			}
			rep.Records = append(rep.Records, rec)
		}
	}
	if stream, err := streamAccounting(cfg.scale()); err == nil {
		rep.Stream = stream
	} else {
		return ShardReport{}, fmt.Errorf("streamed-generator accounting: %w", err)
	}
	return rep, nil
}

// streamAccounting runs the streamed sharded generator once at the given
// scale and reports its memory shape.
func streamAccounting(scale Scale) (*StreamRecord, error) {
	cfg := gen.DefaultRMAT(16, 16, 42)
	if scale == ScaleSmall {
		cfg = gen.DefaultRMAT(12, 16, 42)
	}
	const shards = 8
	dir, err := os.MkdirTemp("", "thriftylp-stream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	src, err := gen.NewRMATStream(cfg)
	if err != nil {
		return nil, err
	}
	_, stats, err := shard.StreamWrite(src, dir, shards)
	if err != nil {
		return nil, err
	}
	rec := &StreamRecord{
		Scale:         cfg.Scale,
		EdgeFactor:    cfg.EdgeFactor,
		Shards:        shards,
		Vertices:      stats.Vertices,
		DirectedSlots: stats.DirectedSlots,
		PeakBytes:     stats.PeakBytes,
		EdgeListBytes: stats.EdgeListBytes,
	}
	if stats.PeakBytes > 0 {
		rec.Ratio = float64(stats.EdgeListBytes) / float64(stats.PeakBytes)
	}
	return rec, nil
}

// Table renders the report for the console, with the streamed
// generator's accounting as a note.
func (r ShardReport) Table() *Table {
	t := &Table{
		ID:      "shard",
		Title:   "Sharded exchange regression (min of reps)",
		Columns: []string{"dataset", "shards", "rounds", "exchanged B", "naive B", "ratio", "suppr", "overhead", "reps"},
	}
	for _, rec := range r.Records {
		t.AddRow(rec.Dataset, rec.Shards, rec.Rounds, rec.ExchangedBytes, rec.NaiveBytes,
			rec.CompactionRatio, rec.Suppressed, rec.Overhead, rec.Reps)
	}
	if s := r.Stream; s != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"streamed gen: scale=%d ef=%d shards=%d peak %d B vs edge-list %d B (%.1fx under)",
			s.Scale, s.EdgeFactor, s.Shards, s.PeakBytes, s.EdgeListBytes, s.Ratio))
	}
	return t
}
