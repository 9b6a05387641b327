package harness

import (
	"path/filepath"
	"testing"
)

// TestShardRegressionSmall runs the sharded-exchange gate end to end at the
// small scale: every fixture × shard count yields a record whose compaction
// invariant held (ShardRegression errors otherwise), the unsharded
// denominator and per-round breakdowns are populated, the streamed
// generator's memory accounting is attached, and the report survives a JSON
// round trip.
func TestShardRegressionSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded regression fixtures are slow in -short mode")
	}
	rep, err := ShardRegression(RunConfig{Scale: ScaleSmall, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ShardSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ShardSchema)
	}
	fixtures := ShardFixtures(ScaleSmall)
	if want := len(fixtures) * len(shardBenchCounts); len(rep.Records) != want {
		t.Fatalf("got %d records, want %d", len(rep.Records), want)
	}
	for i, rec := range rep.Records {
		if rec.Vertices <= 0 || rec.Edges <= 0 || rec.Shards < 2 || rec.Rounds <= 0 {
			t.Errorf("record %d: degenerate shape: %+v", i, rec)
		}
		if rec.ExchangedBytes >= rec.NaiveBytes {
			t.Errorf("record %d: compaction inversion escaped the gate: %+v", i, rec)
		}
		if rec.Suppressed <= 0 {
			t.Errorf("record %d: no suppression on a hub-heavy fixture: %+v", i, rec)
		}
		if rec.CompactionRatio <= 1 {
			t.Errorf("record %d: compaction ratio %v", i, rec.CompactionRatio)
		}
		if rec.NsPerRun <= 0 || rec.UnshardedNs <= 0 || rec.Overhead <= 0 {
			t.Errorf("record %d: timing fields not populated: %+v", i, rec)
		}
		if len(rec.PerRound) != rec.Rounds {
			t.Errorf("record %d: %d per-round entries for %d rounds", i, len(rec.PerRound), rec.Rounds)
		}
		var sumB, sumN int64
		for _, rr := range rec.PerRound {
			sumB += rr.Bytes
			sumN += rr.NaiveBytes
		}
		if sumB != rec.ExchangedBytes || sumN != rec.NaiveBytes {
			t.Errorf("record %d: per-round traffic does not sum to totals", i)
		}
	}
	if rep.Stream == nil {
		t.Fatal("report missing streamed-generator accounting")
	}
	if rep.Stream.PeakBytes <= 0 || rep.Stream.PeakBytes >= rep.Stream.EdgeListBytes || rep.Stream.Ratio <= 1 {
		t.Errorf("streamed accounting not credible: %+v", rep.Stream)
	}

	path := filepath.Join(t.TempDir(), "BENCH_shard.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back := readReport[ShardReport](t, path)
	if back.Schema != rep.Schema || len(back.Records) != len(rep.Records) {
		t.Fatalf("JSON round trip changed the report: %+v", back)
	}
	if back.Records[0].ExchangedBytes != rep.Records[0].ExchangedBytes ||
		back.Records[0].Dataset != rep.Records[0].Dataset {
		t.Errorf("record drifted through JSON: %+v vs %+v", back.Records[0], rep.Records[0])
	}
	if back.Stream == nil || *back.Stream != *rep.Stream {
		t.Errorf("stream record drifted through JSON")
	}
	stamp, err := ReadHostStamp(path)
	if err != nil {
		t.Fatal(err)
	}
	if ms := stamp.Mismatch(rep.HostStamp); len(ms) != 0 {
		t.Errorf("self host-mismatch: %v", ms)
	}
	if rep.Table().Render() == "" {
		t.Error("empty render")
	}
}
