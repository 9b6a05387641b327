package harness

import (
	"path/filepath"
	"testing"
)

// TestIngestRegressionSmall runs the full ingestion gate at the small scale
// and checks the report's shape: every fixture yields a baseline/parallel
// pair for both formats, parallel rows carry a speedup denominator, and the
// report survives a JSON round trip.
func TestIngestRegressionSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ingestion regression fixtures are slow in -short mode")
	}
	rep, err := IngestRegression(RunConfig{Scale: ScaleSmall, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != IngestSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, IngestSchema)
	}
	fixtures := IngestFixtures(ScaleSmall)
	if want := len(fixtures) * 4; len(rep.Records) != want {
		t.Fatalf("got %d records, want %d (2 formats x 2 pipelines per fixture)", len(rep.Records), want)
	}

	for i, rec := range rep.Records {
		wantPipeline := PipelineBaseline
		if i%2 == 1 {
			wantPipeline = PipelineParallel
		}
		if rec.Pipeline != wantPipeline {
			t.Errorf("record %d: pipeline = %q, want %q", i, rec.Pipeline, wantPipeline)
		}
		if rec.Bytes <= 0 || rec.Vertices <= 0 || rec.Edges <= 0 {
			t.Errorf("record %d: degenerate sizes: %+v", i, rec)
		}
		if rec.TotalNs != rec.LoadNs+rec.BuildNs {
			t.Errorf("record %d: total %d != load %d + build %d", i, rec.TotalNs, rec.LoadNs, rec.BuildNs)
		}
		if rec.Pipeline == PipelineParallel && rec.Speedup <= 0 {
			t.Errorf("record %d: parallel row missing speedup: %+v", i, rec)
		}
		if rec.Pipeline == PipelineBaseline && rec.Speedup != 0 {
			t.Errorf("record %d: baseline row carries a speedup: %+v", i, rec)
		}
	}

	// Baseline and parallel must agree on what they loaded.
	for i := 0; i+1 < len(rep.Records); i += 2 {
		b, p := rep.Records[i], rep.Records[i+1]
		if b.Dataset != p.Dataset || b.Vertices != p.Vertices || b.Edges != p.Edges || b.Bytes != p.Bytes {
			t.Errorf("records %d/%d: pipelines disagree on the dataset: %+v vs %+v", i, i+1, b, p)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_ingest.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back := readReport[IngestReport](t, path)
	if back.Schema != rep.Schema || len(back.Records) != len(rep.Records) {
		t.Fatalf("JSON round trip changed the report: %+v", back)
	}
	if back.Records[1] != rep.Records[1] {
		t.Errorf("record drifted through JSON: %+v vs %+v", back.Records[1], rep.Records[1])
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
