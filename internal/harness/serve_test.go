package harness

import (
	"path/filepath"
	"testing"
)

// TestServeRegressionSmall runs the serving load test end to end at the
// small scale and sanity-checks the report: every endpoint is represented,
// nothing errored, latencies are ordered, and the JSON round-trips.
func TestServeRegressionSmall(t *testing.T) {
	rep, err := ServeRegression(RunConfig{Scale: ScaleSmall, Reps: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ServeSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, ServeSchema)
	}
	if rep.Dataset != "rmat-small" {
		t.Errorf("dataset = %q, want rmat-small", rep.Dataset)
	}
	if rep.LoadNs <= 0 || rep.DriveNs <= 0 {
		t.Errorf("non-positive phase timings: load=%d drive=%d", rep.LoadNs, rep.DriveNs)
	}
	if len(rep.Records) != len(serveEndpoints) {
		t.Fatalf("got %d records, want %d", len(rep.Records), len(serveEndpoints))
	}
	want := rep.Clients * rep.RequestsPerClient
	for _, rec := range rep.Records {
		if rec.Errors != 0 {
			t.Errorf("%s: %d errored requests", rec.Endpoint, rec.Errors)
		}
		if rec.Requests != want {
			t.Errorf("%s: %d served requests, want %d", rec.Endpoint, rec.Requests, want)
		}
		if rec.QPS <= 0 {
			t.Errorf("%s: non-positive QPS %f", rec.Endpoint, rec.QPS)
		}
		if rec.P50Ns <= 0 || rec.P50Ns > rec.P99Ns || rec.P99Ns > rec.MaxNs {
			t.Errorf("%s: unordered percentiles p50=%d p99=%d max=%d",
				rec.Endpoint, rec.P50Ns, rec.P99Ns, rec.MaxNs)
		}
		// Server-side histogram view: every served request (200s, plus the
		// 404 label misses /size legitimately answers) is recorded, and the
		// percentiles are ordered.
		if rec.ServerCount != int64(rec.Requests) {
			t.Errorf("%s: server histogram count %d, want %d",
				rec.Endpoint, rec.ServerCount, rec.Requests)
		}
		if rec.ServerP50Ns <= 0 || rec.ServerP50Ns > rec.ServerP99Ns {
			t.Errorf("%s: unordered server percentiles p50=%d p99=%d",
				rec.Endpoint, rec.ServerP50Ns, rec.ServerP99Ns)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	stamp, err := ReadHostStamp(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(stamp.Mismatch(rep.HostStamp)) != 0 {
		t.Errorf("host stamp did not round-trip: %v", stamp.Mismatch(rep.HostStamp))
	}
	back := readReport[ServeReport](t, path)
	if len(back.Records) != len(rep.Records) || back.Records[0] != rep.Records[0] {
		t.Error("records did not round-trip")
	}
	if rep.Table().Render() == "" {
		t.Error("empty render")
	}
}
