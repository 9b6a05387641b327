package harness

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"thriftylp/internal/obs"
)

func TestHostMismatch(t *testing.T) {
	base := BenchReport{
		Schema: BenchSchema,
		HostStamp: HostStamp{GoMaxProcs: 8, NumCPU: 8,
			GoVersion: runtime.Version(), GOOS: "linux", GOARCH: "amd64", Threads: 0},
	}
	if lines := base.Mismatch(base.HostStamp); len(lines) != 0 {
		t.Errorf("identical hosts flagged: %v", lines)
	}

	other := base
	other.GoMaxProcs = 4
	other.GoVersion = "go1.0"
	lines := base.Mismatch(other.HostStamp)
	if len(lines) != 2 {
		t.Fatalf("got %d mismatch lines %v, want 2", len(lines), lines)
	}
	joined := strings.Join(lines, "; ")
	for _, want := range []string{"gomaxprocs", "go version"} {
		if !strings.Contains(joined, want) {
			t.Errorf("mismatch lines %v missing %q", lines, want)
		}
	}
}

func TestBenchReportJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := BenchReport{
		Schema: BenchSchema,
		HostStamp: HostStamp{GoMaxProcs: 2, NumCPU: 4,
			GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64"},
		Records: []BenchRecord{{
			Algorithm: "thrifty", Dataset: "rmat-medium", Vertices: 10, Edges: 20,
			Iterations: 3, NsPerRun: 1000, EdgesPerSec: 2e7, Reps: 3,
			PushIterations: 1, PullIterations: 2,
			PhaseNs: map[string]int64{"pull": 700, "push": 300},
		}},
	}
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got := readReport[BenchReport](t, path)
	if got.Schema != BenchSchema || got.NumCPU != 4 || len(got.Records) != 1 {
		t.Errorf("round trip lost header fields: %+v", got)
	}
	if got.Records[0].PhaseNs["pull"] != 700 || got.Records[0].PullIterations != 2 {
		t.Errorf("round trip lost record fields: %+v", got.Records[0])
	}

	if h, err := ReadHostStamp(path); err != nil || h != rep.HostStamp {
		t.Errorf("ReadHostStamp = %+v, %v; want %+v", h, err, rep.HostStamp)
	}
	if _, err := ReadHostStamp(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Errorf("reading absent report succeeded")
	}
}

// TestBenchRegressionStampsAndTraces runs the real suite on tiny fixture
// overrides — not possible without exported seams — so instead it checks the
// cheapest real invocation: the report carries the host stamp and, with a
// trace writer configured, one instrumented trace per (algorithm, fixture)
// cell lands in the JSONL file.
func TestBenchRegressionStampsAndTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("regression fixtures are medium-scale")
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tw, err := obs.CreateTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BenchRegression(RunConfig{Reps: 1, Trace: tw})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	if rep.Schema != BenchSchema {
		t.Errorf("Schema = %q, want %q", rep.Schema, BenchSchema)
	}
	if rep.NumCPU != runtime.NumCPU() || rep.GoVersion != runtime.Version() ||
		rep.GOOS != runtime.GOOS || rep.GOARCH != runtime.GOARCH {
		t.Errorf("host stamp wrong: %+v", rep)
	}
	for _, rec := range rep.Records {
		if rec.PushIterations+rec.PullIterations == 0 {
			t.Errorf("%s/%s: no direction decomposition", rec.Algorithm, rec.Dataset)
		}
		if len(rec.PhaseNs) == 0 {
			t.Errorf("%s/%s: no phase breakdown", rec.Algorithm, rec.Dataset)
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]bool{}
	for _, rec := range recs {
		cells[rec.Algo+"/"+rec.Dataset] = true
	}
	if want := len(rep.Records); len(cells) != want {
		t.Errorf("trace covers %d cells %v, want %d", len(cells), cells, want)
	}
}
