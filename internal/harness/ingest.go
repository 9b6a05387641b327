package harness

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"thriftylp/graph"
)

// This file is the ingestion-regression harness: the same deterministic
// fixtures as the kernel gate, but what is timed is getting the graph into
// memory — text edge-list parse + CSR build, and binary CSR load. Each cell
// is measured twice: once through a frozen copy of the original sequential
// ingestion path (the "baseline" pipeline) and once through the current
// parallel zero-copy path (the "parallel" pipeline), so the report carries
// its own denominator and the speedup survives host changes.

// IngestSchema identifies the BENCH_ingest.json layout.
const IngestSchema = "thriftylp/bench-ingest/v1"

// Pipeline labels for IngestRecord.Pipeline.
const (
	// PipelineBaseline is the frozen pre-pipeline ingestion path.
	PipelineBaseline = "baseline"
	// PipelineParallel is the current graph.Ingest path.
	PipelineParallel = "parallel"
)

// IngestRecord is one (dataset, format, pipeline) ingestion measurement.
type IngestRecord struct {
	Dataset  string `json:"dataset"`
	Format   string `json:"format"`   // "edgelist" | "binary" | "binary-mmap"
	Pipeline string `json:"pipeline"` // "baseline" | "parallel"
	Bytes    int64  `json:"bytes"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// LoadNs covers reading + (for text) parsing; BuildNs covers CSR
	// construction; TotalNs is their sum for the best (minimum-total) rep.
	LoadNs   int64   `json:"load_ns"`
	BuildNs  int64   `json:"build_ns"`
	TotalNs  int64   `json:"total_ns"`
	MBPerSec float64 `json:"mb_per_sec"`
	// Speedup is baseline total / this total, set on parallel rows only.
	Speedup float64 `json:"speedup,omitempty"`
	Reps    int     `json:"reps"`
}

// IngestReport is the full ingestion regression run, as serialized to
// BENCH_ingest.json.
type IngestReport struct {
	Schema string `json:"schema"`
	HostStamp
	Records []IngestRecord `json:"records"`
}

// IngestFixtures returns the datasets the ingestion gate runs on: the RMAT
// and web analogs of suiteFixtures at the given scale.
func IngestFixtures(scale Scale) []RegressionFixture {
	rmat, web, _ := suiteFixtures(scale)
	return []RegressionFixture{rmat, web}
}

// ingestResult is one rep's phase timing plus what was loaded. The baseline
// pipelines fill the fields directly so they never depend on the evolving
// graph loaders they are the denominator for.
type ingestResult struct {
	load, build time.Duration
	vertices    int
	edges       int64
	mapped      bool
	close       func() error
}

func (r ingestResult) total() time.Duration { return r.load + r.build }

// IngestRegression measures edge-list and binary ingestion for every
// fixture, baseline and parallel pipelines side by side: one warmup plus
// cfg.Reps timed reps per cell, minimum total reported (the same discipline
// as TimeAlgorithm).
func IngestRegression(cfg RunConfig) (IngestReport, error) {
	rep := IngestReport{
		Schema:    IngestSchema,
		HostStamp: currentHostStamp(cfg.Threads),
	}
	dir, err := os.MkdirTemp("", "thriftylp-ingest-")
	if err != nil {
		return IngestReport{}, err
	}
	defer os.RemoveAll(dir)

	for _, f := range IngestFixtures(cfg.scale()) {
		if err := cfg.ctx().Err(); err != nil {
			return IngestReport{}, err
		}
		g, err := f.Build()
		if err != nil {
			return IngestReport{}, fmt.Errorf("building %s: %w", f.Name, err)
		}
		elPath := filepath.Join(dir, f.Name+".el")
		binPath := filepath.Join(dir, f.Name+".bin")
		if err := writeEdgeListFile(elPath, g); err != nil {
			return IngestReport{}, err
		}
		if err := graph.SaveBinary(binPath, g); err != nil {
			return IngestReport{}, err
		}

		cells := []struct {
			path     string
			pipeline string
			run      func(path string) (ingestResult, error)
		}{
			{elPath, PipelineBaseline, baselineIngestEdgeList},
			{elPath, PipelineParallel, parallelIngest},
			{binPath, PipelineBaseline, baselineIngestBinary},
			{binPath, PipelineParallel, parallelIngest},
		}
		// Baseline rows precede their parallel partner, so the speedup
		// denominator for a (dataset, file) pair is always the immediately
		// preceding record.
		var lastBaselineTotal time.Duration
		for _, cell := range cells {
			if err := cfg.ctx().Err(); err != nil {
				return IngestReport{}, err
			}
			rec, bestTotal, err := timeIngestCell(cell.path, f.Name, cell.pipeline, cfg.reps(), cell.run)
			if err != nil {
				return IngestReport{}, fmt.Errorf("%s %s on %s: %w", cell.pipeline, cell.path, f.Name, err)
			}
			if cell.pipeline == PipelineBaseline {
				lastBaselineTotal = bestTotal
			} else if bestTotal > 0 {
				rec.Speedup = float64(lastBaselineTotal) / float64(bestTotal)
			}
			rep.Records = append(rep.Records, rec)
		}
	}
	return rep, nil
}

// timeIngestCell runs one warmup plus reps timed ingestions and reports the
// minimum-total rep.
func timeIngestCell(path, dataset, pipeline string, reps int, run func(path string) (ingestResult, error)) (IngestRecord, time.Duration, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return IngestRecord{}, 0, err
	}
	warm, err := run(path)
	if err != nil {
		return IngestRecord{}, 0, err
	}
	rec := IngestRecord{
		Dataset:  dataset,
		Pipeline: pipeline,
		Bytes:    fi.Size(),
		Vertices: warm.vertices,
		Edges:    warm.edges,
		Reps:     reps,
	}
	warm.close()

	best := ingestResult{load: 1<<63 - 1}
	var format string
	for i := 0; i < reps; i++ {
		res, err := run(path)
		if err != nil {
			return IngestRecord{}, 0, err
		}
		if res.total() < best.total() {
			best = ingestResult{load: res.load, build: res.build}
		}
		format = formatOf(path, res.mapped)
		res.close()
	}
	rec.Format = format
	rec.LoadNs = best.load.Nanoseconds()
	rec.BuildNs = best.build.Nanoseconds()
	rec.TotalNs = best.total().Nanoseconds()
	if rec.TotalNs > 0 {
		rec.MBPerSec = float64(rec.Bytes) / 1e6 / best.total().Seconds()
	}
	return rec, best.total(), nil
}

// formatOf labels what a loaded graph's bytes came through.
func formatOf(path string, mapped bool) string {
	if !strings.HasSuffix(path, ".bin") && !strings.HasSuffix(path, ".csr") {
		return graph.FormatEdgeList
	}
	if mapped {
		return graph.FormatBinaryMmap
	}
	return graph.FormatBinary
}

// parallelIngest is the current pipeline under test: graph.Ingest.
func parallelIngest(path string) (ingestResult, error) {
	g, st, err := graph.Ingest(path)
	if err != nil {
		return ingestResult{}, err
	}
	return ingestResult{
		load: st.LoadDuration, build: st.BuildDuration,
		vertices: st.Vertices, edges: st.Edges,
		mapped: g.Mapped(), close: g.Close,
	}, nil
}

// baselineIngestEdgeList is a frozen copy of the pre-pipeline edge-list
// reader — bufio.Scanner, strings.Fields, strconv.ParseUint, growth-by-append
// edge slice — feeding the legacy atomic CSR builder. It is the speedup
// denominator for text ingestion and must not be improved.
func baselineIngestEdgeList(path string) (ingestResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingestResult{}, err
	}
	defer f.Close()
	start := time.Now()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return ingestResult{}, fmt.Errorf("baseline: malformed line %q", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return ingestResult{}, err
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return ingestResult{}, err
		}
		edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return ingestResult{}, err
	}
	load := time.Since(start)

	start = time.Now()
	g, err := graph.BuildUndirected(edges, graph.WithLegacyBuild())
	if err != nil {
		return ingestResult{}, err
	}
	return ingestResult{
		load: load, build: time.Since(start),
		vertices: g.NumVertices(), edges: g.NumEdges(), close: g.Close,
	}, nil
}

// baselineIngestBinary is a frozen copy of the pre-mmap binary path: a
// buffered stream read with chunked element-wise decoding, followed by the
// original sequential CSR validation and max-degree scan. It is the speedup
// denominator for binary ingestion and must not be improved — in particular
// it must not call into the evolving graph loaders, whose gains it exists
// to measure.
func baselineIngestBinary(path string) (ingestResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingestResult{}, err
	}
	defer f.Close()
	start := time.Now()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [32]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return ingestResult{}, fmt.Errorf("baseline: reading binary header: %w", err)
	}
	if magic := binary.LittleEndian.Uint64(hdr[0:]); magic != 0x54484c50 {
		return ingestResult{}, fmt.Errorf("baseline: bad magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != 1 {
		return ingestResult{}, fmt.Errorf("baseline: unsupported version %d", v)
	}
	n := binary.LittleEndian.Uint64(hdr[16:])
	m := binary.LittleEndian.Uint64(hdr[24:])

	offsets, err := baselineReadInt64s(br, n+1)
	if err != nil {
		return ingestResult{}, err
	}
	adj, err := baselineReadUint32s(br, m)
	if err != nil {
		return ingestResult{}, err
	}
	if err := baselineValidateCSR(offsets, adj); err != nil {
		return ingestResult{}, err
	}
	// Sequential max-degree scan, as the original constructor performed it.
	maxDeg := int64(-1)
	for v := 0; v+1 < len(offsets); v++ {
		if d := offsets[v+1] - offsets[v]; d > maxDeg {
			maxDeg = d
		}
	}
	_ = maxDeg
	return ingestResult{
		load:     time.Since(start),
		vertices: len(offsets) - 1,
		edges:    (int64(len(adj)) + 1) / 2,
		close:    func() error { return nil },
	}, nil
}

// baselineReadInt64s is the frozen chunked int64 decoder (4Mi elements per
// chunk, element-wise byte conversion).
func baselineReadInt64s(r io.Reader, count uint64) ([]int64, error) {
	const chunk = 4 << 20
	k0 := count
	if k0 > chunk {
		k0 = chunk
	}
	out := make([]int64, 0, k0)
	buf := make([]byte, 8*k0)
	for done := uint64(0); done < count; {
		k := count - done
		if k > chunk {
			k = chunk
		}
		b := buf[:8*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("baseline: element %d of %d: %w", done, count, err)
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, int64(binary.LittleEndian.Uint64(b[8*i:])))
		}
		done += k
	}
	return out, nil
}

// baselineReadUint32s is the frozen chunked uint32 decoder.
func baselineReadUint32s(r io.Reader, count uint64) ([]uint32, error) {
	const chunk = 4 << 20
	k0 := count
	if k0 > chunk {
		k0 = chunk
	}
	out := make([]uint32, 0, k0)
	buf := make([]byte, 4*k0)
	for done := uint64(0); done < count; {
		k := count - done
		if k > chunk {
			k = chunk
		}
		b := buf[:4*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("baseline: element %d of %d: %w", done, count, err)
		}
		for i := uint64(0); i < k; i++ {
			out = append(out, binary.LittleEndian.Uint32(b[4*i:]))
		}
		done += k
	}
	return out, nil
}

// baselineValidateCSR is the frozen sequential CSR validation: monotone
// offsets spanning the adjacency array, in-range ids, and the in-degree ==
// out-degree symmetry audit.
func baselineValidateCSR(offsets []int64, adj []uint32) error {
	if len(offsets) == 0 {
		return fmt.Errorf("baseline: empty offsets")
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return fmt.Errorf("baseline: offsets[0] = %d", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return fmt.Errorf("baseline: offsets not monotone at vertex %d", v)
		}
	}
	if offsets[n] != int64(len(adj)) {
		return fmt.Errorf("baseline: offsets[%d] = %d, want %d", n, offsets[n], len(adj))
	}
	for i, u := range adj {
		if int(u) >= n {
			return fmt.Errorf("baseline: slot %d references vertex %d out of range", i, u)
		}
	}
	inCount := make([]int64, n)
	for _, u := range adj {
		inCount[u]++
	}
	for v := 0; v < n; v++ {
		if inCount[v] != offsets[v+1]-offsets[v] {
			return fmt.Errorf("baseline: vertex %d asymmetric", v)
		}
	}
	return nil
}

// writeEdgeListFile writes g as a text edge list at path.
func writeEdgeListFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Table renders the report for the console.
func (r IngestReport) Table() *Table {
	t := &Table{
		ID:      "ingest",
		Title:   "Ingestion regression (min of reps, baseline = frozen sequential path)",
		Columns: []string{"dataset", "format", "pipeline", "load ms", "build ms", "MB/s", "speedup", "reps"},
	}
	for _, rec := range r.Records {
		speedup := ""
		if rec.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", rec.Speedup)
		}
		t.AddRow(rec.Dataset, rec.Format, rec.Pipeline,
			Millis(time.Duration(rec.LoadNs)), Millis(time.Duration(rec.BuildNs)),
			rec.MBPerSec, speedup, rec.Reps)
	}
	return t
}
