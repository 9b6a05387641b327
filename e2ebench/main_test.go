package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"thriftylp/cc"
	"thriftylp/graph/gen"
)

func TestCheckerRejectsWrongOutputs(t *testing.T) {
	g, err := gen.Components(4, 8) // four components of eight vertices
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(g)
	res, err := cc.Run(cc.AlgoThrifty, g)
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels
	if err := o.checkLabels(labels); err != nil {
		t.Fatalf("correct labels rejected: %v", err)
	}

	merged := slices.Clone(labels)
	merged[0] = labels[len(labels)-1] // vertex 0 moved to another component
	if o.checkLabels(merged) == nil {
		t.Error("corrupted label vector accepted")
	}
	if o.checkLabels(labels[1:]) == nil {
		t.Error("short label vector accepted")
	}

	same := query{endpoint: "same", u: 0, v: 31} // different components
	if err := o.checkAnswer(same, labels, []byte(`{"u":0,"v":31,"same":false}`)); err != nil {
		t.Errorf("correct /same answer rejected: %v", err)
	}
	if o.checkAnswer(same, labels, []byte(`{"u":0,"v":31,"same":true}`)) == nil {
		t.Error("wrong /same answer accepted")
	}
	census := query{endpoint: "census"}
	if err := o.checkAnswer(census, labels, []byte(`{"vertices":32,"edges":112,"components":4,"largest":{"size":8}}`)); err != nil {
		t.Errorf("correct /census answer rejected: %v", err)
	}
	if o.checkAnswer(census, labels, []byte(`{"vertices":32,"edges":112,"components":3,"largest":{"size":8}}`)) == nil {
		t.Error("wrong /census answer accepted")
	}

	shifted := slices.Clone(labels)
	shifted[5]++
	if err := checkIdentical(labels, slices.Clone(labels)); err != nil {
		t.Errorf("identical shard labels rejected: %v", err)
	}
	if checkIdentical(shifted, labels) == nil {
		t.Error("shard label mismatch accepted")
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced, and requires every output checked and none failed.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(io.Discard, w.name, 7, 300*time.Millisecond, traced, t.TempDir(), "tiny")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metrics in step with the ones this program runs and reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], program reports %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
