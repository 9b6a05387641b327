package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// readReport decodes a file written by WriteReport back into its report
// type, so round-trip tests can compare records as well as the stamp.
func readReport[R Report](t *testing.T, path string) R {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	return r
}

// TestCommittedBenchFilesDecode pins the four BENCH layouts: each committed
// file decodes into its report type with no unknown field, carries its
// schema string, re-encodes to the same JSON value, and yields its host
// stamp through ReadHostStamp.
func TestCommittedBenchFilesDecode(t *testing.T) {
	for _, tc := range []struct {
		file   string
		schema string
		rep    Report
	}{
		{"BENCH_thrifty.json", BenchSchema, &BenchReport{}},
		{"BENCH_ingest.json", IngestSchema, &IngestReport{}},
		{"BENCH_serve.json", ServeSchema, &ServeReport{}},
		{"BENCH_shard.json", ShardSchema, &ShardReport{}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("..", "..", tc.file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.rep); err != nil {
				t.Fatalf("decoding into %T: %v", tc.rep, err)
			}
			enc, err := json.Marshal(tc.rep)
			if err != nil {
				t.Fatal(err)
			}
			var want, got any
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(enc, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%T does not re-encode %s to the same JSON value", tc.rep, tc.file)
			}
			if s := want.(map[string]any)["schema"]; s != tc.schema {
				t.Errorf("schema = %v, want %q", s, tc.schema)
			}
			stamp, err := ReadHostStamp(path)
			if err != nil {
				t.Fatal(err)
			}
			if stamp != tc.rep.Host() || stamp.NumCPU == 0 {
				t.Errorf("ReadHostStamp = %+v, want %+v", stamp, tc.rep.Host())
			}
		})
	}
}
