# Convenience targets for the thriftylp repository.

GO ?= go

.PHONY: all build test lint check race cover bench bench-json verify experiments clean

all: check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test -timeout 10m ./...

# Run the thriftyvet analyzer suite — hotpath, benignrace, padded,
# errfreeze, metricfreeze, cancelpoint, plus the CFG/facts-based reflease,
# mmapsafe, goroleak and dirhygiene — over the whole module through the go
# vet driver; see DESIGN.md §12 for the annotation grammar and §17 for the
# dataflow engine.
lint:
	$(GO) build -o bin/thriftyvet ./cmd/thriftyvet
	$(GO) vet -vettool=$(CURDIR)/bin/thriftyvet ./...

check: build test lint

race:
	GOMAXPROCS=4 $(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One Benchmark family per paper table/figure; see bench_test.go.
bench:
	$(GO) test -bench=. -benchmem ./...

# Refresh the machine-readable perf-regression records: kernel timings
# (uninstrumented fast path, fixed medium-scale fixtures, min of 5 reps) in
# BENCH_thrifty.json, ingestion timings (parallel zero-copy pipeline vs the
# frozen sequential baseline) in BENCH_ingest.json, serving QPS/latency
# (thriftyd query stack under concurrent load) in BENCH_serve.json, and the
# sharded-exchange gate (compacted vs naive boundary exchange, suppression
# counts, unsharded denominator; fails on a compaction inversion) in
# BENCH_shard.json.
bench-json:
	$(GO) run ./cmd/ccbench -ingest-json BENCH_ingest.json -serve-json BENCH_serve.json -shard-json BENCH_shard.json -json BENCH_thrifty.json -reps 5

# Cross-validate every algorithm against the sequential oracle.
verify:
	$(GO) run ./cmd/ccverify

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ccbench -exp all -scale medium

clean:
	$(GO) clean ./...
	rm -rf bin datasets
