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

# Refresh the four committed BENCH_*.json perf records in one ccbench run
# (min of 5 reps each; the suites are listed in the cmd/ccbench package doc).
# The shard suite fails the run on a compaction inversion or when
# suppression never fires.
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
