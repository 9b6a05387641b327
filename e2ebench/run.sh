#!/usr/bin/env bash
# Builds the e2ebench program from the source in this checkout and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload rmat-solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# generated inputs all stay under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --data "$out/data" "$@"
