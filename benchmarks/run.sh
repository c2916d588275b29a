#!/usr/bin/env bash
# Builds the e2e benchmark from source and runs it. Everything the
# build leaves behind (Go build cache included) stays in .bench_build/
# inside the checkout. Arguments go to the benchmark unchanged, e.g.
#
#   bash benchmarks/run.sh --workload edits_wan --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOENV=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmarks/e2e" && go build -o "$build/e2e" .)
cd "$root"
exec "$build/e2e" "$@"
