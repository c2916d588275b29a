#!/bin/sh
# Tier-1 gate, runnable without make: vet, the function-length gate,
# build, full test suite, the race detector over the concurrent
# data-plane packages, the benchmark module, and the shipped §3.2 output.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== no function over 100 lines in internal/core, internal/transfer, internal/deltasync, internal/meta"
./scripts/funclen.sh 100 internal/core internal/transfer internal/deltasync internal/meta

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (the packages in scripts/race_pkgs.txt)"
# shellcheck disable=SC2046 # one argument per listed package
go test -race $(grep -v '^#' scripts/race_pkgs.txt)

echo "== benchmarks/e2e (its own module): go vet, go test"
(cd benchmarks/e2e && go vet . && go test .)

echo "== unibench_measurement.txt is what unibench prints"
./scripts/measurement_check.sh

echo "OK"
