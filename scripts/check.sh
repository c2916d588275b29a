#!/bin/sh
# Tier-1 gate, and the one list of its steps (`make check` runs this
# script): vet, gofmt, the function-length gate, the test-only options
# and API gate, build, full test suite, the race detector over the
# concurrent data-plane packages and, repeated, over the lock hold's
# overlap tests, the portable (non-assembly) kernels, the benchmark
# module, and the shipped §3.2 output.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l internal cmd examples"
unformatted=$(gofmt -l internal cmd examples)
if [ -n "$unformatted" ]; then
	echo "gofmt needed:"
	echo "$unformatted"
	exit 1
fi

echo "== no function over 100 lines (the packages in scripts/funclen_pkgs.txt)"
# shellcheck disable=SC2046 # one argument per listed package
./scripts/funclen.sh 100 $(grep -v '^#' scripts/funclen_pkgs.txt)

echo "== no internal Config field only tests set, no exported function only tests call (scripts/knobs_allow.txt aside)"
./scripts/knobs.sh

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (the packages in scripts/race_pkgs.txt)"
# shellcheck disable=SC2046 # one argument per listed package
go test -race $(grep -v '^#' scripts/race_pkgs.txt)

echo "== the last hold beside the next operation: the tests in scripts/overlap_tests.txt, go test -race -count=20"
go test -race -count=20 -run "^($(grep -v '^#' scripts/overlap_tests.txt | paste -sd'|' -))\$" ./internal/qlock ./internal/core

echo "== portable gf256 kernels: go test -tags purego, GOARCH=arm64 go vet"
go test -tags purego ./internal/gf256
GOARCH=arm64 go vet ./internal/gf256

echo "== benchmarks/e2e (its own module): go vet, go test"
(cd benchmarks/e2e && go vet . && go test .)

echo "== unibench_measurement.txt is what unibench prints"
./scripts/measurement_check.sh

echo "OK"
