#!/bin/sh
# Tier-1 gate, runnable without make: vet, build, full test suite, and
# the race detector over the concurrent data-plane packages.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race (data plane, obs, qlock, core, health, journal, localfs, deltasync, daemon, trial, netsim, scrub, capacity)"
go test -race ./internal/erasure/... ./internal/gf256/... ./internal/transfer/... \
	./internal/obs/... ./internal/qlock/... ./internal/core/... ./internal/health/... \
	./internal/journal/... ./internal/localfs/... ./internal/deltasync/... \
	./internal/daemon/... ./internal/trial/... ./internal/netsim/... ./internal/scrub/... \
	./internal/capacity/...

echo "== benchmarks/e2e (its own module): go vet, go test"
(cd benchmarks/e2e && go vet . && go test .)

echo "OK"
