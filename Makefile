GO ?= go

# The packages the race detector runs over in `make test-race` and
# `make check`; the list lives in scripts/race_pkgs.txt, which
# scripts/check.sh reads too.
RACE_PKGS = $(shell grep -v '^\#' scripts/race_pkgs.txt)

.PHONY: build vet funclen test test-race e2e-check measurement-check bench-erasure bench-sync bench-trial bench chaos scrub check cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# No function over 100 lines in the packages whose long functions
# PRs 19, 20, 23 and 24 took apart.
funclen:
	./scripts/funclen.sh 100 internal/core internal/transfer internal/deltasync internal/meta

test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)

# The data-plane throughput numbers (kernels, pooled encode/decode,
# size sweep). BENCH_erasure.json snapshots a run of these.
bench-erasure:
	$(GO) test -run '^$$' -bench 'BenchmarkErasure|BenchmarkGF' -benchmem ./internal/erasure/ ./internal/gf256/

# Control-plane pass latency: full rescan vs event-driven at 1k/10k/50k
# files. BENCH_sync.json snapshots a run of these
# (UNIDRIVE_WRITE_BENCH=1 go test -run TestWriteSyncBenchSnapshot ./internal/core/).
bench-sync:
	$(GO) test -run '^$$' -bench BenchmarkSyncPass -benchmem ./internal/core/

# 100k-user synthetic-population trial (§7.3 / Figure 15 analogue):
# runs the analytic harness twice for the determinism check and
# regenerates BENCH_trial.json at the repo root.
bench-trial:
	UNIDRIVE_WRITE_BENCH=1 $(GO) test -run TestWriteTrialBenchSnapshot -count=1 -timeout 30m -v ./internal/trial/

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Fault-injection soak: the chaos, outage, failover, hedging,
# crash-recovery, quota-exhaustion, and data-corruption tests under
# the race detector with a generous timeout.
chaos:
	$(GO) test -race -timeout 15m -run 'Chaos|Outage|Failover|Hedge|Flaky|Breaker|Guard|Degraded|Crash|Recover|Corrupt|Scrub|Quota' \
		./internal/core/... ./internal/transfer/... ./internal/health/... \
		./internal/qlock/... ./internal/cloudsim/... ./internal/scrub/... \
		./internal/capacity/...

# Integrity smoke: the anti-entropy scrubber's own suite plus the
# end-to-end corruption/repair paths in core, race-checked.
scrub:
	$(GO) test -race -timeout 10m -run 'Scrub|Corrupt|Integrity|Backfill' \
		./internal/scrub/... ./internal/core/...

# Coverage gate: the floors (module total and the per-package bars)
# are the table at the top of scripts/cover.sh.
cover:
	./scripts/cover.sh

# The end-to-end benchmark harness (BENCHMARK.json) is its own module,
# so ./... neither builds nor tests it and a core API change could
# break the benchmark unnoticed.
e2e-check:
	cd benchmarks/e2e && $(GO) vet . && $(GO) test .

# unibench_measurement.txt is the one shipped output that can be exact:
# the §3.2 study runs on a stepping clock, so seed 1 at paper size must
# print the file again (the wall-time "finished in" lines aside).
measurement-check:
	./scripts/measurement_check.sh

# Tier-1 gate: everything a change must pass before merging.
check: vet funclen build test test-race e2e-check measurement-check
