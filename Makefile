GO ?= go

# The packages the race detector runs over in `make test-race` and
# `make check`; the list lives in scripts/race_pkgs.txt, which
# scripts/check.sh reads too.
RACE_PKGS = $(shell grep -v '^\#' scripts/race_pkgs.txt)

# The packages the function-length gate holds to 100 lines; the list
# lives in scripts/funclen_pkgs.txt, which scripts/check.sh reads too.
FUNCLEN_PKGS = $(shell grep -v '^\#' scripts/funclen_pkgs.txt)

.PHONY: build vet fmt funclen knobs test test-race overlap portable e2e-check measurement-check bench-erasure bench-sync bench-trial bench chaos scrub fuzz underload check cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every Go file outside the benchmark module is gofmt-clean.
fmt:
	@out=$$(gofmt -l internal cmd examples); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# No function over 100 lines in the packages of scripts/funclen_pkgs.txt.
funclen:
	./scripts/funclen.sh 100 $(FUNCLEN_PKGS)

# No internal Config field that only tests set, and no exported
# function or method under internal/ that only tests call, beyond the
# reasoned exceptions of scripts/knobs_allow.txt.
knobs:
	./scripts/knobs.sh

test:
	$(GO) test ./...

test-race:
	$(GO) test -race $(RACE_PKGS)

# A lock hold runs on past its pass, beside the device's next
# operation: the overlap tests of qlock (a release or a withdraw beside
# another hold) and core (a re-add, a crash, an off-cursor catch-up, a
# withdraw and a bulk pass's upload beside the last hold, and every
# operation that waits for it), repeated under the race detector; a few
# seconds in all. The list lives in scripts/overlap_tests.txt, which
# scripts/check.sh reads too.
OVERLAP_TESTS = $(shell grep -v '^\#' scripts/overlap_tests.txt | paste -sd'|' -)
overlap:
	$(GO) test -race -count=20 -run '^($(OVERLAP_TESTS))$$' ./internal/qlock ./internal/core

# The data-plane throughput numbers (kernels, pooled encode/decode,
# size sweep, segment hashing). BENCH_erasure.json snapshots a run of
# these.
bench-erasure:
	$(GO) test -run '^$$' -bench 'BenchmarkErasure|BenchmarkGF|BenchmarkSegmentID' -benchmem ./internal/erasure/ ./internal/gf256/ ./internal/chunker/

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
# crash-recovery, quota-exhaustion, data-corruption, trim,
# owed-placement and metadata-poll (hung, stale and torn clouds) tests
# under the race detector with a generous timeout.
chaos:
	$(GO) test -race -timeout 15m -run 'Chaos|Outage|Failover|Hedge|Flaky|Breaker|Guard|Degraded|Crash|Recover|Corrupt|Scrub|Quota|Trim|Placement|Poll|Stale|Torn|Quorum' \
		./internal/core/... ./internal/transfer/... ./internal/health/... \
		./internal/qlock/... ./internal/cloudsim/... ./internal/scrub/... \
		./internal/capacity/... ./internal/deltasync/...

# Integrity smoke: the anti-entropy scrubber's own suite, the
# end-to-end corruption/repair paths in core and every other
# maintenance writer (rebalance, trim, owed placements), race-checked.
scrub:
	$(GO) test -race -timeout 10m -run 'Scrub|Corrupt|Integrity|SetClouds|Rebalance|Trim|Placement' \
		./internal/scrub/... ./internal/core/...

# Every fuzz target (`func Fuzz*`) for FUZZTIME each, one after the
# other; not part of `make check`. Their seed corpora under
# testdata/fuzz/ run with every `go test`.
FUZZTIME ?= 10s
fuzz:
	./scripts/fuzz.sh $(FUZZTIME)

# The two tests that host load used to fail, each run over and over
# beside three busy processes (scripts/underload.sh): the paper's
# Fig 11 ordering in baseline and the Fig 8 row of the smoke test. On
# the world clock host load cannot move simulated time, so both must
# pass every run. Some minutes of wall time; not part of `make check`.
underload:
	./scripts/underload.sh ./internal/baseline '^TestIntuitiveSlowestCloudDominates$$' 100 3
	./scripts/underload.sh ./internal/experiments '^TestExperimentsSmoke$$/^fig8$$' 50 3

# Coverage gate: the floors (module total and the per-package bars)
# are the table at the top of scripts/cover.sh.
cover:
	./scripts/cover.sh

# The portable fallback of gf256's assembly kernels (its word
# kernels): tested on this machine with the purego tag, and vetted for
# a platform with no assembly at all.
portable:
	$(GO) test -tags purego ./internal/gf256
	GOARCH=arm64 $(GO) vet ./internal/gf256

# The end-to-end benchmark harness (BENCHMARK.json) is its own module,
# so ./... neither builds nor tests it and a core API change could
# break the benchmark unnoticed.
e2e-check:
	cd benchmarks/e2e && $(GO) vet . && $(GO) test .

# unibench_measurement.txt is the one shipped output that can be exact:
# the §3.2 study issues one transfer at a time on the world clock, so
# seed 1 at paper size must print the file again (the wall-time
# "finished in" lines aside).
measurement-check:
	./scripts/measurement_check.sh

# Tier-1 gate: everything a change must pass before merging. Its steps
# are listed once, in scripts/check.sh: vet, fmt, funclen, knobs,
# build, test, race, overlap, portable, e2e, measurement. The targets
# above run one step each.
check:
	./scripts/check.sh
