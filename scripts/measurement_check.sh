#!/usr/bin/env bash
# The §3.2 measurement study (Figs 1-4, Table 1) runs on a stepping
# clock, so its output is a pure function of the seed: seed 1 at paper
# size must equal unibench_measurement.txt, the wall-time
# "-- … finished in … --" lines aside. Regenerate the file with
#
#   go run ./cmd/unibench -run fig1,fig2,fig3,fig4,tab1 -seed 1 > unibench_measurement.txt
set -euo pipefail
cd "$(dirname "$0")/.."
strip() { grep -v '^-- .* finished in .* --$'; }
go run ./cmd/unibench -run fig1,fig2,fig3,fig4,tab1 -seed 1 | strip | diff -u - <(strip < unibench_measurement.txt) || {
	echo "FAIL: unibench_measurement.txt is stale (see scripts/measurement_check.sh)" >&2
	exit 1
}
