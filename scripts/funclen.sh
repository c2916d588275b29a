#!/usr/bin/env bash
# Function-length gate: prints every function in the non-test Go files of
# the given directories that is longer than <max> lines (from its `func`
# line to its closing brace, gofmt layout assumed) and exits 1 if there
# is one:
#
#   scripts/funclen.sh <max> <dir> ...
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,6p' "$0" >&2
	exit 2
fi
max=$1
shift
cd "$(dirname "$0")/.."

find "$@" -name '*.go' ! -name '*_test.go' | sort | xargs awk -v max="$max" '
	/^func / { start = FNR; name = $0; sub(/ *\{$/, "", name) }
	/^}/ && start {
		if (FNR - start + 1 > max) {
			printf "%s:%d: %d lines: %s\n", FILENAME, start, FNR - start + 1, name
			bad = 1
		}
		start = 0
	}
	END { exit bad }' || exit 1
