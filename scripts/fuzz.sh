#!/usr/bin/env bash
# Runs every Go fuzz target in the module, one at a time, each for the
# same fixed time:
#
#   scripts/fuzz.sh [fuzztime]        (default 10s; any -fuzztime value)
#
# `go test -fuzz` takes one target of one package per run, so the
# targets are found by their `func FuzzXxx(f *testing.F)` declarations.
# A failing input is written under the package's testdata/fuzz/ by the
# go tool; check it in as a seed once the bug is fixed.
set -euo pipefail

fuzztime=${1:-10s}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

grep -rl --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*(f \*testing.F)' internal cmd examples |
	sort | while read -r file; do
	pkg=./$(dirname "$file")
	for target in $(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(f \*testing.F).*/\1/p' "$file"); do
		echo "== $pkg $target ($fuzztime)"
		go test -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" "$pkg"
	done
done
