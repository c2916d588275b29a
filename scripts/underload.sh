#!/usr/bin/env bash
# Runs the tests of one package that match a -run pattern <runs> times,
# each in a test process of its own, beside <loops> busy `yes`
# processes that load the host, and prints how many passed and how many
# runs failed. A test whose outcome depends on host load fails here. The
# busy processes are killed when the script exits, whatever the
# outcome.
#
#   scripts/underload.sh <pkg> <test-regex> <runs> <loops>
#   scripts/underload.sh ./internal/baseline '^TestIntuitiveSlowestCloudDominates$' 100 3
#
# The pass and fail counts are of the tests at the depth the pattern
# names: '^TestA$/^sub$' counts TestA/sub's results, not TestA's.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 <pkg> <test-regex> <runs> <loops>" >&2
	exit 2
fi
pkg=$1 pattern=$2 runs=$3 loops=$4
cd "$(dirname "$0")/.."

pids=()
stop() {
	if [ ${#pids[@]} -gt 0 ]; then
		kill "${pids[@]}" 2>/dev/null || true
		wait "${pids[@]}" 2>/dev/null || true
	fi
}
trap stop EXIT
trap 'exit 130' INT TERM

# Build the test binary first, so the load does not slow the compiler.
# Every run is a process of its own: a package may keep results across
# -count repetitions (the experiments' tests share one run per table).
dir=$(mktemp -d)
trap 'rm -rf "$dir"; stop' EXIT
go test -c -o "$dir/pkg.test" "$pkg"
for ((i = 0; i < loops; i++)); do
	yes >/dev/null &
	pids+=($!)
done

depth=$(awk -F/ '{print NF - 1}' <<<"$pattern")
indent=$(printf '%*s' $((4 * depth)) '')
pass=0 fail=0
pkgdir=$(go list -f '{{.Dir}}' "$pkg")
for ((i = 0; i < runs; i++)); do
	(cd "$pkgdir" && "$dir/pkg.test" -test.v -test.count=1 -test.timeout=10m -test.run "$pattern") >"$dir/out" 2>&1 || true
	pass=$((pass + $(grep -c "^${indent}--- PASS: " "$dir/out" || true)))
	if grep -q "^${indent}--- FAIL: \|^panic: \|^FAIL$" "$dir/out"; then
		fail=$((fail + 1))
		grep -A3 "^${indent}--- FAIL: \|^panic: " "$dir/out" | head -20 || true
	fi
done
echo "underload: $pkg $pattern beside $loops busy loops: $pass passed, $fail failed of $runs runs"
if [ "$fail" -ne 0 ] || [ "$pass" -eq 0 ]; then
	exit 1
fi
