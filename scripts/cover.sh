#!/bin/sh
# Coverage gate: one instrumented test run over the whole module, a
# per-package breakdown, and the floors in the table below — the
# module total must not drop below its recorded baseline, and the
# layers everything else leans on are held to a higher bar.
set -eu
cd "$(dirname "$0")/.."

# package (or "total")    floor, percent
FLOORS="
total              74.9
internal/obs       85.0
internal/health    85.0
internal/journal   85.0
internal/localfs   85.0
internal/daemon    85.0
internal/scrub     85.0
internal/capacity  85.0
internal/cloud     85.0
internal/deltasync 85.0
internal/chunker   90.0
"
PROFILE="${COVER_PROFILE:-/tmp/unidrive-cover.out}"
LOG="$PROFILE.log"

echo "== go test -coverprofile (all packages), output in $LOG"
if ! go test -coverprofile="$PROFILE" -coverpkg=./... ./... > "$LOG" 2>&1; then
	echo "FAIL: the instrumented test run failed:" >&2
	grep -E -e '--- FAIL|^FAIL|^panic' "$LOG" >&2 || tail -n 20 "$LOG" >&2
	exit 1
fi

echo "== per-package coverage"
go tool cover -func="$PROFILE" | awk '
	/^total:/ { next }
	{
		n = split($1, parts, "/")
		sub(/:.*/, "", parts[n])          # strip file:line
		pkg = $1
		sub("/" parts[n] ":.*", "", pkg)  # strip trailing /file.go:line
		covered[pkg] += $3 + 0            # go tool cover reports per-func %
		count[pkg]++
	}
	END {
		for (p in covered)
			printf "  %-44s %6.1f%%\n", p, covered[p] / count[p]
	}' | sort

# statement coverage of one package (or of everything, for "total")
coverage() {
	if [ "$1" = total ]; then
		cp "$PROFILE" "$PROFILE.part"
	else
		{ head -n 1 "$PROFILE"; grep "^unidrive/$1/" "$PROFILE" || true; } > "$PROFILE.part"
	fi
	go tool cover -func="$PROFILE.part" | awk '/^total:/ { sub(/%/, "", $3); print $3 }'
}

echo "$FLOORS" | {
	fail=0
	while read -r pkg floor; do
		[ -n "$pkg" ] || continue
		got=$(coverage "$pkg")
		echo "$pkg coverage: ${got}% (floor ${floor}%)"
		if awk "BEGIN { exit !($got < $floor) }"; then
			echo "FAIL: $pkg coverage ${got}% is below its ${floor}% floor" >&2
			fail=1
		fi
	done
	exit $fail
}
