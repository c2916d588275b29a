#!/usr/bin/env bash
# Non-test, non-generated Go lines per package, at a git ref and in the
# working tree, with the delta — so that "net-negative" is this
# command's output, not a claim:
#
#   scripts/loc.sh <ref> [dir ...]        (default dirs: internal cmd)
#
# Two counts per package: all lines, and code lines (neither blank nor
# a pure // comment), so that deleting comments does not read as a
# reduction. Test files (*_test.go) and generated files (the standard
# "// Code generated … DO NOT EDIT." header) are left out. The working
# tree counts tracked and untracked, not ignored, files.
set -euo pipefail

if [ $# -lt 1 ]; then
	sed -n '2,13p' "$0" >&2
	exit 2
fi
ref=$1
shift
dirs=("$@")
[ $# -gt 0 ] || dirs=(internal cmd)
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

# count <label> <root>: reads file paths relative to <root>, prints
# "label pkg lines code" for every non-test, non-generated Go file.
count() {
	grep '\.go$' | grep -v '_test\.go$' | while read -r path; do
		[ -f "$2/$path" ] || continue # tracked, but deleted in the working tree
		head -n 5 "$2/$path" | grep -q '^// Code generated .* DO NOT EDIT\.$' && continue
		awk -v pkg="$(dirname "$path")" -v label="$1" '
			{ lines++ }
			!/^[ \t]*$/ && !/^[ \t]*\/\// { code++ }
			END { print label, pkg, lines + 0, code + 0 }' "$2/$path"
	done
}

old=$(mktemp -d "${TMPDIR:-/tmp}/loc.XXXXXX")
trap 'rm -rf "$old"' EXIT
git archive "$ref" -- "${dirs[@]}" | tar -x -C "$old"

{
	(cd "$old" && find "${dirs[@]}" -type f) | count old "$old"
	git ls-files -co --exclude-standard -- "${dirs[@]}" | count new .
} | awk -v ref="$ref" '
	{ pkgs[$2] = 1; lines[$1, $2] += $3; code[$1, $2] += $4 }
	END {
		printf "%-28s %8s %8s %7s   %8s %8s %7s\n", "package", "lines@" substr(ref, 1, 8), "lines", "delta", "code@" substr(ref, 1, 8), "code", "delta"
		for (p in pkgs) {
			ol = lines["old", p] + 0; nl = lines["new", p] + 0
			oc = code["old", p] + 0; nc = code["new", p] + 0
			tol += ol; tnl += nl; toc += oc; tnc += nc
			if (ol != nl || oc != nc)
				printf "%-28s %8d %8d %+7d   %8d %8d %+7d\n", p, ol, nl, nl - ol, oc, nc, nc - oc | "sort"
		}
		close("sort")
		printf "%-28s %8d %8d %+7d   %8d %8d %+7d\n", "total (all packages)", tol, tnl, tnl - tol, toc, tnc, tnc - toc
	}'
