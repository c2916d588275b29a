#!/usr/bin/env bash
# Paired before/after runs of the end-to-end benchmark (BENCHMARK.json),
# the way a performance claim is judged:
#
#   scripts/bench_pairs.sh <parent-ref> <workload> <pairs> [first-seed]
#
# Exports <parent-ref> and the current tree (tracked and untracked,
# not ignored, files — uncommitted work is measured) into throw-away
# directories, builds each once through its own benchmarks/run.sh, and
# runs <pairs> pairs on seeds first-seed, first-seed+1, … (default
# 1001; use seeds the change was not developed on), alternating which
# side runs first. For every end-to-end metric it prints both medians
# and quartiles, the pairs the change won, and the verdict: a gain
# needs at least nine tenths of the pairs (ties count for neither) and
# a median shift beyond the parent's own quartile distance; a
# regression is a median worse than the parent's by more than the
# metric's bound. Under the table it lists every run's end-to-end
# values in the order the runs were made, so one outlier run — or a
# drift across the session — shows instead of hiding in a tally.
#
# Needs python3 (standard library only) for the statistics. Raw run
# output is kept under the printed directory.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,20p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=${4:-1001}
command -v python3 >/dev/null || { echo "bench_pairs: python3 not found" >&2; exit 1; }
root=$(cd "$(dirname "$0")/.." && pwd)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
echo "bench_pairs: working in $work"
mkdir "$work/parent" "$work/change" "$work/runs"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -co --exclude-standard -z | tar -c --null -T - --ignore-failed-read) | tar -x -C "$work/change"

run() { # side seed
	bash "$work/$1/benchmarks/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
		>"$work/runs/$1.$2.txt" 2>&1 || echo "bench_pairs: $1 seed $2 exited non-zero" >&2
}

for ((i = 0; i < pairs; i++)); do
	s=$((seed + i))
	if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
	for side in $order; do
		echo "bench_pairs: pair $((i + 1))/$pairs seed $s $side"
		run "$side" "$s"
	done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$workload" "$seed" "$pairs" <<'EOF'
import json, sys, statistics

spec, runs, workload, seed, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
metrics = json.load(open(spec))["end_to_end"]

def result(side, s):
    try:
        last = open(f"{runs}/{side}.{s}.txt").read().strip().splitlines()[-1]
        return json.loads(last)
    except (OSError, ValueError, IndexError):
        return None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

rows = [(result("parent", seed + i), result("change", seed + i)) for i in range(pairs)]
ok = [(p, c) for p, c in rows if p and c]
print(f"\n{workload}: {len(ok)} of {pairs} pairs complete, seeds {seed}..{seed + pairs - 1}")
for side, idx in (("parent", 0), ("change", 1)):
    att = sum(r[idx]["attempted"] for r in ok)
    bad = sum(r[idx]["failed"] for r in ok)
    wrong = sum(1 for r in ok if not r[idx]["correct"])
    print(f"  {side}: {bad} of {att} operations failed, {wrong} runs with wrong output")
if not ok:
    sys.exit(1)
print(f"\n{'metric':<24}{'parent q1/med/q3':>30}{'change q1/med/q3':>30}{'shift':>9}{'wins':>7}  verdict")
for m in metrics:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    ps = [p["metrics"][name]["value"] for p, c in ok if name in p["metrics"] and name in c["metrics"]]
    cs = [c["metrics"][name]["value"] for p, c in ok if name in p["metrics"] and name in c["metrics"]]
    if not ps:
        continue
    p1, pm, p3 = quartiles(ps)
    c1, cm, c3 = quartiles(cs)
    better = lambda a, b: a > b if higher else a < b
    wins = sum(1 for p, c in zip(ps, cs) if better(c, p))
    losses = sum(1 for p, c in zip(ps, cs) if better(p, c))
    shift = (cm - pm) / pm if pm else 0.0
    gain = better(cm, pm) and abs(cm - pm) > (p3 - p1) and wins * 10 >= 9 * len(ps)
    worse = (pm - cm if higher else cm - pm) / pm > bound if pm else False
    spread = (p3 - p1) / pm > bound if pm else False
    if gain:
        verdict = "GAIN"
    elif worse:
        verdict = "REGRESSION"
    elif spread and not all(better(c, p) for c in cs for p in ps):
        verdict = "unresolved (parent spread > bound)"
    else:
        verdict = "within bound"
    fmt = lambda a, b, c: f"{a:.4g}/{b:.4g}/{c:.4g}"
    print(f"{name:<24}{fmt(p1, pm, p3):>30}{fmt(c1, cm, c3):>30}{shift:>+9.1%}{wins:>4}-{losses:<2}  {verdict}")

names = [m["name"] for m in metrics]
print("\nruns in order:")
print(f"{'seed':>6} {'side':<7}" + "".join(f"{n:>{max(len(n), 9) + 1}}" for n in names))
for i in range(pairs):
    s = seed + i
    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
        r = result(side, s)
        vals = r["metrics"] if r else {}
        cells = [f"{vals[n]['value']:.4g}" if n in vals else "-" for n in names]
        print(f"{s:>6} {side:<7}" + "".join(f"{c:>{max(len(n), 9) + 1}}" for n, c in zip(names, cells)))
EOF
