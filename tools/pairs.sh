#!/usr/bin/env bash
# A/B pairs of the repo benchmark: a parent tree against a change tree.
#
#   tools/pairs.sh PARENT CHANGE WORKLOAD N SEED [COUNT...]
#
# PARENT and CHANGE are checkouts whose benchmark is built
# (`cargo build --release --offline --manifest-path benchmark/Cargo.toml`
# in each). The tool runs N pairs of `--workload WORKLOAD --seed SEED
# --seconds 5 --trace 0`, one run of each side a pair, and alternates
# which side runs first: the parent in odd pairs, the change in even
# ones. The second run of a pair tends to read slower host times, so a
# fixed order would lend that drift to one side.
#
# It prints every run's host metrics, then per metric the median and
# quartiles of each side, "change lower in k/N", and the median and
# quartiles of the per-pair ratio change/parent: run with PARENT and
# CHANGE the same tree, that ratio's spread is the noise floor a claim
# on the metric must clear, and the tool prints it as one "A/A floor"
# line per metric: the wider of 1 - q1 and q3 - 1. Then one verdict
# line per metric: "lower" (or "higher") when the change reads lower
# (higher) in at least nine tenths of the pairs, ties counting for
# neither side, and its median differs from the parent's by more than
# the parent's inter-quartile distance; else "unresolved". It exits non-zero
# if a `sim_*` metric, `attempted`, `failed` or an exact count differs
# between any two runs, except the COUNTs named on the command line
# (e.g. `simnet.events` for a change that runs fewer events), whose
# values it prints. Each run's summary is kept under
# target/pairs/WORKLOAD-seedSEED/ of the tree the tool is run from.
set -euo pipefail
if [ $# -lt 5 ]; then
    sed -n '/^set -/q; 2,$p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3 pairs=$4 seed=$5
shift 5
bin=benchmark/target/release/rocksteady-benchmark
for tree in "$parent" "$change"; do
    [ -x "$tree/$bin" ] || {
        echo "pairs: $tree/$bin is not built" >&2
        exit 2
    }
done
out="$(cd "$(dirname "$0")/.." && pwd)/target/pairs/$workload-seed$seed"
rm -rf "$out"
mkdir -p "$out"

# run SIDE TREE PAIR: one benchmark run, its summary kept as SIDE-PAIR.json.
run() {
    (cd "$2" && "./$bin" --workload "$workload" --seed "$seed" --seconds 5 --trace 0 \
        >"$out/$1-$3.log" 2>&1) || {
        echo "pairs: $1 run $3 failed; see $out/$1-$3.log" >&2
        exit 1
    }
    cp "$2/benchmark/out/$workload.summary.json" "$out/$1-$3.json"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

same=0
[ "$parent" = "$change" ] && same=1
python3 - "$out" "$pairs" "$same" "$@" <<'EOF'
import json, statistics, sys

out, pairs, same, allowed = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", set(sys.argv[4:])
runs = {side: [json.load(open(f"{out}/{side}-{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}

def exact(summary):
    """Everything that must repeat bit for bit: simulated metrics,
    attempted, failed and the exact counts."""
    result = summary["result"]
    fields = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
    fields.update(attempted=result["attempted"], failed=result["failed"])
    fields.update(summary["counts"])
    return fields

bad = []
for side, side_runs in runs.items():
    for i, run in enumerate(side_runs[1:], 2):
        for k, v in exact(run).items():
            if exact(side_runs[0]).get(k) != v:
                bad.append(f"{side} run {i} {k}: {exact(side_runs[0]).get(k)} -> {v}")
p, c = exact(runs["parent"][0]), exact(runs["change"][0])
for k in sorted(p.keys() | c.keys()):
    if p.get(k) != c.get(k):
        line = f"{k}: parent {p.get(k)} change {c.get(k)}"
        if k in allowed:
            print(f"differs as allowed  {line}")
        else:
            bad.append(line)

host = [k for k in runs["parent"][0]["result"]["metrics"] if not k.startswith("sim_")]
print(f"{'pair':>4} {'first':>6}  " + "  ".join(f"{k + ' p':>13} {k + ' c':>13}" for k in host))
for i in range(pairs):
    vals = "  ".join(
        f"{runs['parent'][i]['result']['metrics'][k]['value']:13.4f} "
        f"{runs['change'][i]['result']['metrics'][k]['value']:13.4f}" for k in host)
    print(f"{i + 1:>4} {'parent' if i % 2 == 0 else 'change':>6}  {vals}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"{'metric':<12} {'parent median [q1-q3]':>34} {'change median [q1-q3]':>34} {'change':>8}  lower"
      f"  {'pair ratio c/p median [q1-q3]':>32}")
floors, verdicts = [], []
for k in host:
    p = [r["result"]["metrics"][k]["value"] for r in runs["parent"]]
    c = [r["result"]["metrics"][k]["value"] for r in runs["change"]]
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    rq1, rm, rq3 = quartiles([ci / pi for pi, ci in zip(p, c)])
    lower = sum(ci < pi for pi, ci in zip(p, c))
    higher = sum(ci > pi for pi, ci in zip(p, c))
    side = lambda m, q1, q3: f"{m:.4f} [{q1:.4f}-{q3:.4f}]"
    print(f"{k:<12} {side(pm, pq1, pq3):>34} {side(cm, cq1, cq3):>34} "
          f"{100 * (cm - pm) / pm:+7.2f}%  {lower}/{pairs}  {side(rm, rq1, rq3):>32}")
    if same:
        floors.append(f"A/A floor {k:<12} {100 * max(1 - rq1, rq3 - 1):.2f}%")
    # A side wins a metric in >= 9/10 of the pairs and by more than the
    # spread of the parent's own runs.
    spread, verdict = pq3 - pq1, "unresolved"
    if 10 * lower >= 9 * pairs and pm - cm > spread:
        verdict = "lower"
    elif 10 * higher >= 9 * pairs and cm - pm > spread:
        verdict = "higher"
    verdicts.append(f"verdict {k:<12} {verdict:<10} (lower {lower}/{pairs}, higher "
                    f"{higher}/{pairs}, medians differ {abs(cm - pm):.4f}, parent IQR {spread:.4f})")
print(*floors, sep="\n")
print(*verdicts, sep="\n")

if bad:
    print("pairs: exact results differ:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
EOF
