#!/usr/bin/env bash
# Repeatability evidence: `bash benchmark/repeat.sh N [R]` runs N sets back
# to back, each set R runs (default 2) of every workload with a seed of its
# own, and prints per workload x end-to-end metric: the set medians and
# their largest relative gap, the spread of all runs (distance between the
# first and third quartile as a share of the median) and how much worse the
# median of the later half of the runs is than that of the earlier half —
# the two things the driver tests, over ten runs and two sets of ten — and
# the bound from BENCHMARK.json. Exits non-zero when a spread (setup_s
# excepted, as in the driver) or a worsening exceeds its bound, or a run was
# not correct. Raw result lines are kept in benchmark/out/repeat.jsonl;
# `repeat.sh 0` only summarises the file that is there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
sets="${1:?usage: repeat.sh N [R]}"
runs="${2:-2}"
seconds="$(python3 -c "import json; print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")"
mkdir -p "$here/out"
out="$here/out/repeat.jsonl"
if ((sets > 0)); then : >"$out"; fi

for ((set = 1; set <= sets; set++)); do
    for ((run = 1; run <= runs; run++)); do
        for workload in stream_352 tile_1408 serve_352 serve_64; do
            seed=$((100 * set + run))
            line="$(bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
            echo "{\"set\": $set, \"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >>"$out"
            echo "set $set run $run $workload seed $seed: ${line:0:100}..." >&2
        done
    done
done

python3 - "$out" "$here/../BENCHMARK.json" <<'PY'
import json, statistics, sys

rows = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
failed = False
print("| workload | metric | set medians | largest gap | spread of all runs | later half worse by | bound |")
print("|---|---|---|---|---|---|---|")
for w in [w["name"] for w in spec["workloads"]]:
    mine = [r for r in rows if r["workload"] == w]
    bad = [r["seed"] for r in mine if not r["result"]["correct"]]
    if bad:
        print(f"{w}: runs with seeds {bad} were not correct")
        failed = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [r["result"]["metrics"][name]["value"] for r in mine]
        by_set = {}
        for r, v in zip(mine, values):
            by_set.setdefault(r["set"], []).append(v)
        medians = [statistics.median(v) for _, v in sorted(by_set.items())]
        gap = (max(medians) - min(medians)) / min(medians)
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / statistics.median(values)
        half = len(values) // 2
        first, second = statistics.median(values[:half]), statistics.median(values[half:])
        worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
        over = (name != "setup_s" and spread > bound) or worse > bound
        failed |= over
        cells = " ".join(f"{v:.4g}" for v in medians)
        print(
            f"| {w} | {name} ({m['unit']}) | {cells} | {gap:.3f} | {spread:.3f} | "
            f"{worse:+.3f} | {bound}{' **over**' if over else ''} |"
        )
sys.exit(int(failed))
PY
