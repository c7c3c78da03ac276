#!/usr/bin/env bash
# Repeat the benchmark and summarize it: for every workload and metric,
# the median and quartiles over N runs (seeds 0x7ab1e, 0x7ab1f, ...) and
# the spread (Q3 - Q1) / median, flagged when it exceeds the metric's
# bound in BENCHMARK.json. setup_s's spread is shown but not flagged:
# its bound applies only to the difference between two medians. Exits 1
# when any spread is flagged.
#
#   bash bench/suite/run.sh [--repeat N] [--trace] [--smoke]
#
# Every run measures BENCHMARK.json's run_seconds, and every workload
# it names is run. --trace reports the per-layer metrics (traced runs)
# instead of the end-to-end ones. --smoke runs the harness's smoke mode
# once. Result lines are kept in $CARGO_TARGET_DIR/run-results.jsonl
# (default .bench_build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../../BENCHMARK.json"
repeat=5 trace=0
while [ $# -gt 0 ]; do
    case "$1" in
    --repeat) repeat="$2"; shift ;;
    --trace) trace=1 ;;
    --smoke) exec bash "$here/bench.sh" --smoke ;;
    *)
        echo "usage: $0 [--repeat N] [--trace] [--smoke]" >&2
        exit 2
        ;;
    esac
    shift
done

read -r seconds workloads < <(python3 - "$spec" <<'PY'
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
PY
)

results="${CARGO_TARGET_DIR:-.bench_build}/run-results.jsonl"
mkdir -p "$(dirname "$results")"
: >"$results"
for w in $workloads; do
    for ((i = 0; i < repeat; i++)); do
        seed=$((0x7ab1e + i))
        line="$(bash "$here/bench.sh" --workload "$w" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | tail -n 1)"
        echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $line}" \
            >>"$results"
        echo "$w seed $seed: $line" >&2
    done
done

python3 - "$spec" "$results" "$trace" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
metrics = spec["per_layer" if sys.argv[3] == "1" else "end_to_end"]
flagged = 0
for w in dict.fromkeys(r["workload"] for r in runs):
    mine = [r["result"] for r in runs if r["workload"] == w]
    failed = sum(r["failed"] for r in mine)
    attempted = sum(r["attempted"] for r in mine)
    wrong = sum(not r["correct"] for r in mine)
    print(f"\n{w}: {len(mine)} runs, {failed}/{attempted} failed, "
          f"{wrong} with wrong answers")
    print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for m in metrics:
        vals = [r["metrics"][m["name"]]["value"] for r in mine
                if m["name"] in r["metrics"]]
        if not vals:
            print(f"  {m['name']:34s} missing")
            flagged += 1
            continue
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        flag = bound is not None and m["name"] != "setup_s" and spread > bound
        flagged += flag
        print(f"  {m['name']:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {'' if bound is None else bound:>6} "
              f"{m['unit']}{'  <-- spread above bound' if flag else ''}")
sys.exit(1 if flagged else 0)
PY
