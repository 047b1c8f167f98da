#!/usr/bin/env bash
# A/A check: the same binary measured twice must agree with itself.
#
# Runs every workload of BENCHMARK.json as two interleaved sets (A, B) of
# RUNS runs each — run i of both sets uses seed FIRST_SEED+i, so the sets
# see the same inputs — prints per-metric medians, the spread of each set
# (interquartile range over median) and the bound, and exits non-zero if
# any end-to-end metric's B median is worse than its A median by more
# than the bound.
#
#   benchmark/aa.sh [RUNS=3] [SECONDS=run_seconds of BENCHMARK.json] [FIRST_SEED=1]
#
# Run it from the repository root.
set -euo pipefail

runs="${1:-3}"
seconds="${2:-}"
first_seed="${3:-1}"
manifest="benchmark/Cargo.toml"
[ -f BENCHMARK.json ] && [ -f "$manifest" ] || {
    echo "aa.sh: run from the repository root" >&2
    exit 2
}

cargo build --release --offline --quiet --manifest-path "$manifest"
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ibis-e2e"

exec python3 - "$bin" "$runs" "$seconds" "$first_seed" <<'EOF'
import json, statistics, subprocess, sys

binary, runs, seconds, first_seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
values = {}  # (workload, metric, set) -> [value per run]
for i in range(runs):
    for which in "AB":
        for w in spec["workloads"]:
            out = subprocess.run(
                [binary, "--workload", w["name"], "--seed", str(first_seed + i),
                 "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"aa.sh: {w['name']} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"aa.sh: {w['name']} reported {result['failed']} failed ops")
            for name, m in result["metrics"].items():
                values.setdefault((w["name"], name, which), []).append(m["value"])

def spread(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)

bad = 0
print(f"{'workload':26} {'metric':26} {'median A':>12} {'median B':>12} "
      f"{'B vs A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        a, b = (values[(w["name"], m["name"], s)] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        flag = ""
        if worse > m["bound"]:
            bad += 1
            flag = "  <-- beyond the bound"
        print(f"{w['name']:26} {m['name']:26} {ma:12.5g} {mb:12.5g} {worse:+8.1%} "
              f"{spread(a):9.1%} {spread(b):9.1%} {m['bound']:6.0%}{flag}")
if bad:
    sys.exit(f"aa.sh: {bad} metric(s) differ between identical sets by more than their bound")
print("aa.sh: every end-to-end metric agrees between the two sets within its bound")
EOF
