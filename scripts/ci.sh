#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), and the full
# workspace test suite — in both observability configurations
# (instrumented and no-op).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> test hygiene: no ignored tests"
# The seed suite has zero #[ignore]d tests; keep it that way. An ignored
# test silently stops gating and rots — delete it or fix it instead.
if grep -rn '#\[ignore' --include='*.rs' crates/ src/ tests/ vendor/; then
    echo "error: found #[ignore]d tests (listed above); un-ignore or delete them" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (ibis-insitu non-test code: no unwrap/expect)"
# Lints only the plain lib target: #[cfg(test)] modules are not compiled,
# so the crate-level deny(clippy::unwrap_used, clippy::expect_used) in
# crates/insitu/src/lib.rs gates exactly the non-test code.
cargo clippy -p ibis-insitu --lib -- -D warnings

# The observability differential harness accumulates per-config digests
# under target/obs_differential; start from a clean slate so the digests
# compared below both come from this CI run.
rm -rf target/obs_differential

echo "==> cargo test (workspace, instrumented: obs on by default)"
cargo test -q --workspace

echo "==> cargo test (observability layer with obs feature off: no-op build)"
cargo test -q -p ibis-obs --no-default-features

echo "==> obs differential: no-op build must match the instrumented run byte-for-byte"
cargo test -q -p ibis --no-default-features --test obs_differential
test -f target/obs_differential/instrumented.digest
test -f target/obs_differential/noop.digest
cmp target/obs_differential/instrumented.digest target/obs_differential/noop.digest

echo "==> cargo test (fault-injection + every-step crash/resume suites, ibis-insitu unit tests incl. the CRC32-C kernel differential; both obs configs)"
for obs in "" "--no-default-features"; do
    # shellcheck disable=SC2086
    cargo test -q -p ibis-insitu $obs --lib --test fault_injection --test crash_resume
done

echo "==> generation bench smoke (both obs configs) + report schema"
# IBIS_GEN_SMOKE=1 shrinks the sweep and writes to target/ so CI never
# clobbers the committed full-size BENCH_generation.json.
check_generation_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"batched_over_scalar_speedup"' \
        '"parallel_over_scalar_speedup"' '"min_coherent_batched_speedup"' \
        '"uniform_random_within_5pct_target"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_generation.smoke.json
IBIS_GEN_SMOKE=1 cargo bench -q -p ibis-bench --bench generation
check_generation_report target/BENCH_generation.smoke.json
# Same smoke in the no-op observability twin: the fast path must produce
# (and schema-check) identically with the generation counters const-folded.
rm -f target/BENCH_generation.smoke.json
IBIS_GEN_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench generation
check_generation_report target/BENCH_generation.smoke.json
echo "==> committed BENCH_generation.json present with full-size sweep"
check_generation_report BENCH_generation.json

echo "==> query + sharded store suites in the no-op observability build"
# The workspace run above covers the instrumented config; re-run the query
# proptests, adversarial corpus, multi-threaded cache stress, and the
# reference-model identity across shard counts/bins/row orders/lossy
# (plus shard-local fsck/repair and killed-writer resume) with the obs
# counters const-folded away — neither config may panic or diverge.
cargo test -q -p ibis-analysis --no-default-features --test prop_query
cargo test -q -p ibis-insitu --no-default-features --test query_engine --test shard

echo "==> serving suite in the no-op observability build"
# Socket protocol adversaries, fault determinism, coalescing accounting,
# and queue-bound stress — the instrumented run is covered by the
# workspace tests above.
cargo test -q -p ibis-insitu --no-default-features --test serving

echo "==> query bench smoke (both obs configs) + report schema"
check_query_report() {
    local report="$1"
    test -f "$report"
    for key in '"warm_over_cold_speedup"' '"warm_over_5x_target"' \
        '"prepared_over_naive_speedup"' '"prepared_beats_naive"' \
        '"planner_identity_ranges_checked"' \
        '"planner_strategies_all_byte_identical"' \
        '"planner_all_strategies_exercised"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_query.smoke.json
IBIS_QUERY_SMOKE=1 cargo bench -q -p ibis-bench --bench query
check_query_report target/BENCH_query.smoke.json
rm -f target/BENCH_query.smoke.json
IBIS_QUERY_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench query
check_query_report target/BENCH_query.smoke.json
echo "==> committed BENCH_query.json present with full-size sweep"
check_query_report BENCH_query.json

echo "==> codec shootout smoke (both obs configs) + report schema"
# IBIS_CODEC_SMOKE=1 shrinks the sweep and writes to target/ so CI never
# clobbers the committed full-size BENCH_codecs.json. The sweep itself
# asserts every codec × kernel result identical to the verbatim oracle
# before timing it, so a pass is also a cross-codec correctness gate.
check_codec_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"bytes_per_bitmap"' '"auto_selected"' \
        '"roaring_over_wah_speedup"' \
        '"bbc_header_merge_over_bytewise_speedup"' \
        '"auto_over_best_ratio"' '"auto_within_10pct_of_best"' \
        '"identity_checked"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_codecs.smoke.json
IBIS_CODEC_SMOKE=1 cargo bench -q -p ibis-bench --bench codecs
check_codec_report target/BENCH_codecs.smoke.json
rm -f target/BENCH_codecs.smoke.json
IBIS_CODEC_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench codecs
check_codec_report target/BENCH_codecs.smoke.json
echo "==> committed BENCH_codecs.json present with full-size sweep"
check_codec_report BENCH_codecs.json

echo "==> lossy superset sweep smoke (both obs configs) + report schema"
# IBIS_LOSSY_SMOKE=1 shrinks the grids and writes to target/ so CI never
# clobbers the committed full-size BENCH_lossy.json. The sweep asserts
# the superset identity (exact & lossy == exact), the FPR bound, and the
# refine byte-identity before every timed point, so a pass is also a
# lossy-correctness gate.
check_lossy_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"identity_checked"' '"size_reduction"' \
        '"measured_fpr"' '"fpr_bound_met"' '"bits_dropped"' \
        '"size_reduction_ge_1p5x_at_fpr_le_1e-2"' '"all_fpr_bounds_met"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
    grep -q '"all_fpr_bounds_met": true' "$report" || {
        echo "error: $report has a sample above its requested FPR bound" >&2
        exit 1
    }
}
rm -f target/BENCH_lossy.smoke.json
IBIS_LOSSY_SMOKE=1 cargo bench -q -p ibis-bench --bench lossy
check_lossy_report target/BENCH_lossy.smoke.json
rm -f target/BENCH_lossy.smoke.json
IBIS_LOSSY_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench lossy
check_lossy_report target/BENCH_lossy.smoke.json
echo "==> committed BENCH_lossy.json present with full-size sweep"
check_lossy_report BENCH_lossy.json
# The headline size target only binds on the committed full-size sweep:
# the smoke grids are too small for the surface/volume ratio it rides on.
grep -q '"size_reduction_ge_1p5x_at_fpr_le_1e-2": true' BENCH_lossy.json || {
    echo "error: committed BENCH_lossy.json does not meet the size target" >&2
    exit 1
}

echo "==> row-order sweep smoke (both obs configs) + report schema"
# IBIS_ORDER_SMOKE=1 shrinks the grids and writes to target/ so CI never
# clobbers the committed full-size BENCH_reorder.json. The sweep asserts
# every reordered bin byte-identical to the identity-order oracle (mapped
# through the inverse permutation) before timing, so a pass is also a
# reorder correctness gate.
check_reorder_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"elements"' '"vs_identity"' '"criterion"' \
        '"identity_checked"' '"size_ratio"' '"latency_ratio"' \
        '"size_win_15pct_within_latency_10pct"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_reorder.smoke.json
IBIS_ORDER_SMOKE=1 cargo bench -q -p ibis-bench --bench reorder
check_reorder_report target/BENCH_reorder.smoke.json
rm -f target/BENCH_reorder.smoke.json
IBIS_ORDER_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench reorder
check_reorder_report target/BENCH_reorder.smoke.json
echo "==> committed BENCH_reorder.json present with full-size sweep"
check_reorder_report BENCH_reorder.json

echo "==> serving bench smoke (both obs configs) + report schema"
# IBIS_SERVE_SMOKE=1 shrinks the load phases and writes to target/ so CI
# never clobbers the committed full-size BENCH_serving.json. The bench
# itself asserts the SLO (faulted p99 within 5x fault-free, typed sheds,
# queue bound respected, exact coalesce accounting), so a pass is also
# an overload-control correctness gate.
check_serving_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"fault_free_p99_ms"' '"saturation_qps"' \
        '"faulted_p99_ms"' '"faulted_p99_within_5x"' '"shed"' \
        '"coalesce_hits"' '"coalesce_decodes"' '"queue_peak"' \
        '"queue_bound_respected"' '"socket_rtt_p50_ms"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_serving.smoke.json
IBIS_SERVE_SMOKE=1 cargo bench -q -p ibis-bench --bench serving
check_serving_report target/BENCH_serving.smoke.json
rm -f target/BENCH_serving.smoke.json
IBIS_SERVE_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench serving
check_serving_report target/BENCH_serving.smoke.json
echo "==> committed BENCH_serving.json present with full-size sweep"
check_serving_report BENCH_serving.json

echo "==> shard bench smoke (both obs configs) + report schema"
# IBIS_SHARD_SMOKE=1 shrinks the sweep and writes to target/ so CI never
# clobbers the committed full-size BENCH_shard.json. The bench asserts
# every sharded answer identical to the flat oracle before timing, plus
# the over-budget eviction/latency and node-kill resume properties, so a
# pass is also a scatter-gather correctness gate.
check_shard_report() {
    local report="$1"
    test -f "$report"
    for key in '"samples"' '"shards"' '"throughput_qps"' \
        '"speedup_4x_over_1"' '"scaling_target_met"' \
        '"identity_checked"' '"ocean_over_budget"' '"ocean_p99_ms"' \
        '"ocean_p99_interactive"' '"cache_evictions"' \
        '"nodekill_resumed"'; do
        grep -q "$key" "$report" || {
            echo "error: $report missing $key" >&2
            exit 1
        }
    done
}
rm -f target/BENCH_shard.smoke.json
IBIS_SHARD_SMOKE=1 cargo bench -q -p ibis-bench --bench shard
check_shard_report target/BENCH_shard.smoke.json
rm -f target/BENCH_shard.smoke.json
IBIS_SHARD_SMOKE=1 cargo bench -q -p ibis-bench --no-default-features \
    --bench shard
check_shard_report target/BENCH_shard.smoke.json
echo "==> committed BENCH_shard.json present with full-size sweep"
check_shard_report BENCH_shard.json
grep -q '"scaling_target_met": true' BENCH_shard.json || {
    echo "error: committed BENCH_shard.json does not meet the scaling target" >&2
    exit 1
}

echo "==> ibis serve + loadgen end-to-end smoke (1 and 4 shards, both obs configs)"
# Build a tiny store, then drive a live server with the zipf load
# generator for a few hundred requests. Every leg ingests under
# --row-order graybin with --lossy-fpr companions, so the served store
# carries inverse permutations the engine must apply and filters it must
# refine, at either shard count, with background maintenance running.
serve_smoke() {
    local shards="$1"
    shift
    local features=("$@")
    local store="target/ci_serve_store_k$shards"
    rm -rf "$store"
    cargo run -q --release "${features[@]}" --bin ibis -- insitu \
        --sim heat3d --steps 2 --select 2 --cores 2 --row-order graybin \
        --lossy-fpr 1e-2 --shards "$shards" --out "$store" >/dev/null
    # one shard is the flat layout; more live under a SHARDS file
    if [ "$shards" -gt 1 ]; then test -f "$store/SHARDS"; else test -f "$store/MANIFEST"; fi
    local port=$((20000 + RANDOM % 20000))
    # --conns 2: the readiness probe below counts as one completed
    # connection, the load generator's single client is the second; the
    # server exits cleanly once both have disconnected.
    cargo run -q --release "${features[@]}" --bin ibis -- serve \
        --store "$store" --shards "$shards" --lossy-fpr 1e-2 \
        --addr "127.0.0.1:$port" --workers 2 --queue 16 --maintain-ms 200 \
        --conns 2 &
    local serve_pid=$!
    # Wait for the listener to come up before pointing the clients at it.
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    cargo run -q --release "${features[@]}" --bin ibis -- loadgen \
        --addr "127.0.0.1:$port" --store "$store" --requests 300 \
        --clients 1 --deadline-ms 2000 --seed 7
    wait "$serve_pid"
}
for shards in 1 4; do
    serve_smoke "$shards"
    serve_smoke "$shards" --no-default-features
done

echo "CI OK"
