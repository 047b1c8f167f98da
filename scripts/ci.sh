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

echo "==> cargo doc (workspace, broken intra-doc links are errors)"
# A deletion must not leave a [`link`] to what it deleted.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --offline

# The observability differential harness accumulates per-config digests
# under target/obs_differential; start from a clean slate so the digests
# compared below both come from this CI run.
rm -rf target/obs_differential

echo "==> cargo test (workspace, instrumented: obs on by default)"
cargo test -q --workspace

echo "==> cargo test (rayon shim: install/width semantics the pool-width regressions rest on)"
# vendor/ is outside the workspace; the shim is tested as the dependency it is.
cargo test -q -p rayon

echo "==> proptest shim, then the generation, codec, kernel and row-order properties under two more seeds"
# Every property draws from its name-derived seed, so the workspace run
# above sees the same cases each time. PROPTEST_SEED mixes a seed in; these
# two fixed ones add cases where run boundaries, chunk seams and the fill
# counter move, and where the row-order sort places its runs of equal bins.
# A failure prints the seed that replays it.
cargo test -q -p proptest
for seed in 1 2; do
    PROPTEST_SEED=$seed cargo test -q -p ibis-core --test prop_generation --test prop_codecs \
        --test prop_kernels --test prop_roworder
done

echo "==> test kit: both obs configurations, and it never switches obs on"
# The reference model and TempDir (crates/testkit) depend on ibis-core and
# ibis-analysis without default features. A dev-dependency that turned
# `obs` on would make every `--no-default-features` suite below an
# instrumented one, so each crate that dev-depends on the kit is checked.
cargo test -q -p ibis-testkit --features ibis-analysis/obs
cargo test -q -p ibis-testkit --no-default-features
for manifest in $(grep -l '^ibis-testkit.workspace' Cargo.toml crates/*/Cargo.toml); do
    crate=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    if cargo tree --offline --locked -p "$crate" --no-default-features -e features,normal,dev \
        -i ibis-obs | grep -q 'ibis-obs feature "obs"'; then
        echo "error: $crate --no-default-features builds ibis-obs with obs on" >&2
        exit 1
    fi
done

echo "==> cargo test (observability layer with obs feature off: no-op build)"
cargo test -q -p ibis-obs --no-default-features

echo "==> obs differential: no-op build must match the instrumented run byte-for-byte"
cargo test -q -p ibis --no-default-features --test obs_differential
cmp target/obs_differential/instrumented.digest target/obs_differential/noop.digest

echo "==> no-op observability build: query and mining/CE/EMD properties, bitmap-vs-full-data exactness, ibis-insitu unit tests (frame corruption table, CRC32-C kernel differential), fault-injection, every-step and every-blob-write crash/resume, query, lazy-materialisation, shard and serving suites"
# The workspace run above covers the instrumented config; neither config
# may panic or diverge with the obs counters const-folded away.
cargo test -q -p ibis-analysis --no-default-features --test prop_query --test prop_metrics
cargo test -q -p ibis --no-default-features --test exactness
cargo test -q -p ibis-insitu --no-default-features --lib --test fault_injection \
    --test crash_resume --test query_engine --test prop_lazy --test shard --test serving

# bench_smoke <bench> <ENV_VAR> <keys…>: runs one bench's shrunken sweep in
# both obs configs and checks that its report carries every key.
# ENV_VAR=1 makes the bench write target/BENCH_<bench>.smoke.json, never
# the frozen full-size BENCH_<bench>.json at the root. Every sweep asserts
# its identity gates (codec × kernel vs the verbatim oracle, reordered bins
# vs identity order, sharded answers vs flat, the serving SLO) before it times anything, so a pass is also a
# correctness gate.
bench_smoke() {
    local bench="$1" var="$2" report="target/BENCH_$1.smoke.json" obs key
    shift 2
    for obs in "" "--no-default-features"; do
        echo "==> $bench bench smoke (${obs:-instrumented}) + report schema"
        rm -f "$report"
        # shellcheck disable=SC2086
        env "$var=1" cargo bench -q -p ibis-bench $obs --bench "$bench"
        for key in "$@"; do
            grep -q "$key" "$report" || {
                echo "error: $report missing $key" >&2
                exit 1
            }
        done
    done
}
bench_smoke generation IBIS_GEN_SMOKE '"samples"' \
    '"batched_over_scalar_speedup"' '"parallel_over_scalar_speedup"' \
    '"min_coherent_batched_speedup"' '"uniform_random_within_5pct_target"'
bench_smoke query IBIS_QUERY_SMOKE '"warm_over_cold_speedup"' \
    '"warm_over_5x_target"' '"joint_partition_s"' '"joint_and_table_s"' \
    '"partition_over_and_table_speedup"' '"partition_never_slower"' \
    '"roaring_walk_no_slower"' '"wah_held_partition_s"' \
    '"subset_count_s"' '"subset_materialize_s"' \
    '"count_over_materialize_speedup"' '"count_never_slower"' \
    '"count_equals_materialized"' '"lazy_equals_eager": true' '"miss_path"' \
    '"read_us"' '"crc_us"' '"verify_us"' '"count_touched_us"' \
    '"select_touched_us"' '"transcode_touched_us"' '"transcode_all_us"' \
    '"eager_over_lazy"' '"planner_identity_ranges_checked"' \
    '"planner_strategies_all_byte_identical"' '"planner_all_strategies_exercised"'
bench_smoke codecs IBIS_CODEC_SMOKE '"samples"' '"bytes_per_bitmap"' \
    '"auto_selected"' '"roaring_over_wah_speedup"' '"auto_over_best_ratio"' \
    '"auto_within_10pct_of_best"' '"identity_checked"'
bench_smoke reorder IBIS_ORDER_SMOKE '"samples"' '"elements"' '"vs_identity"' \
    '"criterion"' '"identity_checked"' '"size_ratio"' '"latency_ratio"' \
    '"size_win_15pct_within_latency_10pct"' '"order_payload_bytes"' \
    '"bytes_with_order"' '"perm_build_s"' '"region_mask_s"'
bench_smoke serving IBIS_SERVE_SMOKE '"samples"' '"fault_free_p99_ms"' \
    '"saturation_qps"' '"faulted_p99_ms"' '"faulted_p99_within_bound"' '"shed"' \
    '"coalesce_hits"' '"coalesce_decodes"' '"queue_peak"' \
    '"queue_bound_respected"' '"socket_rtt_p50_ms"'
bench_smoke shard IBIS_SHARD_SMOKE '"samples"' '"shards"' '"throughput_qps"' \
    '"speedup_4x_over_1"' '"scaling_target_met": true' '"identity_checked"' \
    '"pruning_checked"' \
    '"ocean_over_budget"' '"ocean_p99_ms"' '"ocean_p99_interactive"' \
    '"cache_evictions"' '"nodekill_resumed"'

echo "==> mining at Figure 14 scale, EMD selection at Figure 9 scale (both obs configs)"
# The spatial stage on the label walk, at the sizes the paper plots:
# fig14 asserts the bitmap miner equal to the full-data miner, the
# multi-level ablation that group-2 pruning keeps >= 0.8 of the strong
# subsets. Each runs in about a second. fig09 asserts that the bitmap and
# full-data LULESH runs select the same steps under the spatial EMD
# (about ten seconds).
for obs in "" "--no-default-features"; do
    # shellcheck disable=SC2086
    cargo bench -q -p ibis-bench $obs --bench fig14_mining --bench ablation_multilevel \
        --bench fig09_lulesh_xeon
done

echo "==> ibis-e2e smoke: every reply of every workload against the full-data-scan oracle"
# The end-to-end harness (its own workspace under benchmark/) refuses to
# print a metric unless every catalog reply equals the oracle's, so a
# kernel that changes an answer fails here. About two seconds in all.
for workload in heat3d_flat_batch ocean_flat_batch ocean_shard_evict heat3d_reorder_lossy_tcp; do
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        --smoke --workload "$workload" >/dev/null
done

echo "==> ibis serve + loadgen end-to-end smoke (1 and 4 shards, both obs configs)"
# Build a tiny store, then drive a live server with the zipf load
# generator for a few hundred requests. Every leg ingests under
# --row-order graybin, so the served store carries the permutations the
# engine must apply to every region, at either shard count, with
# background maintenance running.
# The instrumented legs also pin that serving is count-only: every subset
# counts its plan, and nothing transcodes a bin.
serve_smoke() {
    local shards="$1"
    shift
    local features=("$@")
    local store="target/ci_serve_store_k$shards"
    local obs=()
    if [ "${#features[@]}" -eq 0 ]; then obs=(--obs-json "$store.obs.json"); fi
    rm -rf "$store" "$store.obs.json"
    cargo run -q --release "${features[@]}" --bin ibis -- insitu \
        --sim heat3d --steps 2 --select 2 --cores 2 --row-order graybin \
        --shards "$shards" --out "$store" >/dev/null
    # one shard is the flat layout; more live under a SHARDS file
    if [ "$shards" -gt 1 ]; then test -f "$store/SHARDS"; else test -f "$store/MANIFEST"; fi
    local port=$((20000 + RANDOM % 20000))
    # --conns 2: the readiness probe below counts as one completed
    # connection, the load generator's single client is the second; the
    # server exits cleanly once both have disconnected.
    cargo run -q --release "${features[@]}" --bin ibis -- serve \
        --store "$store" --shards "$shards" \
        --addr "127.0.0.1:$port" --workers 2 --queue 16 --maintain-ms 200 \
        --conns 2 "${obs[@]}" &
    local serve_pid=$!
    # Wait for the listener to come up before pointing the clients at it.
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    local summary outcomes
    summary=$(cargo run -q --release "${features[@]}" --bin ibis -- loadgen \
        --addr "127.0.0.1:$port" --store "$store" --requests 300 \
        --clients 1 --deadline-ms 2000 --seed 7)
    echo "$summary"
    wait "$serve_pid"
    # every request answered ok: the summary's only outcome line
    outcomes=$(grep -E '^  [a-z]+: [0-9]+$' <<<"$summary" || true)
    if [ "$outcomes" != "  ok: 300" ]; then
        echo "error: ibis loadgen (k=$shards) outcomes are not all ok: $outcomes" >&2
        exit 1
    fi
    if [ "${#obs[@]}" -gt 0 ]; then
        grep -q '"query.subset.counted"' "$store.obs.json" || {
            echo "error: ibis serve (k=$shards) counted no subset" >&2
            exit 1
        }
        if grep -q '"codec.decode.transcoded_bins"' "$store.obs.json"; then
            echo "error: ibis serve (k=$shards) ticked codec.decode.transcoded_bins" >&2
            exit 1
        fi
    fi
}
for shards in 1 4; do
    serve_smoke "$shards"
    serve_smoke "$shards" --no-default-features
done

echo "CI OK"
