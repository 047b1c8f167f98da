//! Query-serving sweep for the cached engine and the planner: warm-cache
//! repeated correlation queries vs the cold `load_series`-per-query
//! baseline, the one-pass partition joint table vs the paper's AND table
//! and vs itself on a WAH-held copy of its operands (three data regimes ×
//! four predicates, results asserted equal before any is timed;
//! `roaring_walk_no_slower` is the ocean whole-table walk as built against
//! its WAH-held copy), counting a subset query's plan vs materialising its
//! selection and counting that (four regimes — a strided layout's thousands
//! of stored ranges among them — × three regions × three widths, equality
//! asserted before timing), the layers of a cache miss on the ocean fields
//! stored flat and in four shards (read, CRC, verify, then what a lazily
//! materialised index pays for a plan against what forcing every bin
//! costs; the lazy index asserted equal to the forced one first), and an
//! in-bench byte-identity sweep of both planner strategies against the
//! naive per-bin OR. Written to
//! `BENCH_query.json` at the repository root.
//!
//!     cargo bench -p ibis-bench --bench query
//!
//! `IBIS_QUERY_SMOKE=1` shrinks the store and writes to
//! `target/BENCH_query.smoke.json` instead, so CI can schema-check the
//! report without clobbering the committed full-size numbers.

use ibis_analysis::{
    correlation_query, joint_counts_and_table, joint_counts_where, plan_value_range, shard_mask,
    shard_ranges, stored_ranges, RangePlan, SubsetQuery,
};
use ibis_bench::{count_regimes, joint_regimes, span_holding};
use ibis_core::{Binner, BitmapIndex, WahVec};
use ibis_insitu::{
    codec, CachedStore, QueryAnswer, QueryEngine, QueryRequest, ShardedStore, ShardedWriter, Store,
    StoreWriter,
};
use std::hint::black_box;
use std::time::Instant;

/// Mean seconds per iteration (same calibration scheme as micro_kernels).
fn measure<O>(mut f: impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.06 / one).round() as u64).clamp(1, 1_000_000_000);
    let samples = 3;
    let mut total = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        total += t0.elapsed().as_secs_f64() / iters as f64;
    }
    total / samples as f64
}

/// A smooth simulation-like field: long same-bin runs, WAH-friendly.
fn temperature(step: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            32.0 + 28.0 * (x * 9.0 + step as f64 * 0.7).sin() + 3.0 * (x * 151.0).sin()
        })
        .collect()
}

/// A second variable that tracks the first, so correlations are non-trivial.
fn salinity(temp: &[f64]) -> Vec<f64> {
    temp.iter()
        .enumerate()
        .map(|(i, &t)| 20.0 + t * 0.5 + 6.0 * ((i as f64 * 0.013).cos()))
        .collect()
}

const NBINS: usize = 64;

/// Fastest of a few runs of `f` over a fresh `setup()` each, in µs: the
/// layers of a miss are one-shot costs, and a blob is microseconds.
fn floor_us<S, O>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> O) -> f64 {
    (0..15)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            black_box(f(input));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// The layers of one cache miss, summed over every index blob of the
/// ocean temperature and salinity fields stored under `nshards`, as a JSON
/// object. What the engine pays now is read + CRC + verify, then nothing
/// for a ranged count (`count_touched_us`) and an OR where the bins lie for
/// a selection (`select_touched_us`); `transcode_touched_us` is what
/// asking the same plan's bins for their WAH form costs, `transcode_all_us`
/// what forcing every bin does — with read, CRC and verify, the eager miss
/// this bench is the record of.
fn miss_path(nshards: usize, ocean: [usize; 3]) -> String {
    let regime = joint_regimes(8, ocean).swap_remove(1);
    assert_eq!(regime.name, "ocean");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("../../target/bench-query-miss-k{nshards}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut w = ShardedWriter::create(&dir, nshards).expect("create miss store");
    w.put(0, "temperature", &regime.a).expect("put temperature");
    w.put(0, "salinity", &regime.b).expect("put salinity");
    w.finish().expect("finish miss store");

    let mut us = [0.0f64; 7];
    let (mut blobs, mut bytes, mut bins, mut roaring) = (0, 0, 0, 0);
    for store in ShardedStore::open(&dir)
        .expect("open miss store")
        .into_shards()
    {
        for var in ["temperature", "salinity"] {
            let eager = store.get(0, var).expect("stored index");
            let file = store.dir().join(format!("s000000_{var}.ibis"));
            let framed = std::fs::read(&file).expect("read blob");
            let payload = &framed[12..framed.len() - 4];
            let decode = || codec::decode_index(payload).expect("stored payload");
            // the plan of record: the value range holding 40 % of the rows,
            // inside the first quarter of them
            let rows = eager.len();
            let (b0, b1) = span_holding(eager.counts(), 0.4);
            let binner = eager.binner();
            let q = SubsetQuery::value(binner.bin_range(b0).0, binner.bin_range(b1).1);
            let region = 0..rows / 4;
            let region = std::slice::from_ref(&region);
            // identity gate: the lazy index is the forced one
            let lazy = decode();
            let forced = decode();
            assert_eq!(forced.bins().count(), eager.nbins());
            assert_eq!(q.count(&lazy, Some(region)), q.count(&forced, Some(region)));
            assert_eq!(lazy.query_bins(b0..=b1), forced.query_bins(b0..=b1));
            assert!(lazy.bins().eq(eager.bins()), "lazy bins diverged");
            assert_eq!(
                codec::encode_index_auto(&lazy).0,
                payload,
                "re-encode moved a byte"
            );

            let layers: [f64; 7] = [
                floor_us(|| (), |()| std::fs::read(&file).expect("read blob")),
                floor_us(
                    || (),
                    |()| ibis_insitu::crc::crc32c(&framed[3..framed.len() - 4]),
                ),
                floor_us(|| (), |()| decode()),
                floor_us(decode, |idx| q.count(&idx, Some(region))),
                floor_us(decode, |idx| idx.query_bins(b0..=b1)),
                floor_us(decode, |idx| {
                    (b0..=b1).map(|b| idx.bin(b).len()).sum::<u64>()
                }),
                floor_us(decode, |idx| idx.bins().count()),
            ];
            for (total, layer) in us.iter_mut().zip(layers) {
                *total += layer;
            }
            blobs += 1;
            bytes += framed.len();
            bins += eager.nbins();
            roaring += eager
                .codec_plan()
                .iter()
                .filter(|c| c.name() == "roaring")
                .count();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let per_blob = |k: usize| us[k] / blobs as f64;
    let eager_miss = (0..3).chain([6]).map(per_blob).sum::<f64>();
    let lazy_miss = (0..4).map(per_blob).sum::<f64>();
    println!(
        "query: miss path k={nshards}  {blobs} blobs x {:.0} B, {roaring}/{bins} bins roaring  eager {eager_miss:.1} us  verify-only + count {lazy_miss:.1} us  ({:.1}x)",
        bytes as f64 / blobs as f64,
        eager_miss / lazy_miss
    );
    format!(
        "    {{\"shards\": {nshards}, \"blobs\": {blobs}, \"blob_bytes\": {:.0}, \"bins\": {bins}, \"roaring_bins\": {roaring}, \
         \"read_us\": {:.3}, \"crc_us\": {:.3}, \"verify_us\": {:.3}, \"count_touched_us\": {:.3}, \
         \"select_touched_us\": {:.3}, \"transcode_touched_us\": {:.3}, \"transcode_all_us\": {:.3}, \
         \"eager_miss_us\": {eager_miss:.3}, \"lazy_miss_us\": {lazy_miss:.3}, \"eager_over_lazy\": {:.3}}}",
        bytes as f64 / blobs as f64,
        per_blob(0),
        per_blob(1),
        per_blob(2),
        per_blob(3),
        per_blob(4),
        per_blob(5),
        per_blob(6),
        eager_miss / lazy_miss,
    )
}

fn main() {
    let smoke = std::env::var("IBIS_QUERY_SMOKE").is_ok_and(|v| v == "1");
    let n: usize = if smoke { 1 << 15 } else { 1 << 19 };
    let nsteps: usize = if smoke { 3 } else { 12 };
    let binner = Binner::fixed_width(0.0, 66.0, NBINS);

    // --- build a real run directory to serve from ---
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-query-store");
    std::fs::remove_dir_all(&dir).ok();
    let mut w = StoreWriter::create(&dir).expect("create bench store");
    for step in 0..nsteps {
        let t = temperature(step, n);
        let s = salinity(&t);
        w.put(step, "temperature", &BitmapIndex::build(&t, binner.clone()))
            .expect("put temperature");
        w.put(step, "salinity", &BitmapIndex::build(&s, binner.clone()))
            .expect("put salinity");
    }
    w.finish().expect("finish bench store");

    // The repeated-query workload: every step, three hot-region value
    // ranges (the interactive drill-down pattern the cache targets).
    let ranges = [(10.0, 16.0), (30.0, 34.0), (50.0, 52.0)];
    let workload: Vec<QueryRequest> = (0..nsteps)
        .flat_map(|step| {
            ranges
                .iter()
                .map(move |&(lo, hi)| QueryRequest::Correlation {
                    step,
                    var_a: "temperature".into(),
                    var_b: "salinity".into(),
                    query_a: SubsetQuery::value(lo, hi),
                    query_b: SubsetQuery::region(0..(n as u64) * 3 / 4),
                })
        })
        .collect();

    // --- warm cache vs cold load_series-per-query ---
    // Cold: the pre-engine idiom — every query re-reads, re-verifies, and
    // re-decodes the whole series of both variables from disk.
    let cold_store = Store::open(&dir).expect("open store");
    let run_cold = |req: &QueryRequest| {
        let QueryRequest::Correlation {
            step,
            var_a,
            var_b,
            query_a,
            query_b,
        } = req
        else {
            unreachable!("workload is all correlations")
        };
        let series_a = cold_store.load_series(var_a).expect("load series a");
        let series_b = cold_store.load_series(var_b).expect("load series b");
        let a = &series_a.iter().find(|(s, _)| s == step).expect("step a").1;
        let b = &series_b.iter().find(|(s, _)| s == step).expect("step b").1;
        correlation_query(a, b, query_a, query_b).expect("well-formed query")
    };
    let engine = QueryEngine::new(CachedStore::new(
        Store::open(&dir).expect("open store"),
        256 << 20,
    ));

    // Sanity: warm and cold agree on every workload answer before timing.
    for req in &workload {
        let QueryAnswer::Correlation(warm) = engine.run(req).expect("warm query") else {
            unreachable!("correlation request")
        };
        assert_eq!(warm, run_cold(req), "warm/cold divergence on {req:?}");
    }

    let cold_s = measure(|| {
        for req in &workload {
            black_box(run_cold(black_box(req)));
        }
    });
    let warm_s = measure(|| {
        for req in &workload {
            black_box(engine.run(black_box(req)).expect("warm query"));
        }
    });
    let warm_speedup = cold_s / warm_s;
    let warm_ok = warm_speedup >= 5.0;
    let stats = engine.cache_stats();
    println!(
        "query: {} queries/batch  cold {:.1} ms  warm {:.2} ms  ({warm_speedup:.1}x, >=5x: {warm_ok})  cache {} hits / {} misses",
        workload.len(),
        cold_s * 1e3,
        warm_s * 1e3,
        stats.hits,
        stats.misses,
    );

    // --- partition kernel vs AND table: the identical op, equal results
    // asserted before either is timed ---
    let regimes = if smoke {
        joint_regimes(32, [32, 24, 8])
    } else {
        joint_regimes(96, [96, 64, 16])
    };
    let mut joint_samples = Vec::new();
    let (mut partition_s, mut and_table_s) = (0.0, 0.0);
    let mut joint_speedup = f64::INFINITY;
    let mut never_slower = true;
    let mut roaring_no_slower = true;
    for regime in &regimes {
        let (a, b) = (&regime.a, &regime.b);
        // the same bins, every one held as WAH: what the walk costs on the
        // other codec
        let wah_held = |idx: &BitmapIndex| {
            BitmapIndex::from_bins(idx.binner().clone(), idx.bins().cloned().collect())
        };
        let (wa, wb) = (wah_held(a), wah_held(b));
        let (mut fast_s, mut slow_s) = (0.0, 0.0);
        for (name, predicate) in regime.predicates() {
            let sel = regime.selection(&predicate);
            let sel = sel.as_ref();
            let (bins, ranges) = (predicate.0.clone(), predicate.1.as_deref());
            let walk = || joint_counts_where(a, b, bins.clone(), 0..b.nbins(), ranges);
            let wah_walk = || joint_counts_where(&wa, &wb, bins.clone(), 0..b.nbins(), ranges);
            assert_eq!(
                walk(),
                joint_counts_and_table(a, b, sel),
                "{}/{name}: partition kernel diverged from the AND table",
                regime.name
            );
            assert_eq!(
                walk(),
                wah_walk(),
                "{}/{name}: the walk diverged between Roaring- and WAH-held bins",
                regime.name
            );
            let fast = measure(&walk);
            let wah = measure(&wah_walk);
            let slow = measure(|| joint_counts_and_table(black_box(a), black_box(b), sel));
            never_slower &= fast <= slow;
            // the gate: ocean's bins are nearly all Roaring as built
            if (regime.name, name) == ("ocean", "all") {
                roaring_no_slower = fast <= wah;
            }
            fast_s += fast;
            slow_s += slow;
            let share = sel.map_or(1.0, |s| s.count_ones() as f64 / a.len().max(1) as f64);
            joint_samples.push(format!(
                "    {{\"regime\": \"{}\", \"selection\": \"{name}\", \"rows\": {}, \"selected_share\": {share:.4}, \
                 \"partition_s\": {fast:e}, \"wah_held_partition_s\": {wah:e}, \"and_table_s\": {slow:e}, \"speedup\": {:.3}}}",
                regime.name,
                a.len(),
                slow / fast
            ));
        }
        println!(
            "query: joint table {:8} {} rows  AND table {:.3} ms  partition {:.3} ms  ({:.1}x)",
            regime.name,
            a.len(),
            slow_s * 1e3,
            fast_s * 1e3,
            slow_s / fast_s
        );
        joint_speedup = joint_speedup.min(slow_s / fast_s);
        partition_s += fast_s;
        and_table_s += slow_s;
    }

    // --- subset count: count the plan vs materialise-then-count, the
    // identical per-shard step (the region's stored ranges resolved once,
    // outside both), equal results asserted before either is timed ---
    let regimes = if smoke {
        count_regimes(32, [32, 24, 8])
    } else {
        count_regimes(96, [96, 64, 16])
    };
    let mut count_samples = Vec::new();
    let (mut subset_count_s, mut subset_materialize_s) = (0.0, 0.0);
    let mut count_speedup = f64::INFINITY;
    let mut count_never_slower = true;
    for regime in &regimes {
        let (idx, rows) = (&regime.a, regime.a.len());
        let (mut fast_s, mut slow_s) = (0.0, 0.0);
        // blocks from row 0: Heat3D's heated face, where its values vary
        for (region_name, region) in [
            ("none", None),
            ("1_64", Some(0..rows / 64)),
            ("1_4", Some(0..rows / 4)),
        ] {
            let block = region.map_or(SubsetQuery::all(), SubsetQuery::region);
            let t0 = Instant::now();
            let ranges = stored_ranges(&[&block], rows, regime.perm.as_ref());
            let resolve_s = t0.elapsed().as_secs_f64();
            let ranges = ranges.expect("the block lies inside the grid");
            let ranges = ranges.as_deref();
            // value ranges holding 5, 40 and 70 % of the region's own rows
            let in_region =
                |b: &WahVec| ranges.map_or(b.count_ones(), |r| b.count_ones_in_ranges(r));
            let held: Vec<u64> = idx.bins().map(in_region).collect();
            for width in [0.05, 0.4, 0.7] {
                let (b0, b1) = span_holding(&held, width);
                let (lo, hi) = (idx.binner().bin_range(b0).0, idx.binner().bin_range(b1).1);
                let q = block.clone().with_value(lo, hi);
                let count = || {
                    let local = ranges.map(|r| shard_ranges(r, 0..rows));
                    q.count(idx, local.as_deref())
                };
                let materialize = || {
                    let mask = ranges.map(|r| shard_mask(r, 0..rows));
                    q.evaluate_masked(idx, mask.as_ref())
                        .map(|sel| sel.count_ones())
                };
                let selected = count().expect("finite bounds");
                assert_eq!(
                    Ok(selected),
                    materialize(),
                    "{}/{region_name}/{width}: count diverged from materialise-then-count",
                    regime.name
                );
                let fast = measure(count);
                let slow = measure(materialize);
                count_never_slower &= fast <= slow;
                fast_s += fast;
                slow_s += slow;
                count_samples.push(format!(
                    "    {{\"regime\": \"{}\", \"region\": \"{region_name}\", \"width\": {width}, \
                     \"rows\": {rows}, \"stored_ranges\": {}, \"stored_ranges_s\": {resolve_s:e}, \
                     \"selected\": {selected}, \"count_s\": {fast:e}, \"materialize_s\": {slow:e}, \
                     \"speedup\": {:.3}}}",
                    regime.name,
                    ranges.map_or(0, <[_]>::len),
                    slow / fast
                ));
            }
        }
        println!(
            "query: subset count {:8} {rows} rows  materialise {:.3} ms  count {:.3} ms  ({:.1}x)",
            regime.name,
            slow_s * 1e3,
            fast_s * 1e3,
            slow_s / fast_s
        );
        count_speedup = count_speedup.min(slow_s / fast_s);
        subset_count_s += fast_s;
        subset_materialize_s += slow_s;
    }

    // --- the layers of a miss, on the ocean fields flat and in 4 shards ---
    let ocean = if smoke { [32, 24, 8] } else { [96, 64, 16] };
    let miss_samples = [miss_path(1, ocean), miss_path(4, ocean)];

    // --- planner byte-identity sweep: every strategy == naive per-bin OR ---
    let ia = BitmapIndex::build(&temperature(0, n), binner.clone());
    let mut plan_counts = [0usize; 3]; // empty, or_bins, complement
    let mut identity_checks = 0usize;
    for lo_bin in (0..NBINS).step_by(3) {
        for width in [0usize, 1, 2, 7, 19, 40, NBINS] {
            let lo = lo_bin as f64 * 66.0 / NBINS as f64 + 0.01;
            let hi = lo + width as f64 * 66.0 / NBINS as f64;
            let plan = plan_value_range(&ia, None, lo, hi).expect("finite bounds");
            plan_counts[match plan {
                RangePlan::Empty => 0,
                RangePlan::OrBins { .. } => 1,
                RangePlan::Complement { .. } => 2,
            }] += 1;
            let naive = ia.query_range(lo, hi);
            let planned = SubsetQuery::value(lo, hi).evaluate(&ia).expect("planned");
            assert_eq!(
                planned.words(),
                naive.words(),
                "{plan:?} diverged at [{lo}, {hi})"
            );
            identity_checks += 1;
        }
    }
    let all_strategies_used = plan_counts.iter().all(|&c| c > 0);
    println!(
        "query: planner identity {identity_checks} ranges byte-identical; plans empty={} or_bins={} complement={} (all used: {all_strategies_used})",
        plan_counts[0], plan_counts[1], plan_counts[2],
    );

    let out = format!(
        "{{\n  \"workload\": \"correlation query serving, {n} elements/step, {nsteps} steps, {NBINS} bins, {} queries/batch\",\n  \
         \"n\": {n},\n  \"nsteps\": {nsteps},\n  \"nbins\": {NBINS},\n  \
         \"cold_load_series_batch_s\": {cold_s:e},\n  \
         \"warm_cache_batch_s\": {warm_s:e},\n  \
         \"warm_over_cold_speedup\": {warm_speedup:.3},\n  \
         \"warm_over_5x_target\": {warm_ok},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"joint_partition_s\": {partition_s:e},\n  \
         \"joint_and_table_s\": {and_table_s:e},\n  \
         \"partition_over_and_table_speedup\": {joint_speedup:.3},\n  \
         \"partition_never_slower\": {never_slower},\n  \
         \"roaring_walk_no_slower\": {roaring_no_slower},\n  \
         \"joint\": [\n{}\n  ],\n  \
         \"subset_count_s\": {subset_count_s:e},\n  \
         \"subset_materialize_s\": {subset_materialize_s:e},\n  \
         \"count_over_materialize_speedup\": {count_speedup:.3},\n  \
         \"count_never_slower\": {count_never_slower},\n  \
         \"count_equals_materialized\": true,\n  \
         \"subset_count\": [\n{}\n  ],\n  \
         \"lazy_equals_eager\": true,\n  \
         \"miss_path\": [\n{}\n  ],\n  \
         \"planner_identity_ranges_checked\": {identity_checks},\n  \
         \"planner_strategies_all_byte_identical\": true,\n  \
         \"planner_all_strategies_exercised\": {all_strategies_used}\n}}\n",
        workload.len(),
        stats.hits,
        stats.misses,
        joint_samples.join(",\n"),
        count_samples.join(",\n"),
        miss_samples.join(",\n"),
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_query.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json")
    };
    std::fs::write(path, out).expect("write BENCH_query report");
    std::fs::remove_dir_all(&dir).ok();
    println!("query: wrote {path}");
}
