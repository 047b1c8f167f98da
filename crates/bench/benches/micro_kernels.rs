//! Criterion micro-benchmarks for the compute kernels — WAH construction,
//! logical operations, metric kernels, the mining inner loop — plus the
//! **kernel sweep**: density × codec × kernel, written to
//! `target/BENCH_kernels.sweep.json`. EXPERIMENTS.md keeps the sweep's
//! first record, from when the pre-adaptive closure-generic kernels still
//! existed.
//!
//! Run with `IBIS_SWEEP_ONLY=1` to emit the JSON without the (slower)
//! criterion groups.

use criterion::{criterion_group, BenchmarkId, Criterion};
use ibis_analysis::{
    aggregate, correlation_query, joint_counts, mine_full, mine_index, stored_ranges, Metric,
    MiningConfig, SubsetQuery, VarSummary,
};
use ibis_core::{Binner, BitmapIndex, Bitset, MultiWahBuilder, WahVec};
use ibis_datagen::{OceanConfig, OceanModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 1 << 20; // 1M elements

fn smooth_field(phase: f64) -> Vec<f64> {
    (0..N)
        .map(|i| (i as f64 * 1e-4 + phase).sin() * 50.0)
        .collect()
}

// ---------------------------------------------------------------------------
// Kernel sweep: density × codec × kernel.
// ---------------------------------------------------------------------------

/// Mean seconds per iteration: calibrates an iteration count to ~60 ms per
/// sample, then averages a handful of samples (same scheme as the criterion
/// shim, but returning the number so it can be persisted).
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

/// One timed point of the sweep.
struct Sample {
    pattern: &'static str,
    density: f64,
    wah_dense: bool,
    codec: &'static str,
    kernel: &'static str,
    mean_s: f64,
}

/// A pair of bit patterns at a target density. `sparse_runs` is the
/// fill-heavy regime WAH was designed for; the `*_random` patterns are
/// incompressible noise at increasing density, crossing the α=1 cutover.
fn pattern_bits(name: &str, density: f64, seed: u64) -> Vec<bool> {
    match name {
        "sparse_runs" => {
            // 310-bit runs of ones, one run per ~93k bits (density ≈ 0.33%),
            // offset by seed so the two operands interleave.
            let offset = seed as usize * 155;
            (0..N)
                .map(|i| ((i + offset) / 310).is_multiple_of(300))
                .collect()
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(0xB17_5EED ^ seed);
            (0..N).map(|_| rng.gen_range(0.0..1.0) < density).collect()
        }
    }
}

fn kernel_sweep() {
    let patterns: [(&'static str, f64); 5] = [
        ("sparse_runs", 0.0033),
        ("sparse_random", 0.01),
        ("mid_random", 0.10),
        ("dense30_random", 0.30),
        ("dense50_random", 0.50),
    ];
    let mut samples: Vec<Sample> = Vec::new();
    for (pattern, density) in patterns {
        let bits_a = pattern_bits(pattern, density, 1);
        let bits_b = pattern_bits(pattern, density, 2);
        let wa = WahVec::from_bits(bits_a.iter().copied());
        let wb = WahVec::from_bits(bits_b.iter().copied());
        let va = Bitset::from_bits(bits_a.iter().copied());
        let vb = Bitset::from_bits(bits_b.iter().copied());
        let wah_dense = wa.is_dense() || wb.is_dense();
        let mut push = |codec, kernel, mean_s| {
            println!(
                "bench: sweep/{pattern}/{codec}/{kernel:<12} mean {:>10.3} us",
                mean_s * 1e6
            );
            samples.push(Sample {
                pattern,
                density,
                wah_dense,
                codec,
                kernel,
                mean_s,
            });
        };
        // WAH, adaptive dense-path kernels.
        push("wah_adaptive", "and_count", measure(|| wa.and_count(&wb)));
        push("wah_adaptive", "and", measure(|| wa.and(&wb)));
        push("wah_adaptive", "or", measure(|| wa.or(&wb)));
        // Uncompressed baseline (clone + in-place AND + popcount).
        push(
            "verbatim",
            "and_count",
            measure(|| {
                let mut x = va.clone();
                x.and_assign(&vb);
                x.count_ones()
            }),
        );
    }
    write_json(&samples);
}

fn write_json(samples: &[Sample]) {
    let mut out = String::from("{\n  \"bits\": 1048576,\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pattern\": \"{}\", \"density\": {}, \"wah_dense\": {}, \
             \"codec\": \"{}\", \"kernel\": \"{}\", \"mean_s\": {:e}}}{}\n",
            s.pattern,
            s.density,
            s.wah_dense,
            s.codec,
            s.kernel,
            s.mean_s,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_kernels.sweep.json"
    );
    std::fs::write(path, out).expect("write BENCH_kernels.sweep.json");
    println!("sweep: wrote {path}");
}

// ---------------------------------------------------------------------------
// Criterion groups (construction, ops, metrics, mining, queries).
// ---------------------------------------------------------------------------

fn bench_build(c: &mut Criterion) {
    let data = smooth_field(0.0);
    let binner = Binner::fixed_width(-51.0, 51.0, 100);
    let mut ids = Vec::new();
    binner.bin_into(&data, &mut ids); // scratch-reuse binning API
    let mut g = c.benchmark_group("build");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("algorithm1_streaming_1M", |b| {
        b.iter(|| {
            let mut mb = MultiWahBuilder::new(binner.nbins());
            mb.extend_from(black_box(&ids));
            black_box(mb.finish())
        })
    });
    g.bench_function("index_build_with_binning_1M", |b| {
        b.iter(|| black_box(BitmapIndex::build(black_box(&data), binner.clone())))
    });
    g.bench_function("uncompressed_bitsets_1M", |b| {
        b.iter(|| {
            let mut sets: Vec<Bitset> =
                (0..binner.nbins()).map(|_| Bitset::new(N as u64)).collect();
            for (i, &id) in ids.iter().enumerate() {
                sets[id as usize].set(i as u64, true);
            }
            black_box(sets)
        })
    });
    g.finish();
}

fn bench_ops(c: &mut Criterion) {
    // runs-heavy vectors (the smooth-field regime WAH targets)
    let a = WahVec::from_bits((0..N as u64).map(|i| (i / 1000) % 3 == 0));
    let b = WahVec::from_bits((0..N as u64).map(|i| (i / 700) % 4 == 0));
    let mut g = c.benchmark_group("wah_ops");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_function("and_1M", |bch| bch.iter(|| black_box(a.and(&b))));
    g.bench_function("and_count_1M", |bch| {
        bch.iter(|| black_box(a.and_count(&b)))
    });
    g.bench_function("count_ones_1M", |bch| {
        bch.iter(|| black_box(a.count_ones()))
    });
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let a = smooth_field(0.0);
    let b = smooth_field(0.9);
    let binner = Binner::fixed_width(-51.0, 51.0, 100);
    let sa = VarSummary::bitmap(&a, binner.clone());
    let sb = VarSummary::bitmap(&b, binner.clone());
    let (fa, fb) = (
        VarSummary::full(a, binner.clone()),
        VarSummary::full(b, binner),
    );
    let mut g = c.benchmark_group("metrics");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("cond_entropy_fulldata_1M", |bch| {
        bch.iter(|| black_box(fa.metric(&fb, Metric::ConditionalEntropy)))
    });
    g.bench_function("cond_entropy_bitmaps_1M", |bch| {
        bch.iter(|| black_box(sa.metric(&sb, Metric::ConditionalEntropy)))
    });
    g.bench_function("emd_spatial_fulldata_1M", |bch| {
        bch.iter(|| black_box(fa.metric(&fb, Metric::EmdSpatial)))
    });
    g.bench_function("emd_spatial_bitmaps_1M", |bch| {
        bch.iter(|| black_box(sa.metric(&sb, Metric::EmdSpatial)))
    });
    g.finish();
}

fn bench_mining(c: &mut Criterion) {
    let cfg = OceanConfig {
        nlon: 128,
        nlat: 96,
        ndepth: 2,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg);
    let t = ocean.variable("temperature");
    let s = ocean.variable("salinity");
    let bt = Binner::fit(&t, 24);
    let bs = Binner::fit(&s, 24);
    let it = BitmapIndex::build(&t, bt.clone());
    let is = BitmapIndex::build(&s, bs.clone());
    let mc = MiningConfig {
        value_threshold: 0.002,
        spatial_threshold: 0.08,
        unit_size: 512,
    };
    let mut g = c.benchmark_group("mining");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (label, bitmaps) in [("bitmaps", true), ("fulldata", false)] {
        g.bench_with_input(
            BenchmarkId::new("ocean_24k", label),
            &bitmaps,
            |bch, &bm| {
                bch.iter(|| {
                    if bm {
                        black_box(mine_index(&it, &is, &mc))
                    } else {
                        black_box(mine_full(&t, &s, &bt, &bs, &mc))
                    }
                })
            },
        );
    }
    g.finish();
}

fn bench_queries(c: &mut Criterion) {
    let a = smooth_field(0.0);
    let b = smooth_field(1.3);
    let binner = Binner::fixed_width(-51.0, 51.0, 100);
    let ia = BitmapIndex::build(&a, binner.clone());
    let ib = BitmapIndex::build(&b, binner.clone());
    let mut g = c.benchmark_group("queries");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    g.bench_function("range_query_1M", |bch| {
        bch.iter(|| black_box(ia.query_range(black_box(-10.0), black_box(10.0))))
    });
    g.bench_function("approx_mean_1M", |bch| {
        bch.iter(|| black_box(aggregate::mean(&ia)))
    });
    let all = SubsetQuery::all();
    g.bench_function("approx_pearson_1M", |bch| {
        bch.iter(|| black_box(correlation_query(&ia, &ib, &all, &all)))
    });
    let region = SubsetQuery::region(100_000..500_000);
    g.bench_function("correlation_query_region_1M", |bch| {
        bch.iter(|| black_box(correlation_query(&ia, &ib, &region, &SubsetQuery::all())))
    });
    g.finish();
}

/// The one-pass joint table over all rows of each data shape it serves
/// (`benches/query.rs` holds the record against the AND table).
fn bench_joint(c: &mut Criterion) {
    let mut g = c.benchmark_group("joint");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for regime in ibis_bench::joint_regimes(64, [96, 64, 16]) {
        g.bench_with_input(
            BenchmarkId::new("partition", regime.name),
            &regime,
            |bch, r| bch.iter(|| black_box(joint_counts(black_box(&r.a), black_box(&r.b)))),
        );
    }
    g.finish();
}

/// A subset count — the value range holding 40 % of a block of 1/64 of the
/// grid — over each data shape and row order it has to serve
/// (`benches/query.rs` holds the record against materialise-then-count).
fn bench_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("count_in_ranges");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for regime in ibis_bench::count_regimes(64, [96, 64, 16]) {
        let (idx, rows) = (&regime.a, regime.a.len());
        let block = SubsetQuery::region(0..rows / 64); // Heat3D's heated face
        let ranges = stored_ranges(&[&block], rows, regime.perm.as_ref())
            .expect("the block lies inside the grid")
            .expect("a region resolves to ranges");
        let in_block = |b: &WahVec| b.count_ones_in_ranges(&ranges);
        let held: Vec<u64> = idx.bins().map(in_block).collect();
        let (b0, b1) = ibis_bench::span_holding(&held, 0.4);
        let q = block.with_value(idx.binner().bin_range(b0).0, idx.binner().bin_range(b1).1);
        g.bench_function(regime.name, |bch| {
            bch.iter(|| black_box(q.count(black_box(idx), Some(&ranges))))
        });
    }
    g.finish();
}

/// CRC32-C, the checksum every store frame, record header and checkpoint
/// goes through: the dispatching entry point (the SSE4.2 `crc32`
/// instruction where the host has it) against the portable slicing-by-8
/// path, on buffers inside L1, inside L2 and beyond it.
fn bench_crc(c: &mut Criterion) {
    use ibis_insitu::crc::{crc32c, crc32c_sw};
    let mut rng = StdRng::seed_from_u64(14);
    let mut g = c.benchmark_group("crc32c");
    g.sample_size(10).measurement_time(Duration::from_secs(1));
    for (label, len) in [("4KiB", 4 << 10), ("256KiB", 256 << 10), ("4MiB", 4 << 20)] {
        let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        assert_eq!(
            crc32c(&buf),
            crc32c_sw(0, &buf),
            "both paths must agree before either is timed"
        );
        g.bench_with_input(BenchmarkId::new("dispatch", label), &buf, |bch, buf| {
            bch.iter(|| black_box(crc32c(black_box(buf))))
        });
        g.bench_with_input(BenchmarkId::new("software", label), &buf, |bch, buf| {
            bch.iter(|| black_box(crc32c_sw(0, black_box(buf))))
        });
    }
    g.finish();
}

/// `GrayBin`'s permutation build — one binning pass
/// and a counting sort — on a 1M-row field: noise, where the sort moves
/// every row, since a smooth field is nearly sorted already.
fn bench_roworder(c: &mut Criterion) {
    use ibis_core::RowOrder;
    let mut rng = StdRng::seed_from_u64(18);
    let data: Vec<f64> = (0..N).map(|_| rng.gen_range(-50.0..50.0)).collect();
    let binner = Binner::fixed_width(-51.0, 51.0, 100);
    let mut g = c.benchmark_group("roworder");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    let order = RowOrder::GrayBin;
    g.bench_with_input(
        BenchmarkId::new("perm", order.name()),
        &data,
        |bch, data| bch.iter(|| black_box(order.permutation(&[], &binner, black_box(data)))),
    );
    g.finish();
}

criterion_group!(
    benches,
    bench_crc,
    bench_roworder,
    bench_build,
    bench_ops,
    bench_metrics,
    bench_mining,
    bench_queries,
    bench_joint,
    bench_count
);

fn main() {
    kernel_sweep();
    if std::env::var("IBIS_SWEEP_ONLY").is_err() {
        benches();
    }
}
