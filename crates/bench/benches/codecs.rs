//! Cross-codec shootout (CBitmapCompetition-style): pattern × density ×
//! codec × kernel, persisted to `BENCH_codecs.json` at the repository
//! root. Compares WAH (adaptive kernels), the Roaring-style container
//! codec, the per-bin auto-selected [`CodecVec`], and the uncompressed
//! verbatim baseline on the reads a stored bin answers — the AND count,
//! the count over row ranges and the OR into a dense accumulator — with
//! bytes-per-bitmap for the compression side of the trade and every
//! timed operation asserted identical to the verbatim oracle before it
//! is measured. Materialised set operations run on WAH only; the kernel
//! sweep in `micro_kernels.rs` times them.
//!
//! `IBIS_CODEC_SMOKE=1` shrinks the element count and writes to
//! `target/BENCH_codecs.smoke.json` instead, so CI can schema-check the
//! report without paying for the full sweep.

use ibis_core::{Bitset, CodecId, CodecVec, DenseBits, WahVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Mean seconds per iteration (same calibration scheme as the kernel
/// sweep in `micro_kernels.rs`).
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

/// One timed point of the shootout.
struct Sample {
    pattern: &'static str,
    density: f64,
    codec: &'static str,
    kernel: &'static str,
    mean_s: f64,
}

/// Same pattern family as the kernel sweep: `sparse_runs` is the
/// fill-heavy regime WAH was designed for; the `*_random` patterns are
/// incompressible noise at increasing density.
fn pattern_bits(name: &str, density: f64, seed: u64, n: usize) -> Vec<bool> {
    match name {
        "sparse_runs" => {
            let offset = seed as usize * 155;
            (0..n)
                .map(|i| ((i + offset) / 310).is_multiple_of(300))
                .collect()
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(0xB17_5EED ^ seed);
            (0..n).map(|_| rng.gen_range(0.0..1.0) < density).collect()
        }
    }
}

/// The reads a stored bin answers, each timed on one operand pair.
const KERNELS: [&str; 3] = ["and_count", "count_in_ranges", "dense_or"];

/// Both operands ORed into one dense accumulator, each from the form it
/// is held in (what `BitmapIndex::or_bins` does for a heavy range).
fn dense_or(a: &CodecVec, b: &CodecVec) -> DenseBits {
    let mut acc = DenseBits::zeros(a.len());
    acc.or_stored(a);
    acc.or_stored(b);
    acc
}

/// One kernel on one operand pair, reduced to a count.
fn run_kernel(kernel: &str, a: &CodecVec, b: &CodecVec, ranges: &[Range<u64>]) -> u64 {
    match kernel {
        "and_count" => a.and_count(b),
        "count_in_ranges" => a.count_ones_in_ranges(ranges) + b.count_ones_in_ranges(ranges),
        _ => dense_or(a, b).count_ones(),
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::var("IBIS_CODEC_SMOKE").is_ok_and(|v| v == "1");
    let n: usize = if smoke { 1 << 16 } else { 1 << 20 };
    let patterns: [(&'static str, f64); 5] = [
        ("sparse_runs", 0.0033),
        ("sparse_random", 0.01),
        ("mid_random", 0.10),
        ("dense30_random", 0.30),
        ("dense50_random", 0.50),
    ];
    // 64 strided windows of n/256 rows: a region spread over the vector
    let ranges: Vec<Range<u64>> = (0..64u64)
        .map(|k| {
            let start = k * n as u64 / 64;
            start..start + n as u64 / 256
        })
        .collect();
    let mut samples: Vec<Sample> = Vec::new();
    let mut bytes_rows = String::new();
    let mut auto_rows = String::new();
    for (pi, (pattern, density)) in patterns.into_iter().enumerate() {
        let bits_a = pattern_bits(pattern, density, 1, n);
        let bits_b = pattern_bits(pattern, density, 2, n);
        let wa = WahVec::from_bits(bits_a.iter().copied());
        let wb = WahVec::from_bits(bits_b.iter().copied());
        let va = Bitset::from_bits(bits_a.iter().copied());
        let vb = Bitset::from_bits(bits_b.iter().copied());
        let codecs = [
            (
                "wah_adaptive",
                CodecVec::Wah(wa.clone()),
                CodecVec::Wah(wb.clone()),
            ),
            (
                "roaring",
                CodecVec::with_codec(&wa, CodecId::Roaring),
                CodecVec::with_codec(&wb, CodecId::Roaring),
            ),
            (
                "auto",
                CodecVec::from_wah_auto(&wa),
                CodecVec::from_wah_auto(&wb),
            ),
        ];

        // -- identity gate: every codec must agree with the verbatim
        // oracle on every kernel before anything is timed --
        let in_ranges = |bits: &[bool]| {
            let rows = ranges.iter().flat_map(|r| r.start as usize..r.end as usize);
            rows.filter(|&i| bits[i]).count() as u64
        };
        let pairs = || bits_a.iter().zip(&bits_b);
        let want_or = WahVec::from_bits(pairs().map(|(&x, &y)| x || y));
        let want = |kernel: &str| match kernel {
            "and_count" => pairs().filter(|&(&x, &y)| x && y).count() as u64,
            "count_in_ranges" => in_ranges(&bits_a) + in_ranges(&bits_b),
            _ => want_or.count_ones(),
        };
        for (codec, a, b) in &codecs {
            for k in KERNELS {
                let label = format!("{pattern}/{codec}/{k}");
                assert_eq!(run_kernel(k, a, b, &ranges), want(k), "{label}");
            }
            let or = dense_or(a, b).to_wah();
            or.check_canonical().expect(codec);
            assert_eq!(
                or.words(),
                want_or.words(),
                "{pattern}/{codec}/dense_or: words"
            );
        }
        println!("codecs: {pattern} identity checks passed");

        let mut push = |codec, kernel, mean_s| {
            println!(
                "codecs: {pattern}/{codec}/{kernel:<15} mean {:>10.3} us",
                mean_s * 1e6
            );
            samples.push(Sample {
                pattern,
                density,
                codec,
                kernel,
                mean_s,
            });
        };
        for (codec, a, b) in &codecs {
            for k in KERNELS {
                push(*codec, k, measure(|| run_kernel(k, a, b, &ranges)));
            }
        }
        push(
            "verbatim",
            "and_count",
            measure(|| {
                let mut x = va.clone();
                x.and_assign(&vb);
                x.count_ones()
            }),
        );

        let sep = if pi + 1 == patterns.len() { "" } else { "," };
        let [(_, wah, _), (_, roaring, _), (_, auto, _)] = &codecs;
        bytes_rows.push_str(&format!(
            "    \"{pattern}\": {{\"wah_adaptive\": {}, \"roaring\": {}, \
             \"auto\": {}, \"verbatim\": {}}}{sep}\n",
            wah.size_bytes(),
            roaring.size_bytes(),
            auto.size_bytes(),
            va.size_bytes(),
        ));
        auto_rows.push_str(&format!(
            "    \"{pattern}\": \"{}\"{sep}\n",
            auto.id().name()
        ));
    }
    write_json(&samples, &bytes_rows, &auto_rows, n, smoke);
}

fn time_of(samples: &[Sample], pattern: &str, codec: &str, kernel: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.pattern == pattern && s.codec == codec && s.kernel == kernel)
        .expect("sample present")
        .mean_s
}

fn write_json(samples: &[Sample], bytes_rows: &str, auto_rows: &str, n: usize, smoke: bool) {
    let patterns: Vec<&str> = {
        let mut seen = Vec::new();
        for s in samples {
            if !seen.contains(&s.pattern) {
                seen.push(s.pattern);
            }
        }
        seen
    };
    let mut out =
        format!("{{\n  \"bits\": {n},\n  \"identity_checked\": true,\n  \"samples\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pattern\": \"{}\", \"density\": {}, \"codec\": \"{}\", \
             \"kernel\": \"{}\", \"mean_s\": {:e}}}{}\n",
            s.pattern,
            s.density,
            s.codec,
            s.kernel,
            s.mean_s,
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"bytes_per_bitmap\": {\n");
    out.push_str(bytes_rows);
    out.push_str("  },\n  \"auto_selected\": {\n");
    out.push_str(auto_rows);

    out.push_str("  },\n  \"roaring_over_wah_speedup\": {\n");
    for (pi, p) in patterns.iter().enumerate() {
        out.push_str(&format!("    \"{p}\": {{"));
        for (ki, k) in KERNELS.iter().enumerate() {
            let sp = time_of(samples, p, "wah_adaptive", k) / time_of(samples, p, "roaring", k);
            println!("codecs: {p:<16} {k:<10} roaring/wah speedup {sp:.2}x");
            out.push_str(&format!(
                "\"{k}\": {sp:.3}{}",
                if ki + 1 == KERNELS.len() { "" } else { ", " }
            ));
        }
        out.push_str(&format!(
            "}}{}\n",
            if pi + 1 == patterns.len() { "" } else { "," }
        ));
    }

    // Per-kernel ratio of auto over the faster fixed codec (values near
    // 1.0 mean selection rides the winner; a single kernel can exceed it
    // when the other codec specializes in just that kernel).
    out.push_str("  },\n  \"auto_over_best_ratio\": {\n");
    for (pi, p) in patterns.iter().enumerate() {
        out.push_str(&format!("    \"{p}\": {{"));
        for (ki, k) in KERNELS.iter().enumerate() {
            let best =
                time_of(samples, p, "wah_adaptive", k).min(time_of(samples, p, "roaring", k));
            let ratio = time_of(samples, p, "auto", k) / best;
            out.push_str(&format!(
                "\"{k}\": {ratio:.3}{}",
                if ki + 1 == KERNELS.len() { "" } else { ", " }
            ));
        }
        out.push_str(&format!(
            "}}{}\n",
            if pi + 1 == patterns.len() { "" } else { "," }
        ));
    }

    // Per-bin auto-selection must ride the best fixed codec: a selection
    // is fixed before any particular kernel runs, so it is scored on the
    // pattern's total time across all the kernels — flag any pattern
    // where auto is >10% slower than the better of WAH and Roaring.
    out.push_str("  },\n  \"auto_within_10pct_of_best\": {\n");
    for (pi, p) in patterns.iter().enumerate() {
        let total =
            |codec: &str| -> f64 { KERNELS.iter().map(|k| time_of(samples, p, codec, k)).sum() };
        let best = total("wah_adaptive").min(total("roaring"));
        let ok = total("auto") <= best * 1.10;
        println!(
            "codecs: {p:<16} auto/best total ratio {:.3} (within 10%: {ok})",
            total("auto") / best
        );
        out.push_str(&format!(
            "    \"{p}\": {ok}{}\n",
            if pi + 1 == patterns.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");

    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_codecs.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codecs.json")
    };
    std::fs::write(path, out).expect("write BENCH_codecs report");
    println!("codecs: wrote {path}");
}
