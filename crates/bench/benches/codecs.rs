//! Cross-codec shootout (CBitmapCompetition-style): pattern × density ×
//! codec × kernel, persisted to `BENCH_codecs.json` at the repository
//! root. Compares WAH (adaptive kernels), the Roaring-style container
//! codec, the per-bin auto-selected [`CodecVec`], and the uncompressed
//! verbatim baseline — with
//! bytes-per-bitmap for the compression side of the trade and every
//! timed operation asserted identical to the verbatim oracle before it
//! is measured.
//!
//! `IBIS_CODEC_SMOKE=1` shrinks the element count and writes to
//! `target/BENCH_codecs.smoke.json` instead, so CI can schema-check the
//! report without paying for the full sweep.

use ibis_core::{Bitset, CodecVec, RoaringVec, WahVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
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

const KERNELS: [&str; 5] = ["and_count", "and", "or", "xor", "andnot"];

/// Asserts one materialized result equals the oracle bits — canonical
/// form first, then word-for-word against the oracle's own encoding (so
/// equality is byte-level, not merely population-level).
fn assert_identity(got: &WahVec, want: &[bool], label: &str) {
    got.check_canonical().expect(label);
    let want = WahVec::from_bits(want.iter().copied());
    assert_eq!(got.len(), want.len(), "{label}: length");
    assert_eq!(got.words(), want.words(), "{label}: words");
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
    let mut samples: Vec<Sample> = Vec::new();
    let mut bytes_rows = String::new();
    let mut auto_rows = String::new();
    for (pi, (pattern, density)) in patterns.into_iter().enumerate() {
        let bits_a = pattern_bits(pattern, density, 1, n);
        let bits_b = pattern_bits(pattern, density, 2, n);
        let wa = WahVec::from_bits(bits_a.iter().copied());
        let wb = WahVec::from_bits(bits_b.iter().copied());
        let ra = RoaringVec::from_wah(&wa);
        let rb = RoaringVec::from_wah(&wb);
        let va = Bitset::from_bits(bits_a.iter().copied());
        let vb = Bitset::from_bits(bits_b.iter().copied());
        let aa = CodecVec::from_wah_auto(&wa);
        let ab = CodecVec::from_wah_auto(&wb);

        // -- identity gate: every codec must agree with the verbatim
        // oracle on every kernel before anything is timed --
        let want: Vec<(&str, Vec<bool>)> = vec![
            (
                "and",
                bits_a.iter().zip(&bits_b).map(|(&x, &y)| x && y).collect(),
            ),
            (
                "or",
                bits_a.iter().zip(&bits_b).map(|(&x, &y)| x || y).collect(),
            ),
            (
                "xor",
                bits_a.iter().zip(&bits_b).map(|(&x, &y)| x != y).collect(),
            ),
            (
                "andnot",
                bits_a.iter().zip(&bits_b).map(|(&x, &y)| x && !y).collect(),
            ),
        ];
        let count_of = |k: &str| {
            want.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, bits)| bits.iter().filter(|&&x| x).count() as u64)
                .expect("kernel oracle")
        };
        for (k, bits) in &want {
            assert_identity(
                &match *k {
                    "and" => wa.and(&wb),
                    "or" => wa.or(&wb),
                    "xor" => wa.xor(&wb),
                    _ => wa.andnot(&wb),
                },
                bits,
                &format!("{pattern}/wah/{k}"),
            );
            assert_identity(
                &match *k {
                    "and" => ra.and(&rb).to_wah(),
                    "or" => ra.or(&rb).to_wah(),
                    "xor" => ra.xor(&rb).to_wah(),
                    _ => ra.andnot(&rb).to_wah(),
                },
                bits,
                &format!("{pattern}/roaring/{k}"),
            );
            assert_identity(
                &match *k {
                    "and" => aa.and(&ab).to_wah(),
                    "or" => aa.or(&ab).to_wah(),
                    "xor" => aa.xor(&ab).to_wah(),
                    _ => aa.andnot(&ab).to_wah(),
                },
                bits,
                &format!("{pattern}/auto/{k}"),
            );
        }
        for (codec, and_n) in [
            ("wah", wa.and_count(&wb)),
            ("roaring", ra.and_count(&rb)),
            ("auto", aa.and_count(&ab)),
        ] {
            assert_eq!(and_n, count_of("and"), "{pattern}/{codec}/and_count");
        }
        println!("codecs: {pattern} identity checks passed");

        let mut push = |codec, kernel, mean_s| {
            println!(
                "codecs: {pattern}/{codec}/{kernel:<10} mean {:>10.3} us",
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
        push("wah_adaptive", "and_count", measure(|| wa.and_count(&wb)));
        push("wah_adaptive", "and", measure(|| wa.and(&wb)));
        push("wah_adaptive", "or", measure(|| wa.or(&wb)));
        push("wah_adaptive", "xor", measure(|| wa.xor(&wb)));
        push("wah_adaptive", "andnot", measure(|| wa.andnot(&wb)));

        push("roaring", "and_count", measure(|| ra.and_count(&rb)));
        push("roaring", "and", measure(|| ra.and(&rb)));
        push("roaring", "or", measure(|| ra.or(&rb)));
        push("roaring", "xor", measure(|| ra.xor(&rb)));
        push("roaring", "andnot", measure(|| ra.andnot(&rb)));

        push("auto", "and_count", measure(|| aa.and_count(&ab)));
        push("auto", "and", measure(|| aa.and(&ab)));
        push("auto", "or", measure(|| aa.or(&ab)));
        push("auto", "xor", measure(|| aa.xor(&ab)));
        push("auto", "andnot", measure(|| aa.andnot(&ab)));

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
        bytes_rows.push_str(&format!(
            "    \"{pattern}\": {{\"wah_adaptive\": {}, \"roaring\": {}, \
             \"auto\": {}, \"verbatim\": {}}}{sep}\n",
            wa.size_bytes(),
            ra.size_bytes(),
            aa.size_bytes(),
            va.size_bytes(),
        ));
        auto_rows.push_str(&format!("    \"{pattern}\": \"{}\"{sep}\n", aa.id().name()));
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
    // pattern's total time across all five kernels — flag any pattern
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
