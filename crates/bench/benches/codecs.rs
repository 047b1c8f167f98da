//! The codec grid: WAH against Roaring on bitmaps drawn from a two-state
//! Markov process, over its clustering f (the mean length of a run of
//! ones) × its density d — the shape of Chambi et al.'s Roaring-vs-WAH
//! evaluation and of CBitmapCompetition. Per cell it reports each codec's
//! at-rest bytes, the codec `select_codec` picks, and the time of every
//! read a stored bin answers, in each codec: the AND count, the count over
//! row ranges, the OR into a dense accumulator, the label walk (the joint
//! table of two two-bin indexes {x, ¬x}) and `BitmapIndex::slice_rows` (a
//! shard's cut). Every one of them is asserted equal to the verbatim
//! oracle before it is timed. WAH's materialised AND and OR and the
//! verbatim AND count are timed beside them as baselines; Roaring has no
//! materialised set operations. Written to `BENCH_codecs.json`.
//!
//!     cargo bench -p ibis-bench --bench codecs
//!
//! `IBIS_BENCH_SMOKE=1` shrinks the bitmaps to 2^16 bits and writes
//! `target/BENCH_codecs.smoke.json` instead.

use ibis_analysis::joint_counts;
use ibis_bench::{measure, smoke, write_report, Mix64};
use ibis_core::{select_codec, Binner, BitmapIndex, Bitset, CodecId, CodecVec, DenseBits, WahVec};
use std::ops::Range;

/// Mean 1-run lengths of the grid.
const CLUSTERING: [f64; 4] = [1.0, 8.0, 64.0, 512.0];
/// Densities of the grid.
const DENSITY: [f64; 4] = [0.001, 0.01, 0.1, 0.5];
const CODECS: [CodecId; 2] = [CodecId::Wah, CodecId::Roaring];
/// The reads a stored bin answers, each timed in both codecs.
const KERNELS: [&str; 5] = [
    "and_count",
    "count_in_ranges",
    "dense_or",
    "label_walk",
    "slice_rows",
];

/// `n` bits of a two-state Markov chain whose runs of ones have mean
/// length `f` (a one stays one with probability 1 − 1/f) and whose
/// stationary density is `d` (a zero turns one with d / (f (1 − d))).
fn markov_bits(n: usize, f: f64, d: f64, rng: &mut Mix64) -> Vec<bool> {
    let (stay_one, turn_one) = (1.0 - 1.0 / f, d / (f * (1.0 - d)));
    assert!(turn_one <= 1.0, "f={f} is too short a run for d={d}");
    let mut on = rng.unit() < d;
    (0..n)
        .map(|_| {
            let bit = on;
            on = rng.unit() < if on { stay_one } else { turn_one };
            bit
        })
        .collect()
}

/// One operand in one codec: the two-bin index {x, ¬x}, both bins held
/// in `codec`. Bin 0 is the bitmap the single-bin kernels read; the label
/// walk and the shard cut read the index.
fn operand(bits: &[bool], codec: CodecId) -> BitmapIndex {
    let wah = WahVec::from_bits(bits.iter().copied());
    let bins = vec![
        CodecVec::with_codec(&wah, codec),
        CodecVec::with_codec(&wah.not(), codec),
    ];
    BitmapIndex::from_codec_bins(Binner::fixed_width(0.0, 2.0, 2), bins)
}

/// Both operands ORed into one dense accumulator, each from the form it
/// is held in (what `BitmapIndex::or_bins` does for a heavy range).
fn dense_or(a: &CodecVec, b: &CodecVec) -> DenseBits {
    let mut acc = DenseBits::zeros(a.len());
    acc.or_stored(a);
    acc.or_stored(b);
    acc
}

/// One kernel on one operand pair, reduced to numbers the oracle gives.
fn run_kernel(
    kernel: &str,
    a: &BitmapIndex,
    b: &BitmapIndex,
    ranges: &[Range<u64>],
    cut: &Range<u64>,
) -> Vec<u64> {
    match kernel {
        "and_count" => vec![a.stored_bin(0).and_count(b.stored_bin(0))],
        "count_in_ranges" => vec![
            a.stored_bin(0).count_ones_in_ranges(ranges),
            b.stored_bin(0).count_ones_in_ranges(ranges),
        ],
        "dense_or" => vec![dense_or(a.stored_bin(0), b.stored_bin(0)).count_ones()],
        "label_walk" => joint_counts(a, b),
        _ => {
            let slice = a.slice_rows(cut.clone());
            vec![slice.len(), slice.counts()[0], slice.counts()[1]]
        }
    }
}

/// What each kernel must answer, counted from the raw bits.
fn oracle(
    kernel: &str,
    a: &[bool],
    b: &[bool],
    ranges: &[Range<u64>],
    cut: &Range<u64>,
) -> Vec<u64> {
    let count = |it: &mut dyn Iterator<Item = bool>| it.filter(|&x| x).count() as u64;
    let pairs = || a.iter().zip(b);
    let in_ranges = |bits: &[bool]| {
        let rows = ranges.iter().flat_map(|r| r.start as usize..r.end as usize);
        count(&mut rows.map(|i| bits[i]))
    };
    match kernel {
        "and_count" => vec![count(&mut pairs().map(|(&x, &y)| x && y))],
        "count_in_ranges" => vec![in_ranges(a), in_ranges(b)],
        "dense_or" => vec![count(&mut pairs().map(|(&x, &y)| x || y))],
        "label_walk" => [(true, true), (true, false), (false, true), (false, false)]
            .iter()
            .map(|&(p, q)| count(&mut pairs().map(|(&x, &y)| x == p && y == q)))
            .collect(),
        _ => {
            let ones = count(&mut a[cut.start as usize..cut.end as usize].iter().copied());
            let rows = cut.end - cut.start;
            vec![rows, ones, rows - ones]
        }
    }
}

/// A bin's at-rest bytes: WAH's words, Roaring's serialized containers.
fn at_rest_bytes(bin: &CodecVec) -> usize {
    match bin {
        CodecVec::Wah(v) => 4 * v.words().len(),
        CodecVec::Roaring(v) => v.serialized_bytes(),
    }
}

fn main() {
    let n: usize = if smoke() { 1 << 16 } else { 1 << 20 };
    // 64 strided windows of n/256 rows: a region spread over the vector
    let ranges: Vec<Range<u64>> = (0..64u64)
        .map(|k| k * n as u64 / 64..k * n as u64 / 64 + n as u64 / 256)
        .collect();
    // the middle half: shard 1 of a cut in four, joined with shard 2
    let cut = n as u64 / 4..3 * n as u64 / 4;
    let mut rng = Mix64(0xB17_5EED);
    let mut cells = Vec::new();
    let (mut picked_smaller, mut picked_faster) = (0, 0);
    for f in CLUSTERING {
        for d in DENSITY {
            let bits_a = markov_bits(n, f, d, &mut rng);
            let bits_b = markov_bits(n, f, d, &mut rng);
            let operands: Vec<(BitmapIndex, BitmapIndex)> = CODECS
                .iter()
                .map(|&c| (operand(&bits_a, c), operand(&bits_b, c)))
                .collect();
            for ((a, b), codec) in operands.iter().zip(CODECS) {
                let label = |k: &str| format!("f={f} d={d} {}/{k}", codec.name());
                for k in KERNELS {
                    let want = oracle(k, &bits_a, &bits_b, &ranges, &cut);
                    assert_eq!(run_kernel(k, a, b, &ranges, &cut), want, "{}", label(k));
                }
                // the shard's cut holds the very rows, not just as many
                let part = &bits_a[cut.start as usize..cut.end as usize];
                let want = WahVec::from_bits(part.iter().copied());
                let slice = a.slice_rows(cut.clone());
                assert_eq!(slice.bin(0), &want, "{}", label("slice_rows"));
                assert_eq!(slice.bin(1), &want.not(), "{}", label("slice_rows"));
            }
            let mut times = Vec::new();
            for (a, b) in &operands {
                let t: Vec<f64> = (KERNELS.iter())
                    .map(|k| measure(|| run_kernel(k, a, b, &ranges, &cut)))
                    .collect();
                times.push(t);
            }
            let (wa, wb) = (
                WahVec::from_bits(bits_a.iter().copied()),
                WahVec::from_bits(bits_b.iter().copied()),
            );
            let (va, vb) = (
                Bitset::from_bits(bits_a.iter().copied()),
                Bitset::from_bits(bits_b.iter().copied()),
            );
            let both = |op: fn(bool, bool) -> bool| {
                WahVec::from_bits(bits_a.iter().zip(&bits_b).map(|(&x, &y)| op(x, y)))
            };
            assert_eq!(wa.and(&wb), both(|x, y| x && y), "f={f} d={d} wah/and");
            assert_eq!(wa.or(&wb), both(|x, y| x || y), "f={f} d={d} wah/or");
            let wah_and = measure(|| wa.and(&wb));
            let wah_or = measure(|| wa.or(&wb));
            let verbatim = measure(|| {
                let mut x = va.clone();
                x.and_assign(&vb);
                x.count_ones()
            });

            let bytes: Vec<usize> = operands
                .iter()
                .map(|(a, _)| at_rest_bytes(a.stored_bin(0)))
                .collect();
            let pick = select_codec(wa.stats(), wa.len());
            let name = |i: usize| CODECS[i].name();
            let smaller = name(usize::from(bytes[1] < bytes[0]));
            let faster_at = |ta: f64, tb: f64| name(usize::from(tb < ta));
            let total = |t: &[f64]| t.iter().sum::<f64>();
            let faster = faster_at(total(&times[0]), total(&times[1]));
            picked_smaller += usize::from(pick.name() == smaller);
            picked_faster += usize::from(pick.name() == faster);
            let density = bits_a.iter().filter(|&&x| x).count() as f64 / n as f64;
            println!(
                "codecs: f={f:<4} d={d:<6} wah {:>8} B  roaring {:>8} B  picks {:<7} smaller {smaller:<7} faster {faster}",
                bytes[0],
                bytes[1],
                pick.name()
            );
            let per_kernel = |t: &[f64]| {
                let kv = KERNELS
                    .iter()
                    .zip(t)
                    .map(|(k, s)| format!("\"{k}\": {s:e}"));
                format!("{{{}}}", kv.collect::<Vec<_>>().join(", "))
            };
            let winners = (KERNELS.iter().enumerate())
                .map(|(i, k)| format!("\"{k}\": \"{}\"", faster_at(times[0][i], times[1][i])));
            cells.push(format!(
                "    {{\"f\": {f}, \"d\": {d}, \"density\": {density:.5}, \
                 \"bytes\": {{\"wah\": {}, \"roaring\": {}, \"verbatim\": {}}}, \
                 \"select_codec\": \"{}\", \"smaller\": \"{smaller}\", \
                 \"faster\": {{{}, \"total\": \"{faster}\"}}, \
                 \"wah_s\": {}, \"roaring_s\": {}, \
                 \"wah_and_s\": {wah_and:e}, \"wah_or_s\": {wah_or:e}, \"verbatim_and_count_s\": {verbatim:e}}}",
                bytes[0],
                bytes[1],
                va.size_bytes(),
                pick.name(),
                winners.collect::<Vec<_>>().join(", "),
                per_kernel(&times[0]),
                per_kernel(&times[1]),
            ));
        }
    }
    let ncells = cells.len();
    println!(
        "codecs: select_codec picks the smaller codec in {picked_smaller}/{ncells} cells, \
         the faster in {picked_faster}/{ncells}"
    );
    let json = format!(
        "{{\n  \"bits\": {n},\n  \"identity_checked\": true,\n  \
         \"clustering_f\": {CLUSTERING:?},\n  \"density_d\": {DENSITY:?},\n  \
         \"kernels\": {KERNELS:?},\n  \
         \"select_codec_smaller\": {picked_smaller},\n  \"select_codec_faster\": {picked_faster},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    write_report("codecs", &json);
}
