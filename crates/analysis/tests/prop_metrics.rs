//! Property-based tests for the analysis layer: information-theoretic
//! invariants, metric laws, and — above all — bit-exact agreement of every
//! metric, from full data and from bitmaps, with a per-row scan of the raw
//! arrays by the reference model (`ibis_testkit`; the paper's central
//! claim, tested adversarially rather than on hand-picked data). Both
//! kinds of summary share one finisher per metric, so each is checked
//! against the scan, not against the other.

use ibis_analysis::aggregate::pearson_from_joint_counts;
use ibis_analysis::emd::{emd_from_counts, emd_spatial_from_diffs};
use ibis_analysis::entropy::{
    conditional_entropy_from_counts, mutual_information_from_counts, shannon_entropy_from_counts,
};
use ibis_analysis::histogram::{histogram, joint_histogram};
use ibis_analysis::mining::{indicator_mi, joint_pair_score};
use ibis_analysis::selection::{select_greedy, Partitioning};
use ibis_analysis::{
    correlation_query, finish_correlation, joint_counts_and_table, mine_full, mine_index,
    mine_multilevel, CorrelationPartial, Metric, MinedSubset, MiningConfig, MiningResult,
    QueryError, StepSummary, SubsetQuery, VarSummary,
};
use ibis_core::{Binner, BitmapIndex, CodecVec, MultiLevelIndex, RoaringVec, WahVec};
use ibis_testkit::{before_fusing, Column};
use proptest::prelude::*;

/// Arbitrary data in a fixed range plus a binner over that range.
fn data_and_binner() -> impl Strategy<Value = (Vec<f64>, Binner)> {
    (
        proptest::collection::vec(-50.0f64..50.0, 1..400),
        1usize..24,
    )
        .prop_map(|(data, nbins)| (data, Binner::fixed_width(-50.0, 50.0, nbins)))
}

fn two_arrays() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Binner)> {
    (1usize..300, 1usize..20).prop_flat_map(|(n, nbins)| {
        (
            proptest::collection::vec(-50.0f64..50.0, n),
            proptest::collection::vec(-50.0f64..50.0, n),
            Just(Binner::fixed_width(-50.0, 50.0, nbins)),
        )
    })
}

/// Joint tables of the shapes the finishers meet: all-zero, one cell, a
/// single row or column (a constant variable), sparse rectangular ones
/// with all-zero rows and columns, a diagonal-heavy 103 × 103 (Heat3D
/// against itself) and a dense 64 × 64 (the ocean fields).
fn joint_table() -> impl Strategy<Value = (usize, usize, Vec<u64>)> {
    let mix = |i: usize, seed: u64| (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    let sparse =
        (1usize..40, 1usize..40, any::<u64>(), 1u64..12).prop_map(move |(na, nb, seed, gap)| {
            let cell = |i| {
                if mix(i, seed) % gap == 0 {
                    mix(i, !seed) % 5000
                } else {
                    0
                }
            };
            // every third row and fifth column left empty
            let keep = |i: usize| (i / nb) % 3 != 1 && (i % nb) % 5 != 2;
            (
                na,
                nb,
                (0..na * nb)
                    .map(|i| if keep(i) { cell(i) } else { 0 })
                    .collect(),
            )
        });
    let one_cell =
        (1usize..30, 1usize..30, any::<u64>(), 1u64..9000).prop_map(|(na, nb, at, c)| {
            let mut joint = vec![0; na * nb];
            joint[at as usize % (na * nb)] = c;
            (na, nb, joint)
        });
    let constant = (1usize..50, any::<bool>(), any::<u64>()).prop_map(move |(n, row, seed)| {
        let cells = (0..n).map(|i| mix(i, seed) % 300).collect();
        if row {
            (1, n, cells)
        } else {
            (n, 1, cells)
        }
    });
    let diagonal = any::<u64>().prop_map(move |seed| {
        let cell = |i: usize| match (i / 103).abs_diff(i % 103) {
            0 => 2000 + mix(i, seed) % 9000,
            1 | 2 => mix(i, seed) % 700,
            _ => u64::from(mix(i, seed) % 97 == 0),
        };
        (103, 103, (0..103 * 103).map(cell).collect())
    });
    let dense = any::<u64>().prop_map(move |seed| {
        (
            64,
            64,
            (0..64 * 64).map(|i| 1 + mix(i, seed) % 60).collect(),
        )
    });
    prop_oneof![
        (0usize..12, 0usize..12).prop_map(|(na, nb)| (na, nb, vec![0; na * nb])),
        one_cell,
        constant,
        sparse,
        diagonal,
        dense,
    ]
}

/// Two equal-length arrays under two binners of one lattice: the same
/// bin width, `b`'s range starting whole bins away from `a`'s and holding
/// its own number of bins (the paper's per-step binning).
fn two_arrays_aligned() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Binner, Binner)> {
    (two_arrays(), -6i64..6, 1usize..20).prop_map(|((a, b, ba), shift, nbins_b)| {
        let width = 100.0 / ba.nbins() as f64;
        let lo = -50.0 + shift as f64 * width;
        let bb = Binner::fixed_width(lo, lo + nbins_b as f64 * width, nbins_b);
        (a, b, ba, bb)
    })
}

const METRICS: [Metric; 3] = [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial];

/// `a` and `b` summarised both ways: full data, then bitmaps.
fn summaries(a: &[f64], b: &[f64], ba: &Binner, bb: &Binner) -> [(VarSummary, VarSummary); 2] {
    [
        (
            VarSummary::full(a.to_vec(), ba.clone()),
            VarSummary::full(b.to_vec(), bb.clone()),
        ),
        (
            VarSummary::bitmap(a, ba.clone()),
            VarSummary::bitmap(b, bb.clone()),
        ),
    ]
}

/// `metric` from `a` to `b` by the model's row scan.
fn scanned(metric: Metric, a: &[f64], b: &[f64], ba: &Binner, bb: &Binner) -> f64 {
    Column::new(a, ba.clone()).metric(&Column::new(b, bb.clone()), metric)
}

proptest! {
    /// The fused finisher — one scan of the table, then MI, H(A|B) and
    /// Pearson over its non-zero cells — gives the floats the three
    /// separate finishers gave, bit for bit; so do the functions that kept
    /// their names and now call it.
    #[test]
    fn fused_finisher_is_bit_identical_to_the_separate_finishers(
        (na, nb, joint) in joint_table(),
        (lo_a, lo_b) in (-80.0f64..40.0, -3.0f64..3.0),
    ) {
        let binner_a = Binner::fixed_width(lo_a, lo_a + 50.0, na.max(1));
        let binner_b = Binner::fixed_width(lo_b, lo_b + 0.5, nb.max(1));
        // a 0-bin side cannot come from a binner: the functions alone
        if na == 0 || nb == 0 {
            prop_assert_eq!(mutual_information_from_counts(&joint, na, nb).to_bits(), 0f64.to_bits());
            prop_assert_eq!(conditional_entropy_from_counts(&joint, na, nb).to_bits(), 0f64.to_bits());
            return Ok(());
        }
        let p = CorrelationPartial {
            selected: joint.iter().sum(),
            counts_a: before_fusing::marginal_a(&joint, na, nb),
            counts_b: before_fusing::marginal_b(&joint, na, nb),
            joint,
            diagonal: Vec::new(),
        };
        let want_mi = before_fusing::mutual_information_from_counts(&p.joint, na, nb);
        let want_ce = before_fusing::conditional_entropy_from_counts(&p.joint, na, nb);
        let want_r = before_fusing::pearson_from_joint_counts(&binner_a, &binner_b, &p.joint, p.selected);
        let got = finish_correlation(&binner_a, &binner_b, &p);
        prop_assert_eq!(got.mutual_information.to_bits(), want_mi.to_bits());
        prop_assert_eq!(got.conditional_entropy.to_bits(), want_ce.to_bits());
        prop_assert_eq!(got.pearson.map(f64::to_bits), want_r.map(f64::to_bits));
        prop_assert_eq!(mutual_information_from_counts(&p.joint, na, nb).to_bits(), want_mi.to_bits());
        prop_assert_eq!(conditional_entropy_from_counts(&p.joint, na, nb).to_bits(), want_ce.to_bits());
        let r = pearson_from_joint_counts(&binner_a, &binner_b, &p.joint, p.selected);
        prop_assert_eq!(r.map(f64::to_bits), want_r.map(f64::to_bits));
        if p.selected == 0 {
            prop_assert_eq!((got.mutual_information.to_bits(), got.conditional_entropy.to_bits()), (0, 0));
            prop_assert_eq!(got.pearson, None);
        }
        // a constant variable has no correlation (under integer midpoints,
        // where its variance is exactly zero and not a rounding residue)
        let varies = |counts: &[u64]| counts.iter().filter(|&&c| c != 0).count() > 1;
        if !(varies(&p.counts_a) && varies(&p.counts_b)) {
            let odd = |n: usize| Binner::fixed_width(0.0, 2.0 * n as f64, n);
            prop_assert_eq!(finish_correlation(&odd(na), &odd(nb), &p).pearson, None);
        }
    }
}

proptest! {
    #[test]
    fn entropy_bitmap_exact((data, binner) in data_and_binner()) {
        let want = shannon_entropy_from_counts(&Column::new(&data, binner.clone()).counts());
        for s in [VarSummary::full(data.clone(), binner.clone()), VarSummary::bitmap(&data, binner)] {
            prop_assert_eq!(s.entropy().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn entropy_bounds((data, binner) in data_and_binner()) {
        let h = VarSummary::full(data, binner.clone()).entropy();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (binner.nbins() as f64).log2() + 1e-9, "H exceeds log2(bins)");
    }

    #[test]
    fn mi_and_ce_bitmap_exact((a, b, binner) in two_arrays()) {
        let n = binner.nbins();
        let joint = Column::new(&a, binner.clone()).joint(&Column::new(&b, binner.clone()));
        let want_mi = before_fusing::mutual_information_from_counts(&joint, n, n);
        let want_ce = scanned(Metric::ConditionalEntropy, &a, &b, &binner, &binner);
        let all = SubsetQuery::all();
        let (ia, ib) = (BitmapIndex::build(&a, binner.clone()), BitmapIndex::build(&b, binner.clone()));
        let got = correlation_query(&ia, &ib, &all, &all).unwrap();
        prop_assert_eq!(got.mutual_information.to_bits(), want_mi.to_bits());
        prop_assert_eq!(got.conditional_entropy.to_bits(), want_ce.to_bits());
        for (sa, sb) in summaries(&a, &b, &binner, &binner) {
            prop_assert_eq!(sa.metric(&sb, Metric::ConditionalEntropy).to_bits(), want_ce.to_bits());
        }
    }

    #[test]
    fn mi_bounded_by_entropies((a, b, binner) in two_arrays()) {
        let n = binner.nbins();
        let mi = mutual_information_from_counts(&joint_histogram(&a, &b, &binner, &binner), n, n);
        let ha = VarSummary::full(a, binner.clone()).entropy();
        let hb = VarSummary::full(b, binner).entropy();
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= ha.min(hb) + 1e-9, "MI {mi} exceeds min(H)={}", ha.min(hb));
    }

    #[test]
    fn ce_bounds((a, b, binner) in two_arrays()) {
        let [(fa, fb), _] = summaries(&a, &b, &binner, &binner);
        let ce = fa.metric(&fb, Metric::ConditionalEntropy);
        prop_assert!(ce >= -1e-9 && ce <= fa.entropy() + 1e-9);
    }

    #[test]
    fn emd_bitmap_exact((a, b, binner) in two_arrays()) {
        for (sa, sb) in summaries(&a, &b, &binner, &binner) {
            for metric in [Metric::Emd, Metric::EmdSpatial] {
                let want = scanned(metric, &a, &b, &binner, &binner);
                prop_assert_eq!(sa.metric(&sb, metric).to_bits(), want.to_bits(), "{:?}", metric);
            }
        }
    }

    /// Every step metric, from full data and from bitmaps, under binners
    /// of one lattice that cover different ranges, equals the row scan.
    #[test]
    fn every_step_metric_equals_a_row_scan((a, b, ba, bb) in two_arrays_aligned()) {
        for (sa, sb) in summaries(&a, &b, &ba, &bb) {
            for metric in METRICS {
                let want = scanned(metric, &a, &b, &ba, &bb);
                prop_assert_eq!(sa.metric(&sb, metric).to_bits(), want.to_bits(), "{:?}", metric);
            }
        }
    }

    /// Partials counted under different binnings do not merge: a typed
    /// error, and nothing is summed.
    #[test]
    fn merging_partials_of_different_shapes_is_a_binning_mismatch(
        data in proptest::collection::vec(-50.0f64..50.0, 1..200),
        (n1, n2) in (1usize..30, 1usize..30),
    ) {
        prop_assume!(n1 != n2);
        let summary = |nbins| VarSummary::bitmap(&data, Binner::fixed_width(-50.0, 50.0, nbins));
        let (s1, s2) = (summary(n1), summary(n2));
        for metric in METRICS {
            let mut p = s1.partial(&s1, metric);
            let before = p.clone();
            let merged = p.merge(&s2.partial(&s2, metric));
            prop_assert!(matches!(merged, Err(QueryError::BinningMismatch(_, _))), "{:?}", metric);
            prop_assert_eq!(&p, &before);
        }
        // a partial of another metric holds other fields
        let mut ce = s1.partial(&s1, Metric::ConditionalEntropy);
        let other = ce.merge(&s1.partial(&s1, Metric::EmdSpatial));
        prop_assert!(matches!(other, Err(QueryError::BinningMismatch(_, _))));
    }

    #[test]
    fn emd_is_a_metric_on_histograms(
        ha in proptest::collection::vec(0u64..50, 8),
        hb in proptest::collection::vec(0u64..50, 8),
        hc in proptest::collection::vec(0u64..50, 8),
    ) {
        // identity, symmetry, triangle inequality (for equal-mass inputs the
        // cumulative form is the true 1-D EMD; with unequal mass it is still
        // a valid metric on count vectors)
        prop_assert_eq!(emd_from_counts(&ha, &ha), 0.0);
        prop_assert_eq!(emd_from_counts(&ha, &hb), emd_from_counts(&hb, &ha));
        let ab = emd_from_counts(&ha, &hb);
        let bc = emd_from_counts(&hb, &hc);
        let ac = emd_from_counts(&ha, &hc);
        prop_assert!(ac <= ab + bc + 1e-9, "triangle violated: {ac} > {ab} + {bc}");
    }

    #[test]
    fn emd_zero_iff_same_histogram((a, b, binner) in two_arrays()) {
        let same = histogram(&a, &binner) == histogram(&b, &binner);
        let [(fa, fb), _] = summaries(&a, &b, &binner, &binner);
        prop_assert_eq!(fa.metric(&fb, Metric::Emd) == 0.0, same);
    }

    #[test]
    fn indicator_mi_symmetry(n in 1u64..200, ca in 0u64..200, cb in 0u64..200, cab in 0u64..200) {
        let ca = ca.min(n);
        let cb = cb.min(n);
        let cab = cab.min(ca).min(cb).max((ca + cb).saturating_sub(n));
        prop_assert_eq!(indicator_mi(n, ca, cb, cab), indicator_mi(n, cb, ca, cab));
    }

    #[test]
    fn selection_bitmap_equals_full(
        seeds in proptest::collection::vec(0.0f64..6.0, 4..12),
        k_frac in 0.2f64..0.9,
    ) {
        // synthesize one step per seed (deterministic smooth fields)
        let binner = Binner::fixed_width(-1.1, 1.1, 12);
        let make = |bitmap: bool| -> Vec<StepSummary> {
            seeds.iter().enumerate().map(|(i, &ph)| {
                let data: Vec<f64> =
                    (0..400).map(|j| ((j as f64) * 0.021 + ph).sin()).collect();
                let var = if bitmap {
                    VarSummary::bitmap(&data, binner.clone())
                } else {
                    VarSummary::full(data, binner.clone())
                };
                StepSummary { step: i, vars: vec![var] }
            }).collect()
        };
        let n = seeds.len();
        let k = ((n as f64 * k_frac) as usize).clamp(1, n);
        let full = make(false);
        let bm = make(true);
        for metric in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
            let a = select_greedy(&full, k, metric, Partitioning::FixedLength);
            let b = select_greedy(&bm, k, metric, Partitioning::FixedLength);
            prop_assert_eq!(a, b, "{:?}", metric);
        }
    }

    #[test]
    fn mining_bitmap_equals_full((a, b, binner) in two_arrays(), unit in 8u64..64) {
        let cfg = MiningConfig {
            value_threshold: 0.01,
            spatial_threshold: 0.05,
            unit_size: unit,
        };
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        let rb = mine_index(&ia, &ib, &cfg);
        let rf = mine_full(&a, &b, &binner, &binner, &cfg);
        prop_assert_eq!(rb.subsets, rf.subsets);
        prop_assert_eq!(rb.pairs_pruned, rf.pairs_pruned);
        prop_assert_eq!(rb.units_evaluated, rf.units_evaluated);
    }
}

/// Two equal-length steps long enough to cross a Roaring container edge
/// (a random prefix tiled up to ~90k rows, so dense bins fill bitset
/// containers; the first step's prefix sometimes sorted, so its bins form
/// runs), plus a codec mask.
fn two_long_steps() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, u64)> {
    (1usize..300, 1usize..300).prop_flat_map(|(n, tiles)| {
        let tiled = move |v: Vec<f64>| v.iter().copied().cycle().take(n * tiles).collect();
        let sorted = |(mut v, sort): (Vec<f64>, bool)| {
            if sort {
                v.sort_by(f64::total_cmp);
            }
            v
        };
        (
            (proptest::collection::vec(-5.0f64..5.0, n), any::<bool>())
                .prop_map(move |p| tiled(sorted(p))),
            (proptest::collection::vec(-5.0f64..5.0, n), -3.0f64..3.0)
                .prop_map(move |(v, shift)| tiled(v.iter().map(|x| x + shift).collect())),
            any::<u64>(),
        )
    })
}

/// `idx` with each bin held as WAH or Roaring by bit `j % 64` of `mask`,
/// checked to count what it stores (the spatial identity reads `counts()`
/// in place of each bin's popcount).
fn codec_mix(idx: &BitmapIndex, mask: u64) -> BitmapIndex {
    let bins = (0..idx.nbins())
        .map(|j| match mask >> (j % 64) & 1 {
            1 => CodecVec::Roaring(RoaringVec::from_wah(idx.bin(j))),
            _ => CodecVec::Wah(idx.bin(j).clone()),
        })
        .collect();
    let mixed = BitmapIndex::from_codec_bins(idx.binner().clone(), bins);
    for j in 0..mixed.nbins() {
        assert_eq!(
            mixed.counts()[j],
            mixed.stored_bin(j).count_ones(),
            "bin {j}"
        );
    }
    mixed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spatial EMD over any mix of stored codecs equals the row scan,
    /// under a shared binner and under per-step anchored binners.
    #[test]
    fn spatial_emd_is_exact_over_every_codec_mix((a, b, mask) in two_long_steps()) {
        let shared = Binner::fixed_width(-8.0, 8.0, 8);
        let per_step = (Binner::fit_precision_anchored(&a, 1), Binner::fit_precision_anchored(&b, 1));
        for (ba, bb) in [(shared.clone(), shared), per_step] {
            let want = scanned(Metric::EmdSpatial, &a, &b, &ba, &bb);
            let ia = codec_mix(&BitmapIndex::build(&a, ba.clone()), mask);
            let ib = codec_mix(&BitmapIndex::build(&b, bb.clone()), mask.rotate_left(7));
            let got = VarSummary::Bitmap(ia).metric(&VarSummary::Bitmap(ib), Metric::EmdSpatial);
            prop_assert_eq!(got.to_bits(), want.to_bits());
            let full = VarSummary::full(a.clone(), ba).metric(&VarSummary::full(b.clone(), bb), Metric::EmdSpatial);
            prop_assert_eq!(full.to_bits(), want.to_bits());
        }
    }

    /// Lossy supersets (overlapping bins) have no full-data oracle; their
    /// spatial EMD equals the CFP sum of per-bin XORs of the decoded bits.
    /// (`|A| + |B| − 2·|A ∧ B|` needs no partition.)
    #[test]
    fn spatial_emd_of_lossy_supersets_is_the_xor_of_their_bits((a, b, mask) in two_long_steps()) {
        let shared = Binner::fixed_width(-8.0, 8.0, 8);
        let la = BitmapIndex::build(&a, shared.clone()).lossy(1e-2).0;
        let lb = BitmapIndex::build(&b, shared).lossy(1e-2).0;
        let differ = |x: &WahVec, y: &WahVec| {
            x.iter_bits().zip(y.iter_bits()).filter(|(p, q)| p != q).count() as u64
        };
        let diffs: Vec<u64> = (0..la.nbins()).map(|j| differ(la.bin(j), lb.bin(j))).collect();
        let (ma, mb) = (codec_mix(&la, mask), codec_mix(&lb, mask.rotate_right(3)));
        let got = VarSummary::Bitmap(ma).metric(&VarSummary::Bitmap(mb), Metric::EmdSpatial);
        prop_assert_eq!(got.to_bits(), emd_spatial_from_diffs(&diffs).to_bits());
    }

    /// Step metrics are additive over rows: cut both steps at arbitrary
    /// rows, hold each slice's bins as WAH or Roaring, merge the slices'
    /// partials and finish — the whole index's metric, bit for bit, for
    /// every metric under a shared binner and under per-step binners.
    #[test]
    fn merged_slice_partials_finish_to_the_whole_index_metric(
        (a, b, mask) in two_long_steps(),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let n = a.len() as u64;
        let mut bounds: Vec<u64> = cuts.iter().map(|c| (c * n as f64) as u64).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let shared = Binner::fixed_width(-8.0, 8.0, 8);
        let per_step = (Binner::fit_precision_anchored(&a, 1), Binner::fit_precision_anchored(&b, 1));
        for (ba, bb) in [(shared.clone(), shared), per_step] {
            let (ia, ib) = (BitmapIndex::build(&a, ba.clone()), BitmapIndex::build(&b, bb.clone()));
            let mixed = |idx: &BitmapIndex, mask| VarSummary::Bitmap(codec_mix(idx, mask));
            for metric in METRICS {
                let whole = mixed(&ia, mask).metric(&mixed(&ib, !mask), metric);
                let mut merged: Option<CorrelationPartial> = None;
                for w in bounds.windows(2) {
                    let (sa, sb) = (ia.slice_rows(w[0]..w[1]), ib.slice_rows(w[0]..w[1]));
                    let p = mixed(&sa, mask).partial(&mixed(&sb, !mask), metric);
                    match merged.as_mut() {
                        None => merged = Some(p),
                        Some(m) => m.merge(&p).unwrap(),
                    }
                }
                let got = metric.finish(&ba, &bb, &merged.unwrap());
                prop_assert_eq!(got.to_bits(), whole.to_bits(), "{:?}", metric);
            }
        }
    }
}

/// Two integer-valued variables under `distinct_ints` bins (so `coarsen`
/// groups them exactly), the second a copy of the first over a leading
/// stretch of rows, so that pairs survive pruning and subsets turn up.
fn mining_arrays() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Binner)> {
    (1usize..400, 1u32..20)
        .prop_flat_map(|(n, nbins)| {
            (
                proptest::collection::vec(0..nbins, n),
                proptest::collection::vec(0..nbins, n),
                0..n + 1,
                Just(nbins),
            )
        })
        .prop_map(|(a, mut b, copied, nbins)| {
            b[..copied].copy_from_slice(&a[..copied]);
            let values = |v: Vec<u32>| v.into_iter().map(f64::from).collect();
            (
                values(a),
                values(b),
                Binner::distinct_ints(0, nbins as i64 - 1),
            )
        })
}

fn mining_cfg(unit_size: u64, value_threshold: f64) -> MiningConfig {
    MiningConfig {
        value_threshold,
        spatial_threshold: 0.05,
        unit_size,
    }
}

/// What a mining run found and the work it counted.
fn found(r: MiningResult) -> (Vec<MinedSubset>, [usize; 3]) {
    let work = [r.pairs_evaluated, r.pairs_pruned, r.units_evaluated];
    (r.subsets, work)
}

/// `subsets` in the miners' order: by spatial MI, highest first.
fn sorted(mut subsets: Vec<MinedSubset>) -> Vec<MinedSubset> {
    subsets.sort_by(|x, y| {
        (y.spatial_mi.partial_cmp(&x.spatial_mi).unwrap())
            .then((x.bin_a, x.bin_b, x.unit).cmp(&(y.bin_a, y.bin_b, y.unit)))
    });
    subsets
}

/// [`mine_multilevel`] by raw scans: coarse pairs scored on
/// the model's joint table under `coarsen(group)`, the fine pairs under each
/// coarse survivor on the fine one, their units counted row by row. Also
/// returns the three `MultiLevelStats`.
fn mine_multilevel_scan(
    (a, b, binner): (&[f64], &[f64], &Binner),
    group: usize,
    cfg: &MiningConfig,
) -> (MiningResult, [usize; 3]) {
    let (n, nf, coarse) = (a.len() as u64, binner.nbins(), binner.coarsen(group));
    let nh = coarse.nbins();
    let column = |data: &[f64], binner: &Binner| Column::new(data, binner.clone());
    let (fa, fb) = (column(a, binner), column(b, binner));
    let (ga, gb) = (column(a, &coarse), column(b, &coarse));
    let (fine_joint, coarse_joint) = (fa.joint(&fb), ga.joint(&gb));
    let (ca, cb, ha, hb) = (fa.counts(), fb.counts(), ga.counts(), gb.counts());
    let children = |h: usize| h * group..((h + 1) * group).min(nf);
    let (mut r, mut stats) = (MiningResult::default(), [0; 3]);
    let mut survivors = Vec::new();
    for hj in (0..nh).filter(|&h| ha[h] != 0) {
        for hk in (0..nh).filter(|&h| hb[h] != 0) {
            stats[0] += 1;
            let c_hjk = coarse_joint[hj * nh + hk];
            if joint_pair_score(n, ha[hj], hb[hk], c_hjk) < cfg.value_threshold {
                stats[1] += 1;
                continue;
            }
            for j in children(hj).filter(|&j| ca[j] != 0) {
                for k in children(hk).filter(|&k| cb[k] != 0) {
                    r.pairs_evaluated += 1;
                    let value_mi = joint_pair_score(n, ca[j], cb[k], fine_joint[j * nf + k]);
                    match value_mi < cfg.value_threshold {
                        true => r.pairs_pruned += 1,
                        false => survivors.push((j, k, value_mi)),
                    }
                }
            }
        }
    }
    stats[2] = r.pairs_evaluated;
    let size = cfg.unit_size as usize;
    for (bin_a, bin_b, value_mi) in survivors {
        for (unit, start) in (0..a.len()).step_by(size).enumerate() {
            let rows = start..(start + size).min(a.len());
            let [mut c_a, mut c_b, mut c_ab] = [0u64; 3];
            for i in rows.clone() {
                let in_a = binner.bin_of(a[i]) as usize == bin_a;
                let in_b = binner.bin_of(b[i]) as usize == bin_b;
                (c_a, c_b, c_ab) = (
                    c_a + in_a as u64,
                    c_b + in_b as u64,
                    c_ab + (in_a && in_b) as u64,
                );
            }
            r.units_evaluated += 1;
            let spatial_mi = indicator_mi(rows.len() as u64, c_a, c_b, c_ab);
            if spatial_mi >= cfg.spatial_threshold {
                r.subsets.push(MinedSubset {
                    bin_a,
                    bin_b,
                    unit,
                    value_mi,
                    spatial_mi,
                });
            }
        }
    }
    r.subsets = sorted(r.subsets);
    (r, stats)
}

/// [`mine_index`] counting each surviving pair per unit on its materialised
/// `AND` — the oracle the fused per-unit kernels were tested against.
fn mine_materialized(a: &BitmapIndex, b: &BitmapIndex, cfg: &MiningConfig) -> MiningResult {
    let (n, nb) = (a.len(), b.nbins());
    let joint = joint_counts_and_table(a, b, None);
    let per_unit = |v: &WahVec| -> Vec<u64> {
        let unit = |lo: u64| lo..(lo + cfg.unit_size).min(n);
        let units = (0..n).step_by(cfg.unit_size as usize).map(unit);
        units.map(|u| v.count_ones_in_ranges(&[u])).collect()
    };
    let mut r = MiningResult::default();
    for bin_a in (0..a.nbins()).filter(|&j| a.counts()[j] != 0) {
        for bin_b in (0..nb).filter(|&k| b.counts()[k] != 0) {
            r.pairs_evaluated += 1;
            let (c_a, c_b) = (a.counts()[bin_a], b.counts()[bin_b]);
            let value_mi = joint_pair_score(n, c_a, c_b, joint[bin_a * nb + bin_b]);
            if value_mi < cfg.value_threshold {
                r.pairs_pruned += 1;
                continue;
            }
            let (va, vb) = (a.bin(bin_a), b.bin(bin_b));
            let (unit_a, unit_b, unit_ab) = (per_unit(va), per_unit(vb), per_unit(&va.and(vb)));
            for unit in 0..unit_ab.len() {
                r.units_evaluated += 1;
                let rows = cfg.unit_size.min(n - unit as u64 * cfg.unit_size);
                let spatial_mi = indicator_mi(rows, unit_a[unit], unit_b[unit], unit_ab[unit]);
                if spatial_mi >= cfg.spatial_threshold {
                    r.subsets.push(MinedSubset {
                        bin_a,
                        bin_b,
                        unit,
                        value_mi,
                        spatial_mi,
                    });
                }
            }
        }
    }
    r.subsets = sorted(r.subsets);
    r
}

proptest! {
    /// The multi-level miner, which scores coarse pairs from block sums of
    /// the fine joint table, equals a scan that bins the data under the
    /// coarsened binner — subsets, work counters and the three stats — at
    /// groupings that do and do not divide the bin count.
    #[test]
    fn mine_multilevel_equals_a_scan_at_every_grouping(
        (a, b, binner) in mining_arrays(),
        unit in 8u64..64,
        t in 0.001f64..0.05,
    ) {
        let cfg = mining_cfg(unit, t);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        for group in [1, 2, 3, 8] {
            let ml = |idx: &BitmapIndex| MultiLevelIndex::from_low(idx.clone(), group);
            let (got, stats) = mine_multilevel(&ml(&ia), &ml(&ib), &cfg);
            let (want, want_stats) = mine_multilevel_scan((&a, &b, &binner), group, &cfg);
            prop_assert_eq!(found(got), found(want), "group {}", group);
            let got_stats = [stats.high_pairs_evaluated, stats.high_pairs_pruned, stats.low_pairs_evaluated];
            prop_assert_eq!(got_stats, want_stats, "group {}", group);
        }
    }

    /// The label walk's spatial stage equals the materialised per-pair one
    /// (the miners' precondition: operands that partition their rows).
    #[test]
    fn mining_walk_equals_the_materialized_fallback(
        (a, b, binner) in mining_arrays(),
        unit in 8u64..64,
    ) {
        let cfg = mining_cfg(unit, 0.01);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        let walked = mine_index(&ia, &ib, &cfg);
        prop_assert_eq!(found(walked), found(mine_materialized(&ia, &ib, &cfg)));
    }
}

/// Bins that overlap yet sum to the row count — a CRC-valid but corrupt
/// blob — claim to partition their rows; the miners score whatever the
/// walk counts of them and never panic.
#[test]
fn overlapping_bins_that_sum_to_the_row_count_never_panic() {
    let n = 4000u64;
    let every = |step: u64| (0..n).step_by(step as usize).collect::<Vec<u64>>();
    // bin 0 every other row, bin 1 every fourth (all in bin 0 too), bin 2
    // the first 1000 rows: 2000 + 1000 + 1000 = n, odd rows past 1000 in
    // no bin
    let bins = vec![
        WahVec::from_ones(&every(2), n),
        WahVec::from_ones(&every(4), n),
        WahVec::from_bits((0..n).map(|r| r < 1000)),
    ];
    let bad = BitmapIndex::from_bins(Binner::distinct_ints(0, 2), bins);
    assert!(bad.partitions(), "the counts sum to the row count");
    let data: Vec<f64> = (0..n).map(|r| (r % 3) as f64).collect();
    let good = BitmapIndex::build(&data, Binner::distinct_ints(0, 2));
    let cfg = mining_cfg(64, 0.0);
    for (x, y) in [(&bad, &bad), (&bad, &good), (&good, &bad)] {
        mine_index(x, y, &cfg);
        for group in [1, 2] {
            let ml = |idx: &BitmapIndex| MultiLevelIndex::from_low(idx.clone(), group);
            mine_multilevel(&ml(x), &ml(y), &cfg);
        }
    }
}
