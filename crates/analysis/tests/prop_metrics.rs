//! Property-based tests for the analysis layer: information-theoretic
//! invariants, metric laws, and — above all — bit-exact agreement between
//! the bitmap and full-data paths on arbitrary inputs (the paper's central
//! claim, tested adversarially rather than on hand-picked data).

use ibis_analysis::aggregate::pearson_from_joint_counts;
use ibis_analysis::emd::{
    emd_counts_full, emd_counts_index, emd_from_counts, emd_spatial_full, emd_spatial_index,
};
use ibis_analysis::entropy::{
    conditional_entropy_from_counts, conditional_entropy_full, conditional_entropy_index,
    mutual_information_from_counts, mutual_information_full, mutual_information_index,
    shannon_entropy_full, shannon_entropy_index,
};
use ibis_analysis::histogram::histogram;
use ibis_analysis::mining::indicator_mi;
use ibis_analysis::selection::{select_greedy, Partitioning};
use ibis_analysis::{
    finish_correlation, mine_full, mine_index, CorrelationPartial, Metric, MiningConfig,
    StepSummary, VarSummary,
};
use ibis_core::{Binner, BitmapIndex};
use proptest::prelude::*;

mod before_fusing;

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
        let idx = BitmapIndex::build(&data, binner.clone());
        prop_assert_eq!(shannon_entropy_index(&idx), shannon_entropy_full(&data, &binner));
    }

    #[test]
    fn entropy_bounds((data, binner) in data_and_binner()) {
        let h = shannon_entropy_full(&data, &binner);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (binner.nbins() as f64).log2() + 1e-9, "H exceeds log2(bins)");
    }

    #[test]
    fn mi_and_ce_bitmap_exact((a, b, binner) in two_arrays()) {
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        prop_assert_eq!(
            mutual_information_index(&ia, &ib),
            mutual_information_full(&a, &b, &binner, &binner)
        );
        prop_assert_eq!(
            conditional_entropy_index(&ia, &ib),
            conditional_entropy_full(&a, &b, &binner, &binner)
        );
    }

    #[test]
    fn mi_bounded_by_entropies((a, b, binner) in two_arrays()) {
        let mi = mutual_information_full(&a, &b, &binner, &binner);
        let ha = shannon_entropy_full(&a, &binner);
        let hb = shannon_entropy_full(&b, &binner);
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= ha.min(hb) + 1e-9, "MI {mi} exceeds min(H)={}", ha.min(hb));
    }

    #[test]
    fn ce_bounds((a, b, binner) in two_arrays()) {
        let ce = conditional_entropy_full(&a, &b, &binner, &binner);
        let ha = shannon_entropy_full(&a, &binner);
        prop_assert!(ce >= -1e-9 && ce <= ha + 1e-9);
    }

    #[test]
    fn emd_bitmap_exact((a, b, binner) in two_arrays()) {
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        prop_assert_eq!(emd_counts_index(&ia, &ib), emd_counts_full(&a, &b, &binner));
        prop_assert_eq!(emd_spatial_index(&ia, &ib), emd_spatial_full(&a, &b, &binner));
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
        let emd = emd_counts_full(&a, &b, &binner);
        prop_assert_eq!(emd == 0.0, same);
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
