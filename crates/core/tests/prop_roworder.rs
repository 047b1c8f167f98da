//! Property suite for the pluggable row-order layer: every [`RowOrder`]
//! over every grid shape (ragged, non-power-of-two, degenerate `1×1×N`)
//! must produce a checked bijection whose `reorder ∘ inverse` is the
//! identity, and an index built from reordered data must select exactly
//! the inverse-mapped row set of the identity-order index — across all
//! binner kinds and with the reordered bin patterns surviving every codec
//! round-trip byte-identically.

use ibis_core::{Binner, BitmapIndex, Codec, RoaringVec, RowOrder, RowPermutation, WahVec};
use proptest::prelude::*;

/// Values laced with NaN and out-of-range extremes (the clamp paths).
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -120.0f64..120.0,
        -120.0f64..120.0,
        -120.0f64..120.0,
        Just(f64::NAN),
        prop_oneof![
            Just(-1e30f64),
            Just(1e30),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY)
        ],
    ]
}

/// Grid shapes spanning the spatial orders' regimes: ragged 2-D and 3-D
/// (non-power-of-two on purpose), degenerate `1×1×N`, and size-1 middle
/// axes that exercise the axis-dropping path.
fn dims() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        (2usize..14, 2usize..14).prop_map(|(a, b)| vec![a, b]),
        (2usize..7, 2usize..7, 2usize..7).prop_map(|(a, b, c)| vec![a, b, c]),
        (1usize..120).prop_map(|n| vec![1, 1, n]),
        (2usize..10, 2usize..10).prop_map(|(a, c)| vec![a, 1, c]),
    ]
}

/// A grid plus a field covering it. Fields are drawn both as pure noise
/// and as spatially smooth ramps (where the spatial curves actually pay).
fn grid() -> impl Strategy<Value = (Vec<usize>, Vec<f64>)> {
    dims().prop_flat_map(|d| {
        let n: usize = d.iter().product();
        let smooth = (0.0f64..0.3)
            .prop_map(move |slope| (0..n).map(|i| (slope * i as f64).sin() * 90.0).collect());
        let noisy = proptest::collection::vec(value(), n);
        (Just(d), prop_oneof![noisy, smooth])
    })
}

/// All binner kinds: fixed-width, decimal precision, distinct ints, and
/// explicit edges (the non-branchless fallback arm).
fn binner() -> impl Strategy<Value = Binner> {
    prop_oneof![
        (1usize..40).prop_map(|n| Binner::fixed_width(-100.0, 100.0, n)),
        Just(Binner::precision(-100.0, 100.0, 0)),
        Just(Binner::distinct_ints(-100, 100)),
        (2usize..12).prop_map(|n| {
            Binner::from_edges(
                (0..=n)
                    .map(|i| -100.0 + 200.0 * i as f64 / n as f64)
                    .collect(),
            )
        }),
    ]
}

fn assert_bijection(p: &RowPermutation, n: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(p.len(), n);
    let mut seen = vec![false; n];
    for &o in p.perm() {
        prop_assert!(!seen[o as usize], "row {} gathered twice", o);
        seen[o as usize] = true;
    }
    for original in 0..n {
        prop_assert_eq!(p.perm()[p.inv()[original] as usize] as usize, original);
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_order_is_an_invertible_reorder((dims, data) in grid(), binner in binner()) {
        let row_ids: Vec<u32> = (0..data.len() as u32).collect();
        for order in RowOrder::ALL {
            let Some(p) = order.permutation(&dims, &binner, &data) else {
                // Identity, a degenerate grid, or an already-ordered field:
                // the order *is* the identity and nothing is materialized.
                continue;
            };
            assert_bijection(&p, data.len())?;
            prop_assert!(!p.is_identity(), "identity perms must normalize to None");
            // reorder ∘ inverse == identity, on a payload that tells every
            // row apart regardless of the field's values
            prop_assert_eq!(&p.restore(&p.reorder(&row_ids)), &row_ids);
            // the gather order alone — whole, or as the runs the store
            // persists — rebuilds the structure, and the segments are
            // exactly where it stops ascending, which the query path's
            // binary searches rely on
            prop_assert_eq!(&RowPermutation::from_gather(p.perm().to_vec()), &p);
            let runs: Vec<(u32, u32)> = p.runs().collect();
            prop_assert!(runs.windows(2).all(|r| r[0].0 + r[0].1 != r[1].0), "maximal runs");
            prop_assert_eq!(&RowPermutation::from_runs(&runs), &p);
            let mut bounds = p.segments().to_vec();
            bounds.push(p.len() as u32);
            prop_assert_eq!(bounds[0], 0);
            for w in bounds.windows(2) {
                let run = &p.perm()[w[0] as usize..w[1] as usize];
                prop_assert!(run.windows(2).all(|ids| ids[0] < ids[1]), "segment {:?}", w);
                prop_assert!(
                    w[0] == 0 || p.perm()[w[0] as usize] < p.perm()[w[0] as usize - 1],
                    "segment {:?} is not maximal", w
                );
            }
        }
    }

    /// The data-dependent orders are built by a counting sort; the
    /// comparison sort they replaced — written here as the *stable* sort
    /// by key it always was — stays the oracle, over every binner kind and
    /// over data that is noisy (NaN and ±inf included), constant, already
    /// sorted, or empty.
    #[test]
    fn counting_sort_equals_the_stable_sort_by_key(
        noisy in proptest::collection::vec(value(), 0..300),
        binner in binner(),
    ) {
        let mut sorted: Vec<f64> = noisy.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let constant = vec![noisy.first().copied().unwrap_or(0.0); noisy.len()];
        for data in [noisy, sorted, constant, vec![]] {
            let bins: Vec<usize> = data.iter().map(|&v| binner.bin_of(v) as usize).collect();
            let mut counts = vec![0usize; binner.nbins()];
            bins.iter().for_each(|&b| counts[b] += 1);
            let mut by_freq: Vec<usize> = (0..counts.len()).collect();
            by_freq.sort_by_key(|&b| (std::cmp::Reverse(counts[b]), b));
            let rank = |b: usize| by_freq.iter().position(|&x| x == b).unwrap();
            let stable = |key: &dyn Fn(usize) -> usize| {
                let mut perm: Vec<u32> = (0..data.len() as u32).collect();
                perm.sort_by_key(|&i| key(bins[i as usize]));
                RowPermutation::from_gather(perm)
            };
            for (order, oracle) in [
                (RowOrder::GrayBin, stable(&|b| b ^ (b >> 1))),
                (RowOrder::HistogramSorted, stable(&rank)),
            ] {
                let built = order.permutation(&[], &binner, &data);
                // an identity result normalizes to `None`
                let expect = (!oracle.is_identity()).then_some(oracle);
                prop_assert_eq!(built, expect, "{}", order.name());
            }
        }
    }

    #[test]
    fn reordered_index_selects_inverse_mapped_rows((dims, data) in grid(), binner in binner()) {
        let identity = BitmapIndex::build(&data, binner.clone());
        for order in RowOrder::ALL {
            let Some(p) = order.permutation(&dims, &binner, &data) else {
                continue;
            };
            let permuted = BitmapIndex::build_permuted(&data, binner.clone(), &p);
            prop_assert_eq!(permuted.nbins(), identity.nbins());
            // the whole-index inverse: unpermute must reproduce the
            // identity-order index byte-identically
            let restored = permuted.unpermute(&p);
            for b in 0..identity.nbins() {
                prop_assert_eq!(restored.bin(b), identity.bin(b), "unpermuted bin {}", b);
            }
            prop_assert_eq!(restored.counts(), identity.counts());
            for b in 0..identity.nbins() {
                let stored = permuted.bin(b);
                // the stored selection, mapped back to original row ids,
                // is byte-identical to the identity-order bin
                let mapped = p.map_selection_to_original(stored);
                prop_assert_eq!(
                    &mapped, identity.bin(b),
                    "bin {} differs under {}", b, order.name()
                );
                // and the reordered bit pattern survives every codec
                // round-trip exactly (WAH is the interchange form)
                prop_assert_eq!(&WahVec::from_wah(stored).to_wah(), stored);
                prop_assert_eq!(&RoaringVec::from_wah(stored).to_wah(), stored);
            }
        }
    }
}

/// Degenerate grids have exactly one locality-preserving traversal — the
/// one we already have — so spatial orders must normalize to identity
/// rather than persisting a useless permutation.
#[test]
fn degenerate_grids_stay_identity() {
    let binner = Binner::distinct_ints(0, 9);
    for dims in [vec![1, 1, 37], vec![37], vec![1, 37, 1], vec![1, 1, 1]] {
        let n: usize = dims.iter().product();
        let data: Vec<f64> = (0..n).map(|i| ((i * 7) % 10) as f64).collect();
        for order in [RowOrder::ZOrder, RowOrder::Hilbert] {
            assert!(
                order.permutation(&dims, &binner, &data).is_none(),
                "{} must fall back to identity on {:?}",
                order.name(),
                dims
            );
        }
    }
}
