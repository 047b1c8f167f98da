//! Property suite for the row-order layer: every [`RowOrder`] — and a
//! coprime-stride gather standing in for the many-segment layouts a
//! multi-field sort will produce — must be a checked bijection whose
//! `reorder ∘ inverse` is the identity, and an index built from reordered
//! data must select exactly the inverse-mapped row set of the
//! identity-order index — across all binner kinds and with the reordered
//! bin patterns surviving every codec round-trip byte-identically.

use ibis_core::{Binner, BitmapIndex, RoaringVec, RowOrder, RowPermutation};
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

/// A field drawn both as pure noise and as a smooth ramp (few, long
/// bin runs).
fn field() -> impl Strategy<Value = Vec<f64>> {
    (1usize..220).prop_flat_map(|n| {
        let smooth = (0.0f64..0.3)
            .prop_map(move |slope| (0..n).map(|i| (slope * i as f64).sin() * 90.0).collect());
        prop_oneof![proptest::collection::vec(value(), n), smooth]
    })
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The permutations under test: what each [`RowOrder`] builds (an order
/// that comes out as the identity materializes nothing), plus a gather of
/// a stride coprime to `n`, which scatters the rows over about `stride`
/// ascending segments whatever the values are.
fn permutations(binner: &Binner, data: &[f64], stride: usize) -> Vec<(String, RowPermutation)> {
    let n = data.len();
    let mut perms: Vec<(String, RowPermutation)> = RowOrder::ALL
        .into_iter()
        .filter_map(|o| Some((o.name().to_string(), o.permutation(&[], binner, data)?)))
        .collect();
    if let Some(stride) = (stride..n).find(|s| gcd(*s, n) == 1) {
        let gather = (0..n).map(|i| (i * stride % n) as u32).collect();
        perms.push((
            format!("stride {stride}"),
            RowPermutation::from_gather(gather),
        ));
    }
    perms
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
    fn every_order_is_an_invertible_reorder(
        data in field(), binner in binner(), stride in 2usize..40
    ) {
        let row_ids: Vec<u32> = (0..data.len() as u32).collect();
        prop_assert!(RowOrder::Identity.permutation(&[], &binner, &data).is_none());
        for (_, p) in permutations(&binner, &data, stride) {
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

    /// `GrayBin` is built by a counting sort over runs of equal bins; the
    /// comparison sort it replaced — written here as the *stable* sort by
    /// key it always was — stays the oracle, over every binner kind and
    /// over data that is noisy (NaN and ±inf included), constant, already
    /// sorted, empty, piecewise constant with runs that revisit a bin, and
    /// that piecewise field tiled past 2^16 rows.
    #[test]
    fn counting_sort_equals_the_stable_sort_by_key(
        noisy in proptest::collection::vec(value(), 0..300),
        pieces in proptest::collection::vec((value(), 1usize..200), 0..10),
        long in 65_537usize..70_000,
        binner in binner(),
    ) {
        let mut sorted: Vec<f64> = noisy.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        let constant = vec![noisy.first().copied().unwrap_or(0.0); noisy.len()];
        let piecewise: Vec<f64> = pieces
            .iter()
            .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let tile = if piecewise.is_empty() { &noisy } else { &piecewise };
        let tiled = tile.iter().copied().cycle().take(long).collect();
        for data in [noisy, sorted, constant, vec![], piecewise, tiled] {
            let bins: Vec<usize> = data.iter().map(|&v| binner.bin_of(v) as usize).collect();
            let mut perm: Vec<u32> = (0..data.len() as u32).collect();
            perm.sort_by_key(|&i| bins[i as usize] ^ (bins[i as usize] >> 1));
            let oracle = RowPermutation::from_gather(perm);
            // an identity result normalizes to `None`
            let Some(p) = RowOrder::GrayBin.permutation(&[], &binner, &data) else {
                prop_assert!(oracle.is_identity(), "{} rows", data.len());
                continue;
            };
            prop_assert_eq!(p.perm(), oracle.perm(), "{} rows", data.len());
            prop_assert_eq!(p.inv(), oracle.inv());
            prop_assert_eq!(p.segments(), oracle.segments());
            let runs: Vec<(u32, u32)> = p.runs().collect();
            prop_assert_eq!(&RowPermutation::from_runs(&runs), &p);
        }
    }

    #[test]
    fn reordered_index_selects_inverse_mapped_rows(
        data in field(), binner in binner(), stride in 2usize..40
    ) {
        let identity = BitmapIndex::build(&data, binner.clone());
        for (name, p) in permutations(&binner, &data, stride) {
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
                    "bin {} differs under {}", b, name
                );
                // and the reordered bit pattern survives the Roaring
                // round-trip exactly (WAH is the working form)
                prop_assert_eq!(&RoaringVec::from_wah(stored).to_wah(), stored);
            }
        }
    }
}
