//! Property tests for the lossy superset pass: whatever the binner, codec
//! or row order, `exact & lossy == exact` — the lossy bitmap
//! only ever *adds* bits, and never more of them than the FPR budget
//! allows. Set-op pairings between lossy and exact operands inherit the
//! same one-sided guarantee.

use ibis_core::{Binner, BitmapIndex, CodecId, CodecVec, RowOrder, WahVec};
use proptest::prelude::*;

/// Field shapes biased toward the regimes where absorption actually fires:
/// run-heavy piecewise-constant data with short interruptions, plus noise
/// and constants for the degenerate paths.
fn field() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        // piecewise-constant with mostly-short runs — many absorbable gaps
        proptest::collection::vec((-4.0f64..4.0, 1usize..40), 1..60).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        }),
        proptest::collection::vec(-4.0f64..4.0, 0..600),
        (-4.0f64..4.0, 0usize..600).prop_map(|(v, n)| vec![v; n]),
        (1usize..600, -4.0f64..4.0, 0.0f64..0.02)
            .prop_map(|(n, base, slope)| (0..n).map(|i| base + slope * i as f64).collect()),
    ]
}

fn binner() -> impl Strategy<Value = Binner> {
    prop_oneof![
        (1usize..24).prop_map(|n| Binner::fixed_width(-4.0, 4.0, n)),
        Just(Binner::precision(-4.0, 4.0, 0)),
        Just(Binner::distinct_ints(-4, 4)),
        (2usize..9).prop_map(|n| {
            Binner::from_edges((0..=n).map(|i| -4.0 + 8.0 * i as f64 / n as f64).collect())
        }),
    ]
}

fn fpr() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1e-4),
        Just(1e-3),
        Just(1e-2),
        Just(1e-1),
        1e-4f64..1e-1,
    ]
}

/// `sup` is a superset of `sub` (same length, `sub & sup == sub`).
fn assert_superset(sub: &WahVec, sup: &WahVec) -> Result<(), TestCaseError> {
    prop_assert_eq!(sub.len(), sup.len());
    prop_assert_eq!(&sub.and(sup), sub, "lossy lost a set bit");
    Ok(())
}

proptest! {
    #[test]
    fn lossy_index_is_superset_for_every_binner_codec_and_row_order(
        data in field(), binner in binner(), fpr in fpr()
    ) {
        // Row-order dimension: identity plus the sorted layout.
        let exact_builds: Vec<BitmapIndex> = {
            let mut v = vec![BitmapIndex::build(&data, binner.clone())];
            if let Some(p) = RowOrder::GrayBin.permutation(&[], &binner, &data) {
                v.push(BitmapIndex::build_permuted(&data, binner.clone(), &p));
            }
            v
        };
        for exact in &exact_builds {
            let (lossy, stats) = exact.lossy(fpr);
            prop_assert_eq!(lossy.nbins(), exact.nbins());
            // budget: the absorbed zeros never exceed fpr × zeros
            prop_assert!(stats.measured_fpr() <= fpr,
                "measured {} > requested {}", stats.measured_fpr(), fpr);
            for b in 0..exact.nbins() {
                let (e, l) = (exact.bin(b), lossy.bin(b));
                l.check_canonical().unwrap();
                assert_superset(e, l)?;
                // Codec dimension: the lossy bin survives every codec
                // round-trip bit-exactly, so the superset guarantee is
                // codec-independent.
                for id in [CodecId::Wah, CodecId::Roaring] {
                    let rt = CodecVec::with_codec(l, id).to_wah();
                    prop_assert_eq!(&rt, l, "{:?} round-trip changed the lossy bin", id);
                }
            }
        }
    }

    #[test]
    fn lossy_rows_is_the_lossy_index_of_the_slice(
        data in field(), binner in binner(), fpr in fpr(), a in 0.0f64..1.0, b in 0.0f64..1.0
    ) {
        // Both held forms: the field as built, and its bins forced into
        // the other codec each.
        let built = BitmapIndex::build(&data, binner.clone());
        let flipped = BitmapIndex::from_codec_bins(
            binner.clone(),
            (0..built.nbins())
                .map(|b| match built.stored_bin(b) {
                    CodecVec::Wah(v) => CodecVec::with_codec(v, CodecId::Roaring),
                    CodecVec::Roaring(r) => CodecVec::Wah(r.to_wah()),
                })
                .collect(),
        );
        let n = data.len() as f64;
        let (lo, hi) = ((a.min(b) * n) as u64, (a.max(b) * n) as u64);
        for exact in [&built, &flipped] {
            for rows in [lo..hi, 0..exact.len()] {
                let (got, got_stats) = exact.lossy_rows(rows.clone(), fpr);
                let (want, want_stats) = exact.slice_rows(rows.clone()).lossy(fpr);
                prop_assert_eq!(got_stats, want_stats);
                prop_assert_eq!(got.len(), rows.end - rows.start);
                for bin in 0..exact.nbins() {
                    prop_assert_eq!(got.bin(bin), want.bin(bin), "rows {:?} bin {}", rows, bin);
                }
            }
        }
    }

    #[test]
    fn set_op_pairings_preserve_the_one_sided_guarantee(
        a in field(), binner in binner(), fpr in fpr()
    ) {
        // Two same-length operands from one field: its bins partition the
        // rows, so distinct bins have disjoint exact bitmaps — a worthwhile
        // adversarial AND case (exact AND is empty, lossy AND need not be).
        let idx = BitmapIndex::build(&a, binner.clone());
        let (lidx, _) = idx.lossy(fpr);
        for i in 0..idx.nbins() {
            for j in (i..idx.nbins()).take(3) {
                let (ea, eb) = (idx.bin(i), idx.bin(j));
                let (la, lb) = (lidx.bin(i), lidx.bin(j));
                // AND: every pairing with a lossy operand is a superset of
                // the exact AND
                let exact_and = ea.and(eb);
                for sup in [la.and(eb), ea.and(lb), la.and(lb)] {
                    assert_superset(&exact_and, &sup)?;
                }
                // OR: same one-sided containment
                let exact_or = ea.or(eb);
                for sup in [la.or(eb), ea.or(lb), la.or(lb)] {
                    assert_superset(&exact_or, &sup)?;
                }
                // and the lossy-lossy forms contain the half-lossy ones
                assert_superset(&la.and(eb), &la.and(lb))?;
                assert_superset(&la.or(eb), &la.or(lb))?;
            }
        }
    }

    #[test]
    fn refine_recovers_the_exact_answer(
        data in field(), binner in binner(), fpr in fpr()
    ) {
        // The engine's refine protocol in miniature: filter with the lossy
        // bin, then AND with the exact — the result is byte-identical to
        // the exact answer, and an empty lossy filter proves emptiness.
        let idx = BitmapIndex::build(&data, binner.clone());
        let (lidx, _) = idx.lossy(fpr);
        for b in 0..idx.nbins() {
            let (e, l) = (idx.bin(b), lidx.bin(b));
            if l.count_ones() == 0 {
                prop_assert_eq!(e.count_ones(), 0, "empty lossy must prove emptiness");
            }
            prop_assert_eq!(&e.and(l), e);
        }
    }
}

/// WAH-level deterministic cross-check: the absorbed bitmap is canonical,
/// is a superset, and drops at most `fpr × zeros` bits even on a pattern
/// built to sit exactly at the budget edge.
#[test]
fn budget_edge_stays_within_bound() {
    for fpr in [1e-4, 1e-3, 1e-2, 1e-1] {
        // 10k ones with a 1-bit gap every 100 bits: many equal-length
        // interior runs competing for the budget.
        let bits = (0..10_000).map(|i| i % 100 != 50);
        let exact = WahVec::from_bits(bits);
        let (lossy, stats) = exact.lossy_superset(fpr);
        lossy.check_canonical().unwrap();
        assert_eq!(&exact.and(&lossy), &exact);
        let zeros = exact.len() - exact.count_ones();
        assert!(
            stats.bits_dropped as f64 <= fpr * zeros as f64,
            "fpr {fpr}: dropped {} of {} zeros",
            stats.bits_dropped,
            zeros
        );
        assert_eq!(lossy.count_ones(), exact.count_ones() + stats.bits_dropped);
    }
}
