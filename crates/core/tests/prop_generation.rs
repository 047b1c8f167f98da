//! Property tests for the batched generation fast path: the fused
//! bin+compress loop (`MultiWahBuilder::extend_binned`), the word-level
//! `append_wah` splice, builder reuse, and the scratch binning API — each
//! checked byte-identical against its element-at-a-time oracle.

use ibis_core::{
    Binner, BitmapIndex, MultiWahBuilder, RowOrder, RowPermutation, WahBuilder, WahVec,
};
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

/// Field shapes spanning the fast path's regimes: pure noise (mixed
/// segments), constants (one long run), run-heavy piecewise-constant data
/// (the smooth-simulation-field regime), and smooth ramps.
fn field() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        proptest::collection::vec(value(), 0..700),
        (value(), 0usize..700).prop_map(|(v, n)| vec![v; n]),
        proptest::collection::vec((value(), 1usize..200), 0..10).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        }),
        (0usize..700, -50.0f64..50.0, 0.0f64..0.5)
            .prop_map(|(n, base, slope)| (0..n).map(|i| base + slope * i as f64).collect()),
    ]
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

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The element-at-a-time reference: one `bin_of` + one `push` per value.
fn scalar_oracle(binner: &Binner, data: &[f64]) -> Vec<WahVec> {
    let mut mb = MultiWahBuilder::new(binner.nbins());
    for &v in data {
        mb.push(binner.bin_of(v));
    }
    mb.finish()
}

proptest! {
    #[test]
    fn extend_binned_matches_scalar_push(data in field(), binner in binner()) {
        let mut mb = MultiWahBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &data);
        let fast = mb.finish();
        let slow = scalar_oracle(&binner, &data);
        prop_assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert_eq!(f, s, "fast path diverged from the push oracle");
            f.check_canonical().unwrap();
        }
    }

    #[test]
    fn extend_binned_split_calls_match(data in field(), binner in binner(), cut in 0.0f64..1.0) {
        // Two batched calls with an arbitrary (usually unaligned) seam must
        // equal one call — the seam exercises the scalar head path.
        let cut = (cut * data.len() as f64) as usize;
        let mut mb = MultiWahBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &data[..cut]);
        mb.extend_binned(&binner, &data[cut..]);
        let split = mb.finish();
        let slow = scalar_oracle(&binner, &data);
        for (f, s) in split.iter().zip(&slow) {
            prop_assert_eq!(f, s);
        }
    }

    #[test]
    fn interleaved_push_and_batch_match(data in field(), binner in binner()) {
        // Scalar pushes before and after a batched call (arbitrary alignment
        // on both sides).
        let third = data.len() / 3;
        let mut mb = MultiWahBuilder::new(binner.nbins());
        for &v in &data[..third] {
            mb.push(binner.bin_of(v));
        }
        mb.extend_binned(&binner, &data[third..2 * third]);
        for &v in &data[2 * third..] {
            mb.push(binner.bin_of(v));
        }
        let mixed = mb.finish();
        let slow = scalar_oracle(&binner, &data);
        for (f, s) in mixed.iter().zip(&slow) {
            prop_assert_eq!(f, s);
        }
    }

    #[test]
    fn index_build_matches_build_scalar(data in field(), binner in binner()) {
        let fast = BitmapIndex::build(&data, binner.clone());
        let slow = BitmapIndex::build_scalar(&data, binner);
        for b in 0..fast.nbins() {
            prop_assert_eq!(fast.bin(b), slow.bin(b), "bin {} differs", b);
        }
        fast.check_consistent().unwrap();
    }

    #[test]
    fn permuted_build_matches_scalar_on_reordered_stream(data in field(), binner in binner()) {
        // The reorder pass feeds `extend_binned` a *gathered* stream whose
        // run structure differs from the input's; the fused constant-segment
        // detection must stay byte-identical to the scalar oracle over the
        // explicitly reordered data.
        if let Some(p) = RowOrder::GrayBin.permutation(&[], &binner, &data) {
            let fused = BitmapIndex::build_permuted(&data, binner.clone(), &p);
            let reordered = p.reorder(&data);
            let slow = BitmapIndex::build_scalar(&reordered, binner.clone());
            for b in 0..fused.nbins() {
                prop_assert_eq!(fused.bin(b), slow.bin(b), "bin {} differs", b);
                fused.bin(b).check_canonical().unwrap();
            }
        }
    }

    #[test]
    fn permuted_build_matches_scalar_under_coherence_breaking_gather(
        data in field(), stride in 1usize..64
    ) {
        // Adversarial direction: a coprime-stride gather *scatters* the
        // run-heavy inputs, so constant input segments land fragmented and
        // the fast path's segment detection must re-derive runs from the
        // gathered stream, not the source layout.
        let n = data.len();
        if n > 1 {
            let stride = (stride..).find(|s| gcd(*s, n) == 1).unwrap();
            let perm: Vec<u32> = (0..n).map(|i| ((i * stride) % n) as u32).collect();
            let p = RowPermutation::from_gather(perm);
            let binner = Binner::precision(-100.0, 100.0, 0);
            let fused = BitmapIndex::build_permuted(&data, binner.clone(), &p);
            let slow = BitmapIndex::build_scalar(&p.reorder(&data), binner);
            for b in 0..fused.nbins() {
                prop_assert_eq!(fused.bin(b), slow.bin(b), "bin {} differs", b);
            }
        }
    }

    #[test]
    fn parallel_build_identical_on_runs(data in field(), binner in binner()) {
        // Run-heavy fields drive the cross-segment run detection inside each
        // sub-block; the 31-aligned seams must still concatenate exactly.
        let seq = BitmapIndex::build(&data, binner.clone());
        let par = ibis_core::build_index_parallel(&data, binner);
        for b in 0..seq.nbins() {
            prop_assert_eq!(seq.bin(b), par.bin(b), "bin {} differs", b);
        }
    }

    #[test]
    fn append_wah_unaligned_matches_bit_oracle(
        head in proptest::collection::vec(any::<bool>(), 0..40),
        tails in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..200), 0..4),
    ) {
        // Word-splice concat at every alignment vs pushing each bit.
        let mut fast = WahBuilder::new();
        let mut slow = WahBuilder::new();
        for &b in &head {
            fast.push_bit(b);
            slow.push_bit(b);
        }
        for tail in &tails {
            fast.append_wah(&WahVec::from_bits(tail.iter().copied()));
            for &b in tail {
                slow.push_bit(b);
            }
        }
        let (f, s) = (fast.finish(), slow.finish());
        prop_assert_eq!(&f, &s);
        f.check_canonical().unwrap();
    }

    #[test]
    fn append_bits_matches_push_bits(
        chunks in proptest::collection::vec((any::<u32>(), 0u8..32), 0..30)
    ) {
        let mut fast = WahBuilder::new();
        let mut slow = WahBuilder::new();
        for &(raw, nbits) in &chunks {
            let payload = if nbits == 0 { 0 } else { raw & ((1u32 << nbits) - 1) };
            fast.append_bits(payload, nbits);
            for j in 0..nbits {
                slow.push_bit(payload & (1 << j) != 0);
            }
        }
        let (f, s) = (fast.finish(), slow.finish());
        prop_assert_eq!(&f, &s);
        f.check_canonical().unwrap();
    }

    #[test]
    fn finish_reset_reuse_is_clean(a in field(), b in field(), binner in binner()) {
        // A builder reused via finish_reset must not leak state between
        // streams — the second stream's output equals a fresh build.
        let mut mb = MultiWahBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &a);
        let first = mb.finish_reset();
        prop_assert_eq!(first.len(), binner.nbins());
        mb.extend_binned(&binner, &b);
        let second = mb.finish_reset();
        let fresh = scalar_oracle(&binner, &b);
        for (f, s) in second.iter().zip(&fresh) {
            prop_assert_eq!(f, s, "reused builder leaked state");
        }
    }

    #[test]
    fn bin_into_matches_bin_of(data in field(), binner in binner()) {
        let mut ids = vec![7u32; 3]; // junk that must be overwritten
        binner.bin_into(&data, &mut ids);
        prop_assert_eq!(ids.len(), data.len());
        for (&id, &v) in ids.iter().zip(&data) {
            prop_assert_eq!(id, binner.bin_of(v));
        }
    }
}

/// Deterministic stress: very long constant stretches cross the fill-word
/// capacity (MAX_FILL splitting) and many segments of deficit.
#[test]
fn long_runs_cross_fill_capacity() {
    let binner = Binner::distinct_ints(0, 3);
    let mut data = Vec::new();
    for (bin, len) in [(0u32, 31 * 4000), (2, 17), (1, 31 * 2500), (3, 1)] {
        data.extend(std::iter::repeat_n(bin as f64, len));
    }
    let mut mb = MultiWahBuilder::new(binner.nbins());
    mb.extend_binned(&binner, &data);
    let fast = mb.finish();
    let slow = scalar_oracle(&binner, &data);
    assert_eq!(fast, slow);
    for f in &fast {
        f.check_canonical().unwrap();
    }
}

/// The generation counters actually tick in instrumented builds (and this
/// test simply doesn't run in `--no-default-features` twins, where the
/// registry const-folds away).
#[cfg(feature = "obs")]
#[test]
fn generation_counters_tick() {
    let before = ibis_obs::global()
        .counter("generation.segments.fast")
        .value();
    let data = vec![1.0f64; 31 * 64];
    let binner = Binner::distinct_ints(0, 4);
    let mut mb = MultiWahBuilder::new(binner.nbins());
    mb.extend_binned(&binner, &data);
    let _ = mb.finish();
    let after = ibis_obs::global()
        .counter("generation.segments.fast")
        .value();
    assert!(
        after >= before + 64,
        "expected ≥64 fast segments recorded, got {before} -> {after}"
    );
}
