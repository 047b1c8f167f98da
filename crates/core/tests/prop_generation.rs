//! Property tests for index generation: the codec-direct builder
//! (`MultiCodecBuilder`, the fused bin+compress loop behind every index
//! build), the word-level `append_wah` splice, builder reuse, and the
//! scratch binning API. Every built bin is checked byte for byte against
//! the old WAH path kept here as the oracle: `build_scalar` (one `bin_of` +
//! one `push` per element), then per bin `select_codec(wah.stats())`, then
//! `RoaringVec::from_wah(..).serialize()` or the WAH words.

use ibis_core::{
    Binner, BinnerSpec, BitmapIndex, CodecId, CodecVec, MultiCodecBuilder, MultiWahBuilder,
    RoaringVec, RowOrder, RowPermutation, WahBuilder, WahVec,
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

/// A field tiled past two 64Ki-row chunks, so sub-blocks, chunk seams and
/// shard cuts all fall inside the data.
fn long_field() -> impl Strategy<Value = Vec<f64>> {
    (field(), 131_073usize..200_000).prop_map(|(tile, n)| match tile.is_empty() {
        true => vec![0.5; n],
        false => tile.iter().copied().cycle().take(n).collect(),
    })
}

/// The element-at-a-time reference: one `bin_of` + one `push` per value.
fn scalar_oracle(binner: &Binner, data: &[f64]) -> Vec<WahVec> {
    let mut mb = MultiWahBuilder::new(binner.nbins());
    for &v in data {
        mb.push(binner.bin_of(v));
    }
    mb.finish()
}

/// One stored bin as the store writes it: its codec and its bytes.
fn blob(v: &CodecVec) -> (CodecId, Vec<u8>) {
    match v {
        CodecVec::Wah(w) => (CodecId::Wah, words(w)),
        CodecVec::Roaring(r) => (CodecId::Roaring, r.serialize()),
    }
}

fn words(w: &WahVec) -> Vec<u8> {
    w.words().iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// The old path: each WAH bin routed by `select_codec` on its stats, a
/// Roaring-bound one converted with `from_wah`.
fn wah_path(bins: &[WahVec]) -> Vec<(CodecId, Vec<u8>)> {
    bins.iter()
        .map(|w| match ibis_core::select_codec(w.stats(), w.len()) {
            CodecId::Wah => (CodecId::Wah, words(w)),
            CodecId::Roaring => (CodecId::Roaring, RoaringVec::from_wah(w).serialize()),
        })
        .collect()
}

/// `wah_path` of the scalar build of `data`.
fn oracle(binner: &Binner, data: &[f64]) -> Vec<(CodecId, Vec<u8>)> {
    wah_path(&scalar_oracle(binner, data))
}

/// Every bin of `index` in the form it holds.
fn held(index: &BitmapIndex) -> Vec<(CodecId, Vec<u8>)> {
    (0..index.nbins())
        .map(|b| blob(index.stored_bin(b)))
        .collect()
}

/// Checks built bins against the scalar WAH bins: same bytes in the same
/// codec, the stats counted from the held form equal to the WAH form's,
/// and the codec plan the selector's.
fn check_against(index: &BitmapIndex, wah: &[WahVec]) -> Result<(), TestCaseError> {
    prop_assert_eq!(held(index), wah_path(wah));
    let plan: Vec<CodecId> = wah
        .iter()
        .map(|w| ibis_core::select_codec(w.stats(), w.len()))
        .collect();
    prop_assert_eq!(index.codec_plan(), plan);
    for (b, w) in wah.iter().enumerate() {
        prop_assert_eq!(&index.stored_bin(b).wah_stats(), w.stats(), "bin {}", b);
    }
    Ok(())
}

fn blobs(bins: &[CodecVec]) -> Vec<(CodecId, Vec<u8>)> {
    bins.iter().map(blob).collect()
}

proptest! {
    #[test]
    fn extend_binned_matches_scalar_push(data in field(), binner in binner()) {
        let mut mb = MultiCodecBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &data);
        let fast = mb.finish();
        prop_assert_eq!(fast.len(), binner.nbins());
        prop_assert_eq!(blobs(&fast), oracle(&binner, &data), "fast path diverged from the push oracle");
        for f in &fast {
            f.to_wah().check_canonical().unwrap();
        }
    }

    #[test]
    fn extend_binned_split_calls_match(data in field(), binner in binner(), cut in 0.0f64..1.0) {
        // Two batched calls with an arbitrary (usually unaligned) seam must
        // equal one call — the seam exercises the scalar head path.
        let cut = (cut * data.len() as f64) as usize;
        let mut mb = MultiCodecBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &data[..cut]);
        mb.extend_binned(&binner, &data[cut..]);
        prop_assert_eq!(blobs(&mb.finish()), oracle(&binner, &data));
    }

    #[test]
    fn interleaved_push_and_batch_match(data in field(), binner in binner()) {
        // Scalar pushes before and after a batched call (arbitrary alignment
        // on both sides).
        let third = data.len() / 3;
        let mut mb = MultiCodecBuilder::new(binner.nbins());
        for &v in &data[..third] {
            mb.push(binner.bin_of(v));
        }
        mb.extend_binned(&binner, &data[third..2 * third]);
        for &v in &data[2 * third..] {
            mb.push(binner.bin_of(v));
        }
        prop_assert_eq!(blobs(&mb.finish()), oracle(&binner, &data));
    }

    #[test]
    fn index_build_matches_build_scalar(data in field(), binner in binner()) {
        let fast = BitmapIndex::build(&data, binner.clone());
        let slow = BitmapIndex::build_scalar(&data, binner.clone());
        check_against(&fast, &scalar_oracle(&binner, &data))?;
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
            check_against(&fused, &scalar_oracle(&binner, &p.reorder(&data)))?;
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
            check_against(&fused, &scalar_oracle(&binner, &p.reorder(&data)))?;
        }
    }

    #[test]
    fn parallel_build_identical_on_runs(data in field(), binner in binner()) {
        // Run-heavy fields drive the cross-segment run detection; inside one
        // chunk every sub-block seam is a container the parts share.
        let seq = BitmapIndex::build(&data, binner.clone());
        for width in 2..=5 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let par = pool.install(|| ibis_core::build_index_parallel(&data, binner.clone()));
            prop_assert_eq!(held(&seq), held(&par), "width {}", width);
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
        // The thread's build scratch, reset by every build, must not leak
        // state between streams — the second build equals a fresh one.
        let first = BitmapIndex::build(&a, binner.clone());
        prop_assert_eq!(first.nbins(), binner.nbins());
        let second = BitmapIndex::build(&b, binner.clone());
        prop_assert_eq!(held(&second), oracle(&binner, &b), "reused builder leaked state");
    }

    /// The branchless kernel against `bin_of`, on the field laced with
    /// signed zeros, subnormals, every bin edge and quotients past 2^32 and
    /// 2^64 — over the usual binners, the widest one, and a width of 1e-300.
    #[test]
    fn bin_into_matches_bin_of(
        field in field(),
        binner in prop_oneof![
            binner(),
            binner(),
            Just(Binner::fixed_width(-100.0, 100.0, Binner::MAX_BINS)),
            (1usize..Binner::MAX_BINS + 1).prop_map(|nbins| {
                Binner::from_spec(BinnerSpec::Width { min: -1e-298, width: 1e-300, nbins })
            }),
        ],
    ) {
        let (lo, hi) = binner.bin_range(0);
        let mut data = vec![0.0, -0.0, 5e-324, -5e-324, f64::MIN_POSITIVE / 2.0];
        data.extend((0..binner.nbins()).map(|b| binner.bin_range(b).0));
        data.push(binner.bin_range(binner.nbins() - 1).1);
        for q in [2f64.powi(32), 2f64.powi(32) + 1.0, 2f64.powi(64)] {
            data.extend([lo + q * (hi - lo), lo - q * (hi - lo), q, -q]);
        }
        data.extend(field);
        let mut ids = vec![7u32; 3]; // junk that must be overwritten
        binner.bin_into(&data, &mut ids);
        prop_assert_eq!(ids.len(), data.len());
        for (&id, &v) in ids.iter().zip(&data) {
            prop_assert_eq!(id, binner.bin_of(v));
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Blob identity over the whole build matrix on fields spanning several
    /// 64Ki-row chunks: every binner × data pattern × call split ×
    /// {identity, permuted} × parallel width gives the old path's bytes.
    #[test]
    fn every_build_gives_the_wah_path_blobs(
        data in long_field(),
        binner in binner(),
        cut in 0.0f64..1.0,
        permute in any::<bool>(),
    ) {
        let perm = match permute {
            true => RowOrder::GrayBin.permutation(&[], &binner, &data),
            false => None,
        };
        let stream = perm.as_ref().map_or_else(|| data.clone(), |p| p.reorder(&data));
        let want = scalar_oracle(&binner, &stream);
        // the builder over the stream, split at an arbitrary row
        let cut = (cut * stream.len() as f64) as usize;
        let mut mb = MultiCodecBuilder::new(binner.nbins());
        mb.extend_binned(&binner, &stream[..cut]);
        mb.extend_binned(&binner, &stream[cut..]);
        prop_assert_eq!(blobs(&mb.finish()), wah_path(&want));
        for width in 1..=4 {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
            let index = pool.install(|| match &perm {
                Some(p) => ibis_core::build_index_parallel_permuted(&data, binner.clone(), p),
                None => ibis_core::build_index_parallel(&data, binner.clone()),
            });
            check_against(&index, &want)?;
        }
        let serial = match &perm {
            Some(p) => BitmapIndex::build_permuted(&data, binner.clone(), p),
            None => BitmapIndex::build(&data, binner.clone()),
        };
        check_against(&serial, &want)?;
    }

    /// `slice_rows` at arbitrary cuts slices each bin in the form it is
    /// held in and holds each slice in the codec the slice selects: every
    /// slice equals the old path over the sliced data.
    #[test]
    fn slice_rows_gives_the_wah_path_blobs(
        data in long_field(),
        binner in binner(),
        cuts in proptest::collection::vec(0.0f64..1.0, 1..4),
    ) {
        let index = BitmapIndex::build(&data, binner.clone());
        let n = data.len();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| (c * n as f64) as usize).collect();
        cuts.extend([0, n]);
        cuts.sort_unstable();
        for w in cuts.windows(2) {
            let part = index.slice_rows(w[0] as u64..w[1] as u64);
            check_against(&part, &scalar_oracle(&binner, &data[w[0]..w[1]]))?;
        }
    }

    /// Runs past the 30-bit fill counter: a plan of (bin, rows) stretches,
    /// some longer than 2^30 rows, built with `extend_repeat` equals the
    /// old path over the same stretches appended as WAH runs.
    #[test]
    fn extend_repeat_past_the_fill_counter_gives_the_wah_path_blobs(
        plan in proptest::collection::vec(
            (0u32..3, prop_oneof![1u64..200, (1u64 << 30) - 70..(1u64 << 30) + 70]),
            1..4,
        ),
    ) {
        let mut mb = MultiCodecBuilder::new(3);
        let mut wah = vec![WahBuilder::new(); 3];
        for &(bin, n) in &plan {
            mb.extend_repeat(bin, n);
            for (b, w) in wah.iter_mut().enumerate() {
                w.append_run(b as u32 == bin, n);
            }
        }
        let want: Vec<WahVec> = wah.into_iter().map(WahBuilder::finish).collect();
        let got = mb.finish();
        prop_assert_eq!(blobs(&got), wah_path(&want));
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(&g.wah_stats(), w.stats());
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
    let mut mb = MultiCodecBuilder::new(binner.nbins());
    mb.extend_binned(&binner, &data);
    let fast = mb.finish();
    assert_eq!(blobs(&fast), oracle(&binner, &data));
    for f in &fast {
        f.to_wah().check_canonical().unwrap();
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
    let mut mb = MultiCodecBuilder::new(binner.nbins());
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
