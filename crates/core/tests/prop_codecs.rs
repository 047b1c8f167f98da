//! Property tests for the codec layer: every codec round-trips a WAH
//! vector exactly (including its serialized byte form), every cross-codec
//! operand pairing produces the same answer as the uncompressed oracle,
//! Roaring containers upgrade/downgrade at the documented thresholds, and
//! the thread-local operation scratch never leaks state between
//! operations.

use ibis_core::{
    Bitset, CodecId, CodecVec, ContainerForm, RoaringVec, WahVec, ARRAY_MAX, CONTAINER_BITS,
};
use proptest::prelude::*;

const CODECS: [CodecId; 2] = [CodecId::Wah, CodecId::Roaring];

/// Bit patterns spanning every codec's sweet and sour spots: long fills
/// (WAH territory), scattered singletons (Roaring arrays), dense
/// noise (Roaring bitsets), and container-boundary-straddling runs.
fn codec_bits() -> impl Strategy<Value = Vec<bool>> {
    prop_oneof![
        // one value end to end
        (any::<bool>(), 0usize..2000).prop_map(|(b, n)| vec![b; n]),
        // run-structured: a few (value, length) segments
        proptest::collection::vec((any::<bool>(), 1usize..400), 0..8).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        }),
        // scattered singletons over a long domain
        (1usize..6000, proptest::collection::vec(0usize..6000, 0..60)).prop_map(|(len, ones)| {
            let mut v = vec![false; len];
            for i in ones {
                if i < len {
                    v[i] = true;
                }
            }
            v
        }),
        // dense random noise
        proptest::collection::vec(any::<bool>(), 0..1200),
    ]
}

/// Two same-length vectors drawn independently from the pool.
fn codec_pair() -> impl Strategy<Value = (Vec<bool>, Vec<bool>)> {
    (codec_bits(), codec_bits()).prop_map(|(mut a, mut b)| {
        let n = a.len().min(b.len());
        a.truncate(n);
        b.truncate(n);
        (a, b)
    })
}

fn oracle(bits: &[bool]) -> Bitset {
    Bitset::from_bits(bits.iter().copied())
}

proptest! {
    /// WAH → codec → WAH is the identity for every codec, and Roaring's
    /// serialized byte form round-trips too.
    #[test]
    fn every_codec_round_trips_exactly(bits in codec_bits()) {
        let wah = WahVec::from_bits(bits.iter().copied());
        for id in CODECS {
            let cv = CodecVec::with_codec(&wah, id);
            prop_assert_eq!(cv.id(), id);
            prop_assert_eq!(cv.len(), wah.len());
            prop_assert_eq!(cv.count_ones(), wah.count_ones());
            let back = cv.to_wah();
            back.check_canonical().unwrap();
            prop_assert_eq!(back.words(), wah.words(), "codec {}", id.name());
        }

        // byte-level round-trip
        let r = RoaringVec::from_wah(&wah);
        let r2 = RoaringVec::deserialize(&r.serialize()).unwrap();
        let r2w = r2.to_wah();
        prop_assert_eq!(r2w.words(), wah.words());
        prop_assert_eq!(r2.container_forms(), r.container_forms());
    }

    /// Every (codec, codec) operand pairing agrees with the uncompressed
    /// oracle on all six operations, for every result codec.
    #[test]
    fn cross_codec_ops_match_oracle((a_bits, b_bits) in codec_pair()) {
        let wa = WahVec::from_bits(a_bits.iter().copied());
        let wb = WahVec::from_bits(b_bits.iter().copied());

        let mut want_and = oracle(&a_bits);
        want_and.and_assign(&oracle(&b_bits));
        let mut want_or = oracle(&a_bits);
        want_or.or_assign(&oracle(&b_bits));
        let mut want_xor = oracle(&a_bits);
        want_xor.xor_assign(&oracle(&b_bits));
        let want_andnot: Vec<bool> = a_bits
            .iter()
            .zip(&b_bits)
            .map(|(&x, &y)| x && !y)
            .collect();

        for ca in CODECS {
            for cb in CODECS {
                let a = CodecVec::with_codec(&wa, ca);
                let b = CodecVec::with_codec(&wb, cb);
                let label = |op: &str| format!("{} {} {}", ca.name(), op, cb.name());

                prop_assert_eq!(a.and_count(&b), want_and.count_ones(), "{}", label("and_count"));

                for (op, got, want) in [
                    ("and", a.and(&b), &want_and),
                    ("or", a.or(&b), &want_or),
                    ("xor", a.xor(&b), &want_xor),
                ] {
                    let got = got.to_wah();
                    got.check_canonical().unwrap();
                    prop_assert_eq!(got.len(), want.len(), "{}", label(op));
                    for i in 0..got.len() {
                        prop_assert_eq!(got.get(i), want.get(i), "{} bit {}", label(op), i);
                    }
                }
                let got = a.andnot(&b).to_wah();
                got.check_canonical().unwrap();
                prop_assert_eq!(got.len() as usize, want_andnot.len());
                for (i, &w) in want_andnot.iter().enumerate() {
                    prop_assert_eq!(got.get(i as u64), w, "{} bit {}", label("andnot"), i);
                }
            }
        }
    }

    /// Mutating across the array↔bitset threshold upgrades and downgrades
    /// the container, and membership stays exact throughout.
    #[test]
    fn array_bitset_threshold_is_tight(extra in 1usize..40, probe in 0u64..CONTAINER_BITS) {
        // exactly ARRAY_MAX scattered ones: maximal array container
        let mut v = RoaringVec::zeros(CONTAINER_BITS);
        for i in 0..ARRAY_MAX as u64 {
            v.set(i * 16, true);
        }
        prop_assert_eq!(v.container_forms(), vec![ContainerForm::Array]);

        // pushing past the threshold upgrades to a bitset
        for i in 0..extra as u64 {
            v.set(i * 16 + 1, true);
        }
        prop_assert_eq!(v.container_forms(), vec![ContainerForm::Bits]);
        prop_assert_eq!(v.count_ones(), (ARRAY_MAX + extra) as u64);
        prop_assert_eq!(v.get(probe), probe % 16 == 0 || (probe % 16 == 1 && probe / 16 < extra as u64));

        // removing the same ones downgrades back to an array
        for i in 0..extra as u64 {
            v.set(i * 16 + 1, false);
        }
        prop_assert_eq!(v.container_forms(), vec![ContainerForm::Array]);
        prop_assert_eq!(v.count_ones(), ARRAY_MAX as u64);
    }

    /// Runs straddling 64Ki container edges split, convert, and round-trip
    /// exactly.
    #[test]
    fn container_edge_runs_are_exact(
        start_off in -40i64..40,
        run_len in 1u64..200_000,
        ncontainers in 2u64..5,
    ) {
        let len = ncontainers * CONTAINER_BITS;
        let start = (CONTAINER_BITS as i64 + start_off).max(0) as u64;
        let end = (start + run_len).min(len);
        let bits = (0..len).map(|i| i >= start && i < end);
        let v = RoaringVec::from_bits(bits.clone());
        prop_assert_eq!(v.count_ones(), end - start);
        let wah = WahVec::from_bits(bits);
        let vw = v.to_wah();
        prop_assert_eq!(vw.words(), wah.words());
        let v2 = RoaringVec::deserialize(&v.serialize()).unwrap();
        let v2w = v2.to_wah();
        prop_assert_eq!(v2w.words(), wah.words());
        // spot-check membership at the container seams
        for c in 0..=ncontainers {
            for d in [-1i64, 0, 1] {
                let i = (c * CONTAINER_BITS) as i64 + d;
                if i >= 0 && (i as u64) < len {
                    let i = i as u64;
                    prop_assert_eq!(v.get(i), i >= start && i < end, "bit {}", i);
                }
            }
        }
    }

    /// Back-to-back operations reuse the same thread-local scratch pair;
    /// results must not depend on what a previous operation left there.
    #[test]
    fn scratch_reuse_is_clean(pairs in proptest::collection::vec(codec_pair(), 2..5)) {
        for (a_bits, b_bits) in &pairs {
            let a = RoaringVec::from_bits(a_bits.iter().copied());
            let b = RoaringVec::from_bits(b_bits.iter().copied());
            // run every op in sequence on the same thread — each one sees
            // whatever the previous op wrote into the scratch words
            for (op, want) in [
                (a.and(&b), a_bits.iter().zip(b_bits).map(|(&x, &y)| x && y).collect::<Vec<_>>()),
                (a.or(&b), a_bits.iter().zip(b_bits).map(|(&x, &y)| x || y).collect()),
                (a.xor(&b), a_bits.iter().zip(b_bits).map(|(&x, &y)| x != y).collect()),
                (a.andnot(&b), a_bits.iter().zip(b_bits).map(|(&x, &y)| x && !y).collect()),
            ] {
                prop_assert_eq!(op.count_ones(), want.iter().filter(|&&x| x).count() as u64);
                for (i, &w) in want.iter().enumerate() {
                    prop_assert_eq!(op.get(i as u64), w, "bit {}", i);
                }
            }
        }
    }
}
