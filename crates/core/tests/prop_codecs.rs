//! Property tests for the codec layer: every codec round-trips a WAH
//! vector exactly (including its serialized byte form), every cross-codec
//! operand pairing counts the same AND as the uncompressed oracle, each
//! codec answers range counts, range probes and the dense OR exactly, a
//! Roaring chunk takes the form the documented thresholds give it, every
//! container-form pair counts its AND exactly at equal and skewed sizes,
//! and a Roaring vector's counted `WahStats` are its WAH form's.

use ibis_core::{
    Bitset, CodecId, CodecVec, ContainerForm, DenseBits, RoaringVec, WahVec, ARRAY_MAX,
    CONTAINER_BITS,
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
        prop_assert_eq!(&r.wah_stats(), wah.stats());
        let r2 = RoaringVec::deserialize(&r.serialize()).unwrap();
        let r2w = r2.to_wah();
        prop_assert_eq!(r2w.words(), wah.words());
        prop_assert_eq!(r2.container_forms(), r.container_forms());
    }

    /// Every (codec, codec) operand pairing agrees with the uncompressed
    /// oracle on the AND count, and each codec on what a stored bin is
    /// asked: counts and probes over row ranges and an OR into a dense
    /// accumulator.
    #[test]
    fn cross_codec_ops_match_oracle((a_bits, b_bits) in codec_pair()) {
        let wa = WahVec::from_bits(a_bits.iter().copied());
        let wb = WahVec::from_bits(b_bits.iter().copied());

        let mut want_and = oracle(&a_bits);
        want_and.and_assign(&oracle(&b_bits));
        let mut want_or = oracle(&a_bits);
        want_or.or_assign(&oracle(&b_bits));
        let n = a_bits.len() as u64;
        let ranges = [0..n / 3, n / 2..(n / 2 + 1).min(n), n - n / 4..n];
        let in_ranges = |bits: &[bool]| -> u64 {
            let rows = ranges.iter().flat_map(|r| r.start as usize..r.end as usize);
            rows.filter(|&i| bits[i]).count() as u64
        };

        for ca in CODECS {
            let a = CodecVec::with_codec(&wa, ca);
            prop_assert_eq!(a.count_ones_in_ranges(&ranges), in_ranges(&a_bits), "{}", ca.name());
            prop_assert_eq!(a.intersects_ranges(&ranges), in_ranges(&a_bits) > 0, "{}", ca.name());
            for cb in CODECS {
                let b = CodecVec::with_codec(&wb, cb);
                let label = format!("{} and_count {}", ca.name(), cb.name());
                prop_assert_eq!(a.and_count(&b), want_and.count_ones(), "{}", label);

                let mut acc = DenseBits::zeros(n);
                acc.or_stored(&a);
                acc.or_stored(&b);
                let got = acc.to_wah();
                got.check_canonical().unwrap();
                prop_assert_eq!(got.len(), n);
                for i in 0..n {
                    prop_assert_eq!(got.get(i), want_or.get(i), "{} dense OR {} bit {}", ca.name(), cb.name(), i);
                }
            }
        }
    }

    /// A chunk's form follows its cardinality across the array↔bitset
    /// threshold, and membership stays exact on both sides.
    #[test]
    fn array_bitset_threshold_is_tight(extra in 0usize..40, probe in 0u64..CONTAINER_BITS) {
        // ARRAY_MAX scattered ones (every 16th bit), plus `extra` beside them
        let set = |i: u64| i.is_multiple_of(16) || (i % 16 == 1 && i / 16 < extra as u64);
        let v = RoaringVec::from_wah(&WahVec::from_bits((0..CONTAINER_BITS).map(set)));
        let want = if extra == 0 { ContainerForm::Array } else { ContainerForm::Bits };
        prop_assert_eq!(v.container_forms(), vec![want]);
        prop_assert_eq!(v.count_ones(), (ARRAY_MAX + extra) as u64);
        prop_assert_eq!(v.get(probe), set(probe));
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
        prop_assert_eq!(&v.wah_stats(), wah.stats());
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

    /// `and_count` over every container-form pair — array, bitset and run
    /// containers, two chunks each — at equal sizes and at the ≥ 16× skew
    /// where array × array gallops instead of merging, equals the WAH
    /// `and_count` of the same bits.
    #[test]
    fn and_count_over_every_container_form_pair(
        a in form_bits(),
        b in form_bits(),
        skew in prop_oneof![Just(1usize), Just(2), Just(16), Just(64)],
    ) {
        let ((fa, a), (fb, mut b)) = (a, b);
        // thin b's rows `skew`-fold: an array stays an array, 16× smaller
        if skew > 1 && fb == ContainerForm::Array {
            for (seen, bit) in b.iter_mut().filter(|bit| **bit).enumerate() {
                *bit = seen.is_multiple_of(skew);
            }
        }
        let (ra, rb) = (RoaringVec::from_bits(a.iter().copied()), RoaringVec::from_bits(b.iter().copied()));
        prop_assert_eq!(ra.container_forms(), vec![fa; 2]);
        prop_assert!(rb.container_forms().iter().all(|&f| f == fb || f == ContainerForm::Array));
        let (wa, wb) = (WahVec::from_bits(a.iter().copied()), WahVec::from_bits(b.iter().copied()));
        let want = wa.and_count(&wb);
        prop_assert_eq!(ra.and_count(&rb), want, "{:?} x {:?} skew {}", fa, fb, skew);
        prop_assert_eq!(rb.and_count(&ra), want);
    }
}

/// Two chunks' worth of bits whose every chunk takes one container form:
/// scattered rows (an array, below [`ARRAY_MAX`] a chunk), dense noise (a
/// bitset) or a few long runs (runs).
fn form_bits() -> impl Strategy<Value = (ContainerForm, Vec<bool>)> {
    let n = 2 * CONTAINER_BITS;
    let hash = |i: u64, seed: u64| (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
    prop_oneof![
        // isolated rows: every other row at most, so no run forms
        (1u64..3000, any::<u64>()).prop_map(move |(per_chunk, seed)| {
            let keep = (CONTAINER_BITS / 2) / per_chunk;
            let bits = (0..n).map(|i| i % 2 == 0 && hash(i, seed) % keep == 0);
            (ContainerForm::Array, bits.collect())
        }),
        (any::<u64>(), 20u64..80).prop_map(move |(seed, pct)| {
            let bits = (0..n).map(|i| hash(i, seed) % 100 < pct);
            (ContainerForm::Bits, bits.collect())
        }),
        (any::<u64>(), 1u64..40).prop_map(move |(seed, runs)| {
            let period = CONTAINER_BITS / runs;
            let bits = (0..n).map(|i| (i + seed % period) % period < period / 2);
            (ContainerForm::Runs, bits.collect())
        }),
    ]
}
