//! Property tests for the adaptive dense-path kernels, checked against the
//! uncompressed [`Bitset`] oracle across adversarial densities: all-fill
//! vectors, alternating 31-bit runs, dense random noise, and every tail
//! width in `1..31`. Each pair is exercised on both sides of the density
//! cutover, and all materialized results are checked for canonical form.

use ibis_core::{Bitset, DenseBits, WahVec};
use proptest::prelude::*;

/// Adversarial bit patterns for the kernel sweep.
fn kernel_bits() -> impl Strategy<Value = Vec<bool>> {
    prop_oneof![
        // all-fill: one value end to end (tail width varies with len)
        (any::<bool>(), 0usize..1200).prop_map(|(b, n)| vec![b; n]),
        // alternating 31-bit runs — every word is a fill, none mergeable
        (any::<bool>(), 1usize..24, 0usize..31).prop_map(|(start, nruns, tail)| {
            let mut v = Vec::with_capacity(nruns * 31 + tail);
            let mut bit = start;
            for _ in 0..nruns {
                v.extend(std::iter::repeat_n(bit, 31));
                bit = !bit;
            }
            v.extend(std::iter::repeat_n(bit, tail));
            v
        }),
        // dense random noise — incompressible, forces the dense cutover
        proptest::collection::vec(any::<bool>(), 0..900),
        // fill/literal mixture with explicit tail widths 1..31
        (
            proptest::collection::vec((any::<bool>(), 1usize..100), 0..10),
            1usize..31,
            any::<bool>(),
        )
            .prop_map(|(runs, tail, tbit)| {
                let mut v: Vec<bool> = runs
                    .into_iter()
                    .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                    .collect();
                let aligned = v.len() - v.len() % 31;
                v.truncate(aligned);
                v.extend(std::iter::repeat_n(tbit, tail));
                v
            }),
    ]
}

/// Two same-length vectors drawn independently from the adversarial pool.
fn kernel_pair() -> impl Strategy<Value = (Vec<bool>, Vec<bool>)> {
    (kernel_bits(), kernel_bits()).prop_map(|(mut a, mut b)| {
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
    #[test]
    fn materializing_kernels_match_oracle((a_bits, b_bits) in kernel_pair()) {
        let a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());

        let mut want_and = oracle(&a_bits);
        want_and.and_assign(&oracle(&b_bits));
        let mut want_or = oracle(&a_bits);
        want_or.or_assign(&oracle(&b_bits));

        for (got, want) in [(a.and(&b), &want_and), (a.or(&b), &want_or)] {
            got.check_canonical().unwrap();
            prop_assert_eq!(got.len(), want.len());
            for i in 0..got.len() {
                prop_assert_eq!(got.get(i), want.get(i), "bit {}", i);
            }
        }
    }

    #[test]
    fn count_kernels_match_oracle_on_both_cutover_sides((a_bits, b_bits) in kernel_pair()) {
        let a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());
        let mut and_o = oracle(&a_bits);
        and_o.and_assign(&oracle(&b_bits));

        prop_assert_eq!(a.and_count(&b), and_o.count_ones());
    }

    #[test]
    fn dense_roundtrip_is_bit_exact_and_canonical(bits in kernel_bits()) {
        let v = WahVec::from_bits(bits.iter().copied());
        let d = DenseBits::from_wah(&v);
        prop_assert_eq!(d.len(), v.len());
        prop_assert_eq!(d.count_ones(), v.count_ones());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(d.get(i as u64), b, "bit {}", i);
        }
        let back = d.to_wah();
        back.check_canonical().unwrap();
        prop_assert_eq!(&back, &v);
    }

    #[test]
    fn not_is_direct_complement(bits in kernel_bits()) {
        let v = WahVec::from_bits(bits.iter().copied());
        let n = v.not();
        n.check_canonical().unwrap();
        prop_assert_eq!(n.len(), v.len());
        prop_assert_eq!(n.count_ones() + v.count_ones(), v.len());
        prop_assert_eq!(n.not(), v);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(n.get(i as u64), !b);
        }
    }

    #[test]
    fn stats_header_matches_oracle(bits in kernel_bits()) {
        let v = WahVec::from_bits(bits.iter().copied());
        let s = *v.stats();
        prop_assert_eq!(s.ones, oracle(&bits).count_ones());
        prop_assert_eq!(s.words, v.words().len());
        if !bits.is_empty() {
            let want = s.ones as f64 / bits.len() as f64;
            prop_assert!((s.density - want).abs() < 1e-12);
        }
    }

    #[test]
    fn or_many_matches_fold(vecs in proptest::collection::vec(kernel_bits(), 1..6)) {
        // Truncate all inputs to the shortest length so they are unionable.
        let n = vecs.iter().map(Vec::len).min().unwrap_or(0);
        let wahs: Vec<WahVec> = vecs
            .iter()
            .map(|v| WahVec::from_bits(v.iter().take(n).copied()))
            .collect();
        let got = WahVec::or_many(wahs.iter());
        got.check_canonical().unwrap();
        let want = wahs
            .iter()
            .skip(1)
            .fold(wahs[0].clone(), |acc, v| acc.or(v));
        prop_assert_eq!(got, want);
    }
}
