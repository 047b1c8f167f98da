//! Logical operations on WAH vectors, executed directly on the compressed
//! form: the AND count behind the spatial Earth Mover's Distance and the
//! paper's Figure 5 joint table (the label walk's oracle), OR for
//! value-range selections, NOT for a complement plan, and a materialised
//! AND to mask a selection. No statistic needs XOR or AND-NOT: a spatial
//! difference is counted as `|A| + |B| − 2·|A ∧ B|`.

use crate::kernels::{self, DenseBits};
use crate::wah::WahVec;

impl WahVec {
    /// Bitwise AND; both vectors must have the same length.
    pub fn and(&self, other: &WahVec) -> WahVec {
        kernels::and_kernel(self, other)
    }

    /// Bitwise OR.
    pub fn or(&self, other: &WahVec) -> WahVec {
        kernels::or_kernel(self, other)
    }

    /// Bitwise complement — a direct one-pass complement over the runs
    /// (fills flip, literals complement under the width mask).
    pub fn not(&self) -> WahVec {
        kernels::not_kernel(self)
    }

    /// `popcount(a AND b)` without materializing the AND, on the compressed
    /// words (literal stretches batched as packed `u64`s: near verbatim
    /// speed when dense) — the paper's joint-bin kernel, what a joint table
    /// of bins that do not partition their rows and the spatial EMD's
    /// per-bin differences are counted with.
    pub fn and_count(&self, other: &WahVec) -> u64 {
        kernels::and_count_compressed(self, other)
    }

    /// OR of many vectors (all the same length); used for high-level index
    /// construction and value-range queries. Returns an empty vector for an
    /// empty input.
    ///
    /// Two execution strategies, chosen by the combined compressed size:
    ///
    /// * **Dense accumulator** — when the inputs' compressed words together
    ///   outnumber one packed-`u64` buffer (`Σ words > len/64`), every input
    ///   is OR-ed into a [`DenseBits`] accumulator in one pass each and the
    ///   result is encoded once.
    /// * **Pairwise (tree) reduction** otherwise: with `k` inputs the
    ///   accumulator is combined `log k` times instead of `k` times, so a
    ///   wide union of sparse bins does not repeatedly re-walk an
    ///   ever-denser accumulator. The first round operates on the borrowed
    ///   inputs directly instead of cloning them all up front.
    pub fn or_many<'a, I: IntoIterator<Item = &'a WahVec>>(vecs: I) -> WahVec {
        let inputs: Vec<&WahVec> = vecs.into_iter().collect();
        let Some(&first) = inputs.first() else {
            return WahVec::new();
        };
        if inputs.len() == 1 {
            return first.clone();
        }
        let len = first.len();
        let total_words: usize = inputs.iter().map(|v| v.words().len()).sum();
        if total_words as u64 > len / 64 {
            let mut acc = DenseBits::zeros(len);
            for v in &inputs {
                acc.or_wah(v);
            }
            return acc.to_wah();
        }
        let mut layer: Vec<WahVec> = inputs
            .chunks(2)
            .map(|pair| match pair {
                [a, b] => a.or(b),
                [a] => (*a).clone(),
                _ => unreachable!("chunks(2) yields 1..=2 items"),
            })
            .collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks_exact(2);
            for pair in &mut it {
                next.push(pair[0].or(&pair[1]));
            }
            if let [odd] = it.remainder() {
                next.push(odd.clone());
            }
            layer = next;
        }
        layer.pop().expect("non-empty layer")
    }
}

/// The one kernel that reads two stored bins across codecs: every
/// materialised set operation runs on WAH, and a stored Roaring bin is
/// only ever counted against another bin, never combined into a new one.
impl crate::codec::CodecVec {
    /// `popcount(self AND other)` without materializing, on the native
    /// counting kernel of whichever codec pair this is: same-codec pairs
    /// run their own kernels (WAH's compressed walk, Roaring's
    /// container-pair dispatch); in a mixed pair the WAH operand joins the
    /// Roaring one by exact `from_wah` conversion (runs → ranges, literals
    /// → scattered bits, no bit expansion).
    pub fn and_count(&self, other: &Self) -> u64 {
        use crate::codec::CodecVec::*;
        match (self, other) {
            (Wah(a), Wah(b)) => a.and_count(b),
            (Roaring(a), Roaring(b)) => a.and_count(b),
            (Roaring(a), Wah(b)) => a.and_count(&crate::RoaringVec::from_wah(b)),
            (Wah(a), Roaring(b)) => crate::RoaringVec::from_wah(a).and_count(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_op(a: &[bool], b: &[bool], f: impl Fn(bool, bool) -> bool) -> Vec<bool> {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    }

    fn cases() -> Vec<(Vec<bool>, Vec<bool>)> {
        let lens = [0usize, 1, 30, 31, 32, 62, 93, 100, 311, 1000];
        lens.iter()
            .map(|&n| {
                let a: Vec<bool> = (0..n).map(|i| (i * 7) % 11 < 5).collect();
                let b: Vec<bool> = (0..n).map(|i| i % 2 == 0 || i > n / 2).collect();
                (a, b)
            })
            .collect()
    }

    #[test]
    fn and_or_match_naive() {
        for (a_bits, b_bits) in cases() {
            let a = WahVec::from_bits(a_bits.iter().copied());
            let b = WahVec::from_bits(b_bits.iter().copied());
            assert_eq!(
                a.and(&b).to_bools(),
                naive_op(&a_bits, &b_bits, |x, y| x & y)
            );
            assert_eq!(
                a.or(&b).to_bools(),
                naive_op(&a_bits, &b_bits, |x, y| x | y)
            );
            a.and(&b).check_canonical().unwrap();
            a.or(&b).check_canonical().unwrap();
        }
    }

    #[test]
    fn counts_match_materialized() {
        for (a_bits, b_bits) in cases() {
            let a = WahVec::from_bits(a_bits.iter().copied());
            let b = WahVec::from_bits(b_bits.iter().copied());
            assert_eq!(a.and_count(&b), a.and(&b).count_ones());
        }
    }

    #[test]
    fn cross_codec_ops_agree_with_wah() {
        use crate::codec::{CodecId, CodecVec};
        let a_bits: Vec<bool> = (0..80_000).map(|i| (i * 7) % 13 < 4).collect();
        let b_bits: Vec<bool> = (0..80_000).map(|i| i % 101 == 0 || i > 60_000).collect();
        let wa = WahVec::from_bits(a_bits.iter().copied());
        let wb = WahVec::from_bits(b_bits.iter().copied());
        let ids = [CodecId::Wah, CodecId::Roaring];
        for ia in ids {
            for ib in ids {
                let ca = CodecVec::with_codec(&wa, ia);
                let cb = CodecVec::with_codec(&wb, ib);
                let label = format!("{}×{}", ia.name(), ib.name());
                assert_eq!(
                    ca.and_count(&cb),
                    wa.and(&wb).count_ones(),
                    "and_count {label}"
                );
                assert_eq!(
                    cb.and_count(&ca),
                    wa.and_count(&wb),
                    "and_count {label}, swapped"
                );
            }
        }
    }

    #[test]
    fn not_flips_everything() {
        let bits: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let n = v.not();
        assert_eq!(n.to_bools(), bits.iter().map(|&b| !b).collect::<Vec<_>>());
        assert_eq!(n.count_ones() + v.count_ones(), 200);
        n.check_canonical().unwrap();
    }

    #[test]
    fn fill_fast_path_stays_compressed() {
        let a = WahVec::zeros(1_000_000);
        let b = WahVec::ones(1_000_000);
        let r = a.or(&b);
        assert_eq!(r.count_ones(), 1_000_000);
        assert!(r.words().len() <= 2);
        let r = a.and(&b);
        assert_eq!(r.count_ones(), 0);
        assert!(r.words().len() <= 2);
    }

    #[test]
    fn fill_fast_path_mixed_lengths() {
        // a: big zero fill then ones; b: ones then zero fill — forces the
        // min(na, nb) splitting logic through several iterations.
        let mut a_bits = vec![false; 31 * 50];
        a_bits.extend(vec![true; 31 * 30]);
        let mut b_bits = vec![true; 31 * 20];
        b_bits.extend(vec![false; 31 * 60]);
        let a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());
        for (got, op) in [
            (a.and(&b), (|x, y| x & y) as fn(bool, bool) -> bool),
            (a.or(&b), |x, y| x | y),
        ] {
            assert_eq!(got.to_bools(), naive_op(&a_bits, &b_bits, op));
        }
        assert_eq!(a.or(&b).count_ones(), (31 * 20 + 31 * 30) as u64);
    }

    #[test]
    #[should_panic(expected = "different-length")]
    fn length_mismatch_panics() {
        let _ = WahVec::zeros(31).and(&WahVec::zeros(62));
    }

    #[test]
    fn or_many_unions() {
        let vs: Vec<WahVec> = (0..5).map(|k| WahVec::from_ones(&[k * 10], 100)).collect();
        let u = WahVec::or_many(vs.iter());
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![0, 10, 20, 30, 40]);
        assert_eq!(WahVec::or_many(std::iter::empty()).len(), 0);
        let single = WahVec::or_many(std::iter::once(&vs[0]));
        assert_eq!(single, vs[0]);
    }

    #[test]
    fn ops_on_empty_vectors() {
        let e = WahVec::new();
        assert_eq!(e.and(&e).len(), 0);
        assert_eq!(e.and_count(&e), 0);
        assert_eq!(e.not().len(), 0);
    }

    #[test]
    fn demorgan() {
        let a = WahVec::from_bits((0..500).map(|i| (i * 3) % 7 == 0));
        let b = WahVec::from_bits((0..500).map(|i| (i * 5) % 11 < 4));
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }
}
