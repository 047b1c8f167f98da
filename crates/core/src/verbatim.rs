//! A plain uncompressed bitset.
//!
//! Serves two roles: the correctness oracle for the compressed [`WahVec`]
//! (every compressed operation is property-tested against it) and the
//! "bitmaps before compression" baseline whose size the paper notes can
//! exceed the original data (Section 2.1).

use crate::WahVec;

/// Uncompressed bitset backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    len: u64,
}

impl Bitset {
    /// An all-zeros bitset of `len` bits.
    pub fn new(len: u64) -> Self {
        Bitset {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0u64;
        let mut cur = 0u64;
        for bit in bits {
            if bit {
                cur |= 1 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(cur);
        }
        Bitset { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the bitset holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to `value`.
    pub fn set(&mut self, i: u64, value: bool) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let (w, b) = ((i / 64) as usize, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Reads bit `i`.
    pub fn get(&self, i: u64) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[(i / 64) as usize] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// In-place AND.
    pub fn and_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place OR.
    pub fn or_assign(&mut self, other: &Bitset) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Size in bytes — the uncompressed cost the paper's Section 2.1 warns
    /// about (`n × m` bits across an index's bitvectors).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8 + std::mem::size_of::<Bitset>()
    }

    /// Compresses into a [`WahVec`].
    pub fn to_wah(&self) -> WahVec {
        WahVec::from_bits((0..self.len).map(|i| self.get(i)))
    }
}

/// The naive two-phase index construction the paper's Algorithm 1 replaces:
/// first materialize every *uncompressed* bitvector, then compress each.
/// Output is identical to [`crate::BitmapIndex::build`], but the transient
/// footprint is `nbins × n` bits — "bitmaps before compression can require
/// more memory than the original data" (Section 2.1) — which the ablation
/// bench quantifies.
///
/// Returns the compressed index and the peak transient bytes the
/// uncompressed phase held.
pub fn build_index_two_phase(data: &[f64], binner: crate::Binner) -> (crate::BitmapIndex, usize) {
    let n = data.len() as u64;
    let mut sets: Vec<Bitset> = (0..binner.nbins()).map(|_| Bitset::new(n)).collect();
    let mut ids = Vec::new();
    binner.bin_into(data, &mut ids);
    for (i, &id) in ids.iter().enumerate() {
        sets[id as usize].set(i as u64, true);
    }
    let transient: usize = sets.iter().map(Bitset::size_bytes).sum();
    let bins = sets.iter().map(Bitset::to_wah).collect();
    (crate::BitmapIndex::from_bins(binner, bins), transient)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitset::new(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert_eq!(b.count_ones(), 3);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn logical_ops() {
        let a_bits: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let b_bits: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let a = Bitset::from_bits(a_bits.iter().copied());
        let b = Bitset::from_bits(b_bits.iter().copied());
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x.count_ones(), 17);
        let mut y = a.clone();
        y.or_assign(&b);
        for i in 0..100u64 {
            assert_eq!(y.get(i), a_bits[i as usize] | b_bits[i as usize]);
        }
    }

    #[test]
    fn wah_roundtrip() {
        let bits: Vec<bool> = (0..200).map(|i| (i * 13) % 17 < 5).collect();
        let b = Bitset::from_bits(bits.iter().copied());
        let w = b.to_wah();
        assert_eq!(w.to_bools(), bits);
        assert_eq!(w.count_ones(), b.count_ones());
    }

    #[test]
    fn two_phase_build_matches_streaming() {
        let data: Vec<f64> = (0..5000).map(|i| ((i / 37) % 12) as f64).collect();
        let binner = crate::Binner::distinct_ints(0, 11);
        let streaming = crate::BitmapIndex::build(&data, binner.clone());
        let (two_phase, transient) = build_index_two_phase(&data, binner);
        for b in 0..12 {
            assert_eq!(streaming.bin(b), two_phase.bin(b), "bin {b}");
        }
        // the uncompressed phase held nbins × n bits — more than the data
        assert!(transient > data.len(), "transient {transient} bytes");
        assert!(
            transient > two_phase.size_bytes(),
            "compression must shrink it"
        );
    }

    #[test]
    fn compression_wins_on_runs() {
        let mut b = Bitset::new(1_000_000);
        b.set(500_000, true);
        let w = b.to_wah();
        assert!(w.size_bytes() * 100 < b.size_bytes());
    }
}
