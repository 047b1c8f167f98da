//! The WAH-compressed bitvector used throughout `ibis`.
//!
//! This is the 32-bit word-aligned-hybrid variant from the paper's
//! Algorithm 1:
//!
//! * **literal word** — most-significant bit is `0`; the low 31 bits hold a
//!   31-bit segment of the bitvector, LSB-first (bit `j` of the segment is
//!   `1 << j`).
//! * **0-fill word** — the top two bits are `10`; the low 30 bits count the
//!   number of zero *bits* covered (always a multiple of 31).
//! * **1-fill word** — the top two bits are `11`; the low 30 bits count the
//!   number of one *bits* covered (always a multiple of 31).
//!
//! Unlike classic WAH (which counts fill *words*), the paper's variant counts
//! fill *bits* and extends a fill by literally adding `31` to the previous
//! word (`LastSeg += 31` in Algorithm 1); we keep that representation.
//!
//! A vector of `len` bits where `len % 31 != 0` stores its final partial
//! segment in a trailing literal word holding `len % 31` bits; everything
//! before the tail covers whole 31-bit segments.

use std::ops::Range;
use std::sync::OnceLock;

use crate::builder::WahBuilder;
use crate::kernels::WahStats;
use crate::runs::{Ones, OnesCursor, Run, RunIter};

/// Number of payload bits per literal word / per fill increment.
pub const SEG_BITS: u64 = 31;
/// Mask selecting the 31 payload bits of a literal word.
pub const LITERAL_MASK: u32 = 0x7FFF_FFFF;
/// Mask selecting the two flag bits of a word.
pub const FLAG_MASK: u32 = 0xC000_0000;
/// Flag bits of a 0-fill word (`10…`).
pub const ZERO_FILL: u32 = 0x8000_0000;
/// Flag bits of a 1-fill word (`11…`).
pub const ONE_FILL: u32 = 0xC000_0000;
/// Mask selecting the 30-bit fill counter.
pub const COUNT_MASK: u32 = 0x3FFF_FFFF;
/// Largest bit count a single fill word may hold (a multiple of 31 chosen so
/// that adding another 31 bits can never overflow into the flag bits).
pub const MAX_FILL_BITS: u64 = ((COUNT_MASK as u64 - SEG_BITS) / SEG_BITS) * SEG_BITS;

/// Returns `true` if `word` is a fill word (of either bit).
#[inline]
pub fn is_fill(word: u32) -> bool {
    word & ZERO_FILL != 0
}

/// Returns `true` if `word` is a 1-fill word.
#[inline]
pub fn is_one_fill(word: u32) -> bool {
    word & FLAG_MASK == ONE_FILL
}

/// Returns `true` if `word` is a 0-fill word.
#[inline]
pub fn is_zero_fill(word: u32) -> bool {
    word & FLAG_MASK == ZERO_FILL
}

/// Number of bits covered by a fill word.
#[inline]
pub fn fill_bits(word: u32) -> u64 {
    (word & COUNT_MASK) as u64
}

/// Builds a fill word for `bit` covering `nbits` bits.
///
/// # Panics
/// Panics when `nbits` exceeds the 30-bit fill counter or is not a
/// positive multiple of 31. These are real asserts, not debug asserts: a
/// count above [`COUNT_MASK`] would otherwise silently truncate into the
/// flag bits in release builds and corrupt the vector — runs longer than
/// one fill word can hold must be *split* by the caller (as
/// `WahBuilder::append_fill_aligned` does), never clamped here.
#[inline]
pub fn make_fill(bit: bool, nbits: u64) -> u32 {
    assert!(
        nbits <= COUNT_MASK as u64,
        "fill of {nbits} bits overflows the 30-bit counter; split the run"
    );
    assert!(
        nbits.is_multiple_of(SEG_BITS) && nbits > 0,
        "fill of {nbits} bits is not a positive multiple of 31"
    );
    (if bit { ONE_FILL } else { ZERO_FILL }) | nbits as u32
}

/// Why a raw word stream fails [`WahVec::try_from_raw`] validation. A
/// decoder that executes such a stream anyway would read out of bounds or
/// mis-count runs, so every variant must be rejected before construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawWahError {
    /// A fill word with a zero or non-segment-aligned run length.
    MalformedFill {
        /// Index of the offending word.
        word: usize,
    },
    /// A fill word whose run extends past the declared bit length.
    OverlongFill {
        /// Index of the offending word.
        word: usize,
        /// Bits covered before this word.
        covered: u64,
        /// Run length the fill claims.
        run_bits: u64,
        /// Declared total bit length.
        len_bits: u64,
    },
    /// A literal word with bits set beyond the tail mask.
    UnmaskedLiteral {
        /// Index of the offending word.
        word: usize,
    },
    /// Words continue after the declared bit length was already covered.
    TrailingWords {
        /// Index of the first excess word.
        word: usize,
    },
    /// The words end before covering the declared bit length.
    ShortWords {
        /// Bits the words actually cover.
        covered: u64,
        /// Declared total bit length.
        len_bits: u64,
    },
}

impl std::fmt::Display for RawWahError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RawWahError::MalformedFill { word } => {
                write!(f, "word {word}: fill with zero or misaligned run length")
            }
            RawWahError::OverlongFill {
                word,
                covered,
                run_bits,
                len_bits,
            } => write!(
                f,
                "word {word}: fill of {run_bits} bits at offset {covered} \
                 overruns the declared length {len_bits}"
            ),
            RawWahError::UnmaskedLiteral { word } => {
                write!(f, "word {word}: literal with bits beyond the tail mask")
            }
            RawWahError::TrailingWords { word } => {
                write!(f, "word {word}: words continue past the declared length")
            }
            RawWahError::ShortWords { covered, len_bits } => write!(
                f,
                "words cover only {covered} of the declared {len_bits} bits"
            ),
        }
    }
}

impl std::error::Error for RawWahError {}

/// A WAH-compressed bitvector.
///
/// `WahVec` is the compressed bitvector produced by the paper's streaming
/// Algorithm 1 and consumed by every bitmap-only analysis: logical
/// AND/OR/NOT run directly on the compressed words, and 1-bit counts are
/// computed without decompression.
///
/// ```
/// use ibis_core::WahVec;
///
/// let a = WahVec::from_bits((0..100).map(|i| i % 2 == 0));
/// let b = WahVec::from_bits((0..100).map(|i| i % 3 == 0));
/// let both = a.and(&b); // positions divisible by 6
/// assert_eq!(both.count_ones(), 17);
/// ```
#[derive(Clone)]
pub struct WahVec {
    pub(crate) words: Vec<u32>,
    pub(crate) len_bits: u64,
    /// Lazily-computed stats header (word/run counts, popcount, density);
    /// filled on first use and carried along by `Clone`. Not part of the
    /// vector's identity — equality and hashing use only the words.
    pub(crate) stats: OnceLock<WahStats>,
}

impl PartialEq for WahVec {
    fn eq(&self, other: &Self) -> bool {
        self.len_bits == other.len_bits && self.words == other.words
    }
}

impl Eq for WahVec {}

impl std::hash::Hash for WahVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words.hash(state);
        self.len_bits.hash(state);
    }
}

impl std::fmt::Debug for WahVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WahVec {{ len: {}, ones: {}, words: {} }}",
            self.len_bits,
            self.count_ones(),
            self.words.len()
        )
    }
}

impl WahVec {
    /// The empty bitvector.
    pub fn new() -> Self {
        WahVec {
            words: Vec::new(),
            len_bits: 0,
            stats: OnceLock::new(),
        }
    }

    /// An all-zeros bitvector of `len` bits.
    pub fn zeros(len: u64) -> Self {
        Self::filled(false, len)
    }

    /// An all-ones bitvector of `len` bits.
    pub fn ones(len: u64) -> Self {
        Self::filled(true, len)
    }

    fn filled(bit: bool, len: u64) -> Self {
        let mut b = WahBuilder::new();
        b.append_run(bit, len);
        b.finish()
    }

    /// Builds a vector from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut b = WahBuilder::new();
        for bit in bits {
            b.push_bit(bit);
        }
        b.finish()
    }

    /// Builds a vector of `len` bits with ones at the given sorted,
    /// strictly-increasing positions.
    ///
    /// # Panics
    /// Panics if positions are not strictly increasing or exceed `len`.
    pub fn from_ones(positions: &[u64], len: u64) -> Self {
        let mut b = WahBuilder::new();
        let mut cur = 0u64;
        for &p in positions {
            assert!(p >= cur, "positions must be strictly increasing");
            assert!(p < len, "position {p} out of range {len}");
            b.append_run(false, p - cur);
            b.push_bit(true);
            cur = p + 1;
        }
        b.append_run(false, len - cur);
        b.finish()
    }

    /// Reconstructs a vector from raw compressed words and its bit length
    /// (deserialization). Returns `None` unless the words cover exactly
    /// `len_bits` bits with well-formed fills and masked literals.
    pub fn from_raw(words: Vec<u32>, len_bits: u64) -> Option<Self> {
        Self::try_from_raw(words, len_bits).ok()
    }

    /// [`WahVec::from_raw`] with a typed verdict on *why* the words are
    /// malformed — the distinction a robust decoder needs to report
    /// adversarial or torn inputs instead of collapsing them into `None`.
    pub fn try_from_raw(words: Vec<u32>, len_bits: u64) -> Result<Self, RawWahError> {
        let mut covered = 0u64;
        for (i, &w) in words.iter().enumerate() {
            if covered >= len_bits {
                return Err(RawWahError::TrailingWords { word: i });
            }
            if is_fill(w) {
                let n = fill_bits(w);
                if n == 0 || !n.is_multiple_of(SEG_BITS) {
                    return Err(RawWahError::MalformedFill { word: i });
                }
                if covered + n > len_bits {
                    return Err(RawWahError::OverlongFill {
                        word: i,
                        covered,
                        run_bits: n,
                        len_bits,
                    });
                }
                covered += n;
            } else {
                let nbits = (len_bits - covered).min(SEG_BITS);
                let mask = if nbits == SEG_BITS {
                    LITERAL_MASK
                } else {
                    (1u32 << nbits) - 1
                };
                if w & !mask != 0 {
                    return Err(RawWahError::UnmaskedLiteral { word: i });
                }
                covered += nbits;
            }
        }
        if covered != len_bits {
            return Err(RawWahError::ShortWords { covered, len_bits });
        }
        Ok(WahVec {
            words,
            len_bits,
            stats: OnceLock::new(),
        })
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len_bits
    }

    /// `true` if the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The raw compressed words (for inspection / serialization).
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Compressed size in bytes (words + header), the quantity the paper's
    /// memory and I/O accounting uses.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4 + std::mem::size_of::<WahVec>()
    }

    /// Iterates the decoded runs of the vector.
    #[inline]
    pub(crate) fn runs(&self) -> RunIter<'_> {
        RunIter::new(&self.words, self.len_bits)
    }

    /// Number of 1-bits; computed on the compressed form once and cached
    /// in the stats header.
    pub fn count_ones(&self) -> u64 {
        self.stats().ones
    }

    /// The cached statistics header (word count, kernel-run count,
    /// popcount, density), computed in one pass on first use.
    pub fn stats(&self) -> &WahStats {
        self.stats
            .get_or_init(|| crate::kernels::compute_stats(&self.words, self.len_bits))
    }

    /// The adaptive kernels' cutover rule (α = 1): `true` when the
    /// compressed form holds more words than the packed-`u64` verbatim
    /// form (`words > len/64`), at which point ops decode this vector once
    /// and run word-parallel instead of walking its runs.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.words.len() as u64 > self.len_bits / 64
    }

    /// Number of 1-bits in the half-open bit range `[start, end)`.
    pub fn count_ones_in_range(&self, start: u64, end: u64) -> u64 {
        assert!(start <= end, "range out of bounds");
        self.count_ones_in_ranges(std::slice::from_ref(&(start..end)))
    }

    /// Number of 1-bits inside `ranges` — half-open, sorted and disjoint —
    /// in one forward pass over the compressed words that stops at the
    /// last range's end. The ranges a 0-fill covers are skipped by binary
    /// search: the cost follows this vector's words, not the range count.
    ///
    /// # Panics
    /// Panics when the last range ends past the vector's length.
    pub fn count_ones_in_ranges(&self, ranges: &[Range<u64>]) -> u64 {
        let inside = ranges.last().is_none_or(|r| r.end <= self.len_bits);
        assert!(inside, "range out of bounds");
        debug_assert!(
            ranges.iter().all(|r| r.start <= r.end)
                && ranges.windows(2).all(|w| w[0].end <= w[1].start),
            "ranges must be sorted and disjoint"
        );
        // `k` is the first range not yet behind the pass, `end` the bit
        // after the current word.
        let (mut total, mut k, mut end) = (0u64, 0usize, 0u64);
        for &w in &self.words {
            if k == ranges.len() {
                break;
            }
            let pos = end;
            // A partial tail literal passes as a whole segment: its unused
            // bits are zero and no range reaches past the length.
            end += if is_fill(w) { fill_bits(w) } else { SEG_BITS };
            if is_zero_fill(w) {
                k += ranges[k..].partition_point(|r| r.end <= end);
                continue;
            }
            while let Some(r) = ranges.get(k).filter(|r| r.start < end) {
                let (lo, hi) = (r.start.max(pos), r.end.min(end));
                total += if is_fill(w) {
                    hi - lo
                } else {
                    // at most 31 bits wide: the shift cannot overflow
                    (w & (((1u32 << (hi - lo)) - 1) << (lo - pos))).count_ones() as u64
                };
                if r.end > end {
                    break; // the range runs on into the next word
                }
                k += 1;
            }
        }
        total
    }

    /// `rank(i)`: number of 1-bits in `[0, i)` — equivalent to
    /// `count_ones_in_range(0, i)` but named for the classic succinct-index
    /// operation.
    pub fn rank(&self, i: u64) -> u64 {
        self.count_ones_in_range(0, i)
    }

    /// `select(k)`: position of the `k`-th 1-bit (0-based), or `None` when
    /// fewer than `k + 1` bits are set. One run-decoding pass.
    pub fn select(&self, k: u64) -> Option<u64> {
        let mut remaining = k;
        let mut pos = 0u64;
        for run in self.runs() {
            match run {
                Run::Fill(false, n) => pos += n,
                Run::Fill(true, n) => {
                    if remaining < n {
                        return Some(pos + remaining);
                    }
                    remaining -= n;
                    pos += n;
                }
                Run::Literal(payload, nbits) => {
                    let ones = payload.count_ones() as u64;
                    if remaining < ones {
                        // walk the word's set bits
                        let mut p = payload;
                        for _ in 0..remaining {
                            p &= p - 1; // clear lowest set bit
                        }
                        return Some(pos + p.trailing_zeros() as u64);
                    }
                    remaining -= ones;
                    pos += nbits as u64;
                }
            }
        }
        None
    }

    /// Reads the bit at position `i` (O(words) scan).
    pub fn get(&self, i: u64) -> bool {
        assert!(
            i < self.len_bits,
            "index {i} out of range {}",
            self.len_bits
        );
        let mut pos = 0u64;
        for run in self.runs() {
            let n = run.len();
            if i < pos + n {
                return match run {
                    Run::Fill(bit, _) => bit,
                    Run::Literal(payload, _) => payload & (1 << (i - pos)) != 0,
                };
            }
            pos += n;
        }
        unreachable!("runs cover fewer bits than len")
    }

    /// Iterates every bit in order.
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        self.runs().flat_map(|run| {
            let (bit_fn, n): (Box<dyn Fn(u64) -> bool>, u64) = match run {
                Run::Fill(bit, n) => (Box::new(move |_| bit), n),
                Run::Literal(payload, nbits) => {
                    (Box::new(move |j| payload & (1 << j) != 0), nbits as u64)
                }
            };
            (0..n).map(bit_fn)
        })
    }

    /// A windowed cursor over the 1-bits ([`OnesCursor`]).
    #[inline]
    pub fn ones_cursor(&self) -> OnesCursor<'_> {
        OnesCursor::new(&self.words)
    }

    /// Iterates the positions of 1-bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cursor = self.ones_cursor();
        let (mut fill, mut base, mut bits) = (0..0, 0u64, 0u32);
        std::iter::from_fn(move || loop {
            if let Some(pos) = fill.next() {
                return Some(pos);
            }
            if bits != 0 {
                let pos = base + bits.trailing_zeros() as u64;
                bits &= bits - 1;
                return Some(pos);
            }
            match cursor.next_before(u64::MAX)? {
                Ones::Fill(start, end) => fill = start..end,
                Ones::Literal(at, payload) => (base, bits) = (at, payload),
            }
        })
    }

    /// Decompresses into a `Vec<bool>` (testing / debugging aid).
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter_bits().collect()
    }

    /// Appends another vector's bits after this one's. The receiver must end
    /// on a 31-bit segment boundary (the parallel generator partitions data
    /// on such boundaries precisely so sub-block results concatenate).
    ///
    /// # Panics
    /// Panics if `self.len() % 31 != 0` and `other` is non-empty.
    pub fn concat(&mut self, other: &WahVec) {
        if other.is_empty() {
            return;
        }
        assert!(
            self.len_bits.is_multiple_of(SEG_BITS),
            "concat target must end on a segment boundary (len {} % 31 != 0)",
            self.len_bits
        );
        let mut b = WahBuilder::from_vec(std::mem::take(self));
        b.append_wah(other);
        *self = b.finish();
    }

    /// The sub-vector covering the half-open bit range `[start, end)`,
    /// rebuilt in canonical form: slicing and then concatenating
    /// segment-aligned pieces reproduces the original words exactly. This
    /// is the row-range splitter behind spatial sharding — a shard's bin is
    /// `bin.slice(shard_lo..shard_hi)` of the global bin. One pass over the
    /// compressed runs; O(words) when the cut lands inside fills.
    ///
    /// # Panics
    /// Panics when the range is inverted or exceeds the vector length.
    pub fn slice(&self, range: std::ops::Range<u64>) -> WahVec {
        assert!(
            range.start <= range.end && range.end <= self.len_bits,
            "slice {}..{} out of bounds for {} bits",
            range.start,
            range.end,
            self.len_bits
        );
        let mut b = WahBuilder::new();
        let mut pos = 0u64;
        for run in self.runs() {
            if pos >= range.end {
                break;
            }
            let n = run.len();
            let (lo, hi) = (range.start.max(pos), range.end.min(pos + n));
            if lo < hi {
                match run {
                    Run::Fill(bit, _) => b.append_run(bit, hi - lo),
                    Run::Literal(payload, _) => {
                        let off = (lo - pos) as u32;
                        let width = (hi - lo) as u8;
                        let mask = if width as u64 == SEG_BITS {
                            LITERAL_MASK
                        } else {
                            (1u32 << width) - 1
                        };
                        b.append_bits((payload >> off) & mask, width);
                    }
                }
            }
            pos += n;
        }
        b.finish()
    }

    /// Verifies representation invariants; used by tests.
    ///
    /// Checks: fill counts are positive multiples of 31; literal words have
    /// clear flag bits and masked tails; run lengths sum to `len`; adjacent
    /// fills of the same bit only occur when the former is at capacity; no
    /// all-zero / all-one full literal word (those must be fills).
    pub fn check_canonical(&self) -> Result<(), String> {
        let mut covered = 0u64;
        let n = self.words.len();
        for (i, &w) in self.words.iter().enumerate() {
            let last = i + 1 == n;
            if is_fill(w) {
                let bits = fill_bits(w);
                if bits == 0 || !bits.is_multiple_of(SEG_BITS) {
                    return Err(format!("word {i}: fill of {bits} bits"));
                }
                if bits > COUNT_MASK as u64 {
                    return Err(format!("word {i}: fill overflow"));
                }
                if i > 0 {
                    let p = self.words[i - 1];
                    if is_fill(p)
                        && (p & FLAG_MASK) == (w & FLAG_MASK)
                        && fill_bits(p) < MAX_FILL_BITS
                    {
                        return Err(format!("word {i}: mergeable adjacent fills"));
                    }
                }
                covered += bits;
            } else {
                let nbits = if last && !self.len_bits.is_multiple_of(SEG_BITS) {
                    self.len_bits % SEG_BITS
                } else {
                    SEG_BITS
                };
                let mask = if nbits == SEG_BITS {
                    LITERAL_MASK
                } else {
                    (1u32 << nbits) - 1
                };
                if w & !mask != 0 {
                    return Err(format!("word {i}: literal has bits outside mask"));
                }
                if nbits == SEG_BITS && (w == 0 || w == LITERAL_MASK) {
                    return Err(format!("word {i}: uncompressed full literal {w:#x}"));
                }
                covered += nbits;
            }
        }
        if covered != self.len_bits {
            return Err(format!("covers {covered} bits, len is {}", self.len_bits));
        }
        Ok(())
    }
}

impl Default for WahVec {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<bool> for WahVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vec() {
        let v = WahVec::new();
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert!(v.check_canonical().is_ok());
        assert_eq!(v.to_bools(), Vec::<bool>::new());
    }

    #[test]
    fn zeros_and_ones() {
        for len in [1u64, 30, 31, 32, 62, 93, 100, 1000, 10_000] {
            let z = WahVec::zeros(len);
            assert_eq!(z.len(), len);
            assert_eq!(z.count_ones(), 0);
            z.check_canonical().unwrap();
            let o = WahVec::ones(len);
            assert_eq!(o.len(), len);
            assert_eq!(o.count_ones(), len);
            o.check_canonical().unwrap();
        }
    }

    #[test]
    fn long_fill_is_compact() {
        let v = WahVec::zeros(10_000_000);
        assert!(
            v.words().len() <= 2,
            "10M zero bits should be 1-2 words, got {}",
            v.words().len()
        );
    }

    #[test]
    fn from_bits_roundtrip() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![false],
            (0..31).map(|i| i % 2 == 0).collect(),
            (0..32).map(|i| i % 3 == 0).collect(),
            (0..100).map(|i| i < 50).collect(),
            (0..310).map(|_| true).collect(),
            (0..311).map(|i| i != 200).collect(),
        ];
        for bits in patterns {
            let v = WahVec::from_bits(bits.iter().copied());
            assert_eq!(v.len(), bits.len() as u64);
            assert_eq!(v.to_bools(), bits);
            v.check_canonical().unwrap();
        }
    }

    #[test]
    fn from_ones_matches() {
        let v = WahVec::from_ones(&[0, 5, 31, 62, 99], 100);
        assert_eq!(v.count_ones(), 5);
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![0, 5, 31, 62, 99]);
        assert!(v.get(5));
        assert!(!v.get(6));
        v.check_canonical().unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_ones_rejects_unsorted() {
        let _ = WahVec::from_ones(&[5, 3], 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_ones_rejects_oob() {
        let _ = WahVec::from_ones(&[10], 10);
    }

    #[test]
    fn count_ones_in_range_basics() {
        let v = WahVec::from_bits((0..200).map(|i| i % 2 == 0));
        assert_eq!(v.count_ones_in_range(0, 200), 100);
        assert_eq!(v.count_ones_in_range(0, 0), 0);
        assert_eq!(v.count_ones_in_range(0, 1), 1);
        assert_eq!(v.count_ones_in_range(1, 2), 0);
        assert_eq!(v.count_ones_in_range(50, 150), 50);
        assert_eq!(v.count_ones_in_range(199, 200), 0);
    }

    #[test]
    fn count_ones_in_range_over_fills() {
        let mut bits = vec![false; 500];
        for b in bits.iter_mut().take(400).skip(100) {
            *b = true;
        }
        let v = WahVec::from_bits(bits.iter().copied());
        assert_eq!(v.count_ones_in_range(0, 100), 0);
        assert_eq!(v.count_ones_in_range(100, 400), 300);
        assert_eq!(v.count_ones_in_range(50, 150), 50);
        assert_eq!(v.count_ones_in_range(350, 500), 50);
    }

    #[test]
    fn rank_select_inverse() {
        let bits: Vec<bool> = (0..800).map(|i| (i * 7) % 13 < 4).collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let ones: Vec<u64> = v.iter_ones().collect();
        for (k, &pos) in ones.iter().enumerate() {
            assert_eq!(v.select(k as u64), Some(pos), "select({k})");
            assert_eq!(v.rank(pos), k as u64, "rank({pos})");
            assert_eq!(v.rank(pos + 1), k as u64 + 1);
        }
        assert_eq!(v.select(ones.len() as u64), None, "past the last one-bit");
        assert_eq!(v.rank(0), 0);
    }

    #[test]
    fn select_inside_long_fill() {
        let mut bits = vec![false; 100];
        bits.extend(vec![true; 500]);
        bits.extend(vec![false; 100]);
        let v = WahVec::from_bits(bits.iter().copied());
        assert_eq!(v.select(0), Some(100));
        assert_eq!(v.select(250), Some(350));
        assert_eq!(v.select(499), Some(599));
        assert_eq!(v.select(500), None);
    }

    #[test]
    fn get_across_runs() {
        let mut bits = [false; 93];
        bits[0] = true;
        bits[45] = true;
        bits[92] = true;
        let v = WahVec::from_bits(bits.iter().copied());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(v.get(i as u64), b, "bit {i}");
        }
    }

    #[test]
    fn concat_aligned() {
        let a_bits: Vec<bool> = (0..62).map(|i| i % 5 == 0).collect();
        let b_bits: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let mut a = WahVec::from_bits(a_bits.iter().copied());
        let b = WahVec::from_bits(b_bits.iter().copied());
        a.concat(&b);
        let want: Vec<bool> = a_bits.into_iter().chain(b_bits).collect();
        assert_eq!(a.to_bools(), want);
        a.check_canonical().unwrap();
    }

    #[test]
    fn concat_merges_fills_at_seam() {
        let mut a = WahVec::zeros(62);
        let b = WahVec::zeros(62);
        a.concat(&b);
        assert_eq!(a.len(), 124);
        assert_eq!(a.words().len(), 1, "seam fills should merge");
        a.check_canonical().unwrap();
    }

    #[test]
    #[should_panic(expected = "segment boundary")]
    fn concat_unaligned_panics() {
        let mut a = WahVec::zeros(30);
        let b = WahVec::zeros(31);
        a.concat(&b);
    }

    #[test]
    fn concat_empty_other_is_noop_even_unaligned() {
        let mut a = WahVec::zeros(30);
        a.concat(&WahVec::new());
        assert_eq!(a.len(), 30);
    }

    #[test]
    fn slice_matches_bit_reference() {
        let bits: Vec<bool> = (0..700)
            .map(|i| (i * 7) % 13 < 4 || (200..420).contains(&i))
            .collect();
        let v = WahVec::from_bits(bits.iter().copied());
        for (lo, hi) in [
            (0u64, 700u64),
            (0, 0),
            (700, 700),
            (0, 1),
            (1, 32),
            (30, 33),
            (31, 62),
            (100, 500),
            (199, 421),
            (250, 400),
            (699, 700),
        ] {
            let s = v.slice(lo..hi);
            assert_eq!(s.len(), hi - lo, "slice {lo}..{hi} length");
            assert_eq!(
                s.to_bools(),
                bits[lo as usize..hi as usize].to_vec(),
                "slice {lo}..{hi} bits"
            );
            s.check_canonical().unwrap();
        }
    }

    #[test]
    fn slice_inside_long_fill_is_compact() {
        let v = WahVec::zeros(10_000_000);
        let s = v.slice(1_000_000..9_000_000);
        assert_eq!(s.len(), 8_000_000);
        assert_eq!(s.count_ones(), 0);
        assert!(s.words().len() <= 2, "fill slice stays compressed");
        s.check_canonical().unwrap();
    }

    #[test]
    fn aligned_slices_concat_back_to_original() {
        let bits: Vec<bool> = (0..31 * 20).map(|i| (i * 11) % 17 < 6).collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let cut = 31 * 7;
        let mut joined = v.slice(0..cut);
        joined.concat(&v.slice(cut..v.len()));
        assert_eq!(joined, v, "segment-aligned slices must reassemble exactly");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rejects_overlong_range() {
        let _ = WahVec::zeros(100).slice(50..101);
    }

    #[test]
    fn size_bytes_reflects_compression() {
        let sparse = WahVec::from_ones(&[5000], 1_000_000);
        assert!(sparse.size_bytes() < 100);
        let dense: WahVec = (0..1_000_000).map(|i: u64| i.is_multiple_of(2)).collect();
        assert!(dense.size_bytes() > 100_000);
    }

    #[test]
    fn iter_ones_dense() {
        let bits: Vec<bool> = (0..500).map(|i| (i * 31) % 7 == 0).collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let want: Vec<u64> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u64))
            .collect();
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), want);
    }

    #[test]
    fn from_raw_roundtrip() {
        let v = WahVec::from_bits((0..400).map(|i| i % 9 < 2));
        let back = WahVec::from_raw(v.words().to_vec(), v.len()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn from_raw_rejects_bad_input() {
        let v = WahVec::from_bits((0..400).map(|i| i % 9 < 2));
        // wrong length
        assert!(WahVec::from_raw(v.words().to_vec(), v.len() + 31).is_none());
        // a shortened length is caught when the dropped tail bit was set
        let ones = WahVec::ones(400);
        assert!(WahVec::from_raw(ones.words().to_vec(), 399).is_none());
        // zero-length fill word
        assert!(WahVec::from_raw(vec![super::ZERO_FILL], 31).is_none());
        // literal with flag bit set where a tail literal is expected
        assert!(WahVec::from_raw(vec![0xFFFF_FFFF], 5).is_none());
        // empty is fine
        assert!(WahVec::from_raw(vec![], 0).is_some());
    }

    #[test]
    fn debug_format_is_summary() {
        let v = WahVec::ones(62);
        let s = format!("{v:?}");
        assert!(s.contains("len: 62"));
        assert!(s.contains("ones: 62"));
    }
}
