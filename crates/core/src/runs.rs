//! Run decoding for WAH words: turns the compressed word stream into a
//! sequence of [`Run`]s without materializing bits.

use crate::wah::{fill_bits, is_fill, is_one_fill, LITERAL_MASK, SEG_BITS};

/// One decoded run of a WAH vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Run {
    /// A fill of `u64` bits of the given value; always a multiple of 31.
    Fill(bool, u64),
    /// A literal segment: payload (LSB-first) and its bit width (31 for all
    /// words except a partial tail).
    Literal(u32, u8),
}

impl Run {
    /// Number of bits this run covers.
    #[inline]
    pub fn len(&self) -> u64 {
        match *self {
            Run::Fill(_, n) => n,
            Run::Literal(_, n) => n as u64,
        }
    }
}

/// Iterator over the runs of a WAH word slice.
pub(crate) struct RunIter<'a> {
    words: &'a [u32],
    idx: usize,
    /// Bits remaining to be produced (drives tail-literal widths).
    remaining: u64,
}

impl<'a> RunIter<'a> {
    pub fn new(words: &'a [u32], len_bits: u64) -> Self {
        RunIter {
            words,
            idx: 0,
            remaining: len_bits,
        }
    }
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if self.remaining == 0 {
            debug_assert_eq!(self.idx, self.words.len(), "words extend past len");
            return None;
        }
        let w = *self.words.get(self.idx)?;
        self.idx += 1;
        let run = if is_fill(w) {
            let n = fill_bits(w);
            debug_assert!(n <= self.remaining, "fill exceeds remaining bits");
            Run::Fill(is_one_fill(w), n)
        } else {
            let nbits = self.remaining.min(SEG_BITS) as u8;
            Run::Literal(w & LITERAL_MASK, nbits)
        };
        self.remaining -= run.len();
        Some(run)
    }
}

/// One stretch of 1-bits reported by a [`OnesCursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ones {
    /// Every bit of `[start, end)` is set (a 1-fill, clipped to the window
    /// it was asked in): both ends sit on 31-bit boundaries.
    Fill(u64, u64),
    /// A literal segment starting at bit `.0` with the non-zero payload `.1`
    /// (LSB-first).
    Literal(u64, u32),
}

impl Ones {
    /// Calls `f` with every set position, ascending.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(u64)) {
        match self {
            Ones::Fill(start, end) => (start..end).for_each(f),
            Ones::Literal(base, mut bits) => {
                while bits != 0 {
                    f(base + bits.trailing_zeros() as u64);
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// A forward cursor over the 1-bits of a WAH word stream, read one window
/// at a time: O(words in the window), no allocation, no bit materialized.
/// Window ends must sit on 31-bit boundaries (or be the vector's length),
/// so a literal never straddles one; a fill that does is clipped and stays
/// current for the next window.
#[derive(Debug, Clone)]
pub struct OnesCursor<'a> {
    words: &'a [u32],
    /// Next word to open.
    idx: usize,
    /// First bit not yet reported or skipped.
    pos: u64,
    /// End of the fill being consumed (`== pos` when none is open).
    fill_end: u64,
    /// Whether that fill is a 1-fill.
    fill_bit: bool,
}

impl<'a> OnesCursor<'a> {
    pub(crate) fn new(words: &'a [u32]) -> Self {
        OnesCursor {
            words,
            idx: 0,
            pos: 0,
            fill_end: 0,
            fill_bit: false,
        }
    }

    /// The next stretch of ones that starts below `hi`, clipped to it, or
    /// `None` once everything below `hi` is consumed.
    #[inline]
    pub fn next_before(&mut self, hi: u64) -> Option<Ones> {
        while self.pos < hi {
            if self.pos == self.fill_end {
                let w = *self.words.get(self.idx)?;
                self.idx += 1;
                if !is_fill(w) {
                    let base = self.pos;
                    self.pos += SEG_BITS;
                    self.fill_end = self.pos;
                    if w != 0 {
                        return Some(Ones::Literal(base, w));
                    }
                    continue;
                }
                self.fill_end = self.pos + fill_bits(w);
                self.fill_bit = is_one_fill(w);
            }
            let start = self.pos;
            self.pos = self.fill_end.min(hi);
            if self.fill_bit {
                return Some(Ones::Fill(start, self.pos));
            }
        }
        None
    }

    /// Discards everything below `lo` (a window start).
    #[inline]
    pub fn skip_to(&mut self, lo: u64) {
        while self.next_before(lo).is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WahVec;

    fn runs_of(v: &WahVec) -> Vec<Run> {
        RunIter::new(v.words(), v.len()).collect()
    }

    #[test]
    fn decodes_fill_and_literal() {
        let mut bits = vec![false; 62];
        bits.extend([true, false, true]);
        let v = WahVec::from_bits(bits.iter().copied());
        let runs = runs_of(&v);
        assert_eq!(runs, vec![Run::Fill(false, 62), Run::Literal(0b101, 3)]);
    }

    #[test]
    fn tail_literal_width() {
        let v = WahVec::from_bits((0..40).map(|i| i % 2 == 0));
        let runs = runs_of(&v);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].len(), 31);
        assert_eq!(runs[1].len(), 9);
    }

    #[test]
    fn run_lengths_sum_to_len() {
        for len in [0u64, 1, 31, 62, 63, 310, 311, 1000] {
            let v = WahVec::from_bits((0..len).map(|i| i % 7 < 3));
            let total: u64 = runs_of(&v).iter().map(Run::len).sum();
            assert_eq!(total, len);
        }
    }
}
