//! A byte-aligned run-length bitmap code in the style of BBC
//! (Antoshenkov '95), the other compression family the paper cites
//! alongside WAH: byte granularity compresses better (no 31-bit rounding,
//! 1-byte headers), while word-aligned WAH trades space for faster bitwise
//! operations. The codec-comparison bench quantifies the tradeoff on our
//! workloads.
//!
//! Encoding: a stream of 1-byte headers.
//!
//! * `1 f nnnnnn` — a fill of `nnnnnn` (1–63) bytes of `f`-bits.
//! * `0 nnnnnnn` — `nnnnnnn` (1–127) literal bytes follow verbatim.
//!
//! A trailing partial byte is stored as a literal (its bit count comes from
//! the vector's stored length). This is a faithful simplification of BBC —
//! full BBC additionally packs "odd bit" positions into headers, which
//! improves sparse cases further but does not change the comparison's
//! shape.

/// A byte-aligned compressed bitvector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BbcVec {
    bytes: Vec<u8>,
    len_bits: u64,
}

const FILL_FLAG: u8 = 0x80;
const FILL_BIT: u8 = 0x40;
const FILL_MAX: usize = 0x3F; // 63 bytes per fill header
const LIT_MAX: usize = 0x7F; // 127 bytes per literal header

impl BbcVec {
    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        // gather into bytes first (LSB-first within a byte, as in WAH)
        let mut raw = Vec::new();
        let mut cur = 0u8;
        let mut n = 0u64;
        for bit in bits {
            if bit {
                cur |= 1 << (n % 8);
            }
            n += 1;
            if n.is_multiple_of(8) {
                raw.push(cur);
                cur = 0;
            }
        }
        let tail_bits = (n % 8) as usize;
        if tail_bits > 0 {
            raw.push(cur);
        }
        // encode whole bytes (a partial tail byte is always literal)
        let whole = if tail_bits > 0 {
            raw.len() - 1
        } else {
            raw.len()
        };
        let mut bytes = Vec::new();
        let mut i = 0;
        while i < whole {
            let b = raw[i];
            if b == 0x00 || b == 0xFF {
                let mut run = 1;
                while i + run < whole && raw[i + run] == b && run < FILL_MAX {
                    run += 1;
                }
                let mut header = FILL_FLAG | run as u8;
                if b == 0xFF {
                    header |= FILL_BIT;
                }
                bytes.push(header);
                i += run;
            } else {
                let start = i;
                while i < whole && raw[i] != 0x00 && raw[i] != 0xFF && i - start < LIT_MAX {
                    i += 1;
                }
                bytes.push((i - start) as u8);
                bytes.extend_from_slice(&raw[start..i]);
            }
        }
        if tail_bits > 0 {
            bytes.push(1u8); // literal header for the tail byte
            bytes.push(raw[whole]);
        }
        BbcVec { bytes, len_bits: n }
    }

    /// Number of bits.
    pub fn len(&self) -> u64 {
        self.len_bits
    }

    /// `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len() + std::mem::size_of::<BbcVec>()
    }

    /// Iterates the decoded bytes (the final byte may be partial; the
    /// caller masks by `len`).
    fn iter_bytes(&self) -> BbcBytes<'_> {
        BbcBytes {
            bytes: &self.bytes,
            pos: 0,
            pending: Pending::None,
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u64 {
        let mut total = 0u64;
        let mut bit = 0u64;
        let mut it = self.iter_bytes();
        while let Some(b) = it.next_byte() {
            let width = (self.len_bits - bit).min(8);
            let mask = if width == 8 { 0xFF } else { (1u8 << width) - 1 };
            total += (b & mask).count_ones() as u64;
            bit += width;
        }
        total
    }

    /// Decompresses into bools.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len_bits as usize);
        let mut it = self.iter_bytes();
        while let Some(b) = it.next_byte() {
            for j in 0..8 {
                if (out.len() as u64) < self.len_bits {
                    out.push(b & (1 << j) != 0);
                }
            }
        }
        out
    }

    /// `popcount(self AND other)` via a header-level run merge: fill×fill
    /// overlaps cost O(1) (a 0-fill on either side contributes nothing, a
    /// 1-fill×1-fill overlap contributes `8·bytes`), 1-fill×literal
    /// popcounts the literal slice, and only literal×literal overlaps pay
    /// the byte-wise AND. On run-structured data this is the difference
    /// between O(headers) and O(decoded bytes) — see `BENCH_codecs.json`
    /// (`bbc_header_merge_over_bytewise_speedup`).
    pub fn and_count(&self, other: &BbcVec) -> u64 {
        assert_eq!(self.len_bits, other.len_bits, "length mismatch");
        let nbytes = self.len_bits.div_ceil(8);
        let tail_mask: u8 = if self.len_bits.is_multiple_of(8) {
            0xFF
        } else {
            (1u8 << (self.len_bits % 8)) - 1
        };
        let mut a = SegCursor::new(&self.bytes);
        let mut b = SegCursor::new(&other.bytes);
        let mut total = 0u64;
        let mut byte_pos = 0u64;
        while a.refill() && b.refill() {
            let k = a.avail().min(b.avail());
            // only the stream's final byte can be partial
            let has_tail = byte_pos + k as u64 == nbytes && tail_mask != 0xFF;
            total += match (a.fill, b.fill) {
                (Some(false), _) | (_, Some(false)) => 0,
                (Some(true), Some(true)) => {
                    if has_tail {
                        8 * (k as u64 - 1) + tail_mask.count_ones() as u64
                    } else {
                        8 * k as u64
                    }
                }
                (Some(true), None) => popcount_masked(&b.lit[..k], has_tail, tail_mask),
                (None, Some(true)) => popcount_masked(&a.lit[..k], has_tail, tail_mask),
                (None, None) => {
                    let mut ones = 0u64;
                    for (i, (&x, &y)) in a.lit[..k].iter().zip(&b.lit[..k]).enumerate() {
                        let m = if has_tail && i == k - 1 {
                            tail_mask
                        } else {
                            0xFF
                        };
                        ones += (x & y & m).count_ones() as u64;
                    }
                    ones
                }
            };
            a.advance(k);
            b.advance(k);
            byte_pos += k as u64;
        }
        total
    }

    /// The pre-merge byte-at-a-time `and_count`, kept callable as the A/B
    /// baseline the codec shootout reports against.
    pub fn and_count_bytewise(&self, other: &BbcVec) -> u64 {
        assert_eq!(self.len_bits, other.len_bits, "length mismatch");
        let mut total = 0u64;
        let mut bit = 0u64;
        let mut ia = self.iter_bytes();
        let mut ib = other.iter_bytes();
        while let (Some(a), Some(b)) = (ia.next_byte(), ib.next_byte()) {
            let width = (self.len_bits - bit).min(8);
            let mask = if width == 8 { 0xFF } else { (1u8 << width) - 1 };
            total += (a & b & mask).count_ones() as u64;
            bit += width;
        }
        total
    }

    /// The encoded header+literal stream (the store's blob payload for
    /// BBC-tagged bins).
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reassembles a vector from an encoded stream (inverse of
    /// [`BbcVec::encoded_bytes`] plus the stored length), validating the
    /// structure so a corrupt blob is an error, never a panic: every header
    /// must be in bounds with a non-zero count, literal payloads must be
    /// present, and the decoded byte total must match `len_bits`.
    pub fn from_encoded(bytes: Vec<u8>, len_bits: u64) -> Result<BbcVec, String> {
        let mut pos = 0usize;
        let mut decoded = 0u64;
        while pos < bytes.len() {
            let h = bytes[pos];
            pos += 1;
            if h & FILL_FLAG != 0 {
                let n = (h & FILL_MAX as u8) as u64;
                if n == 0 {
                    return Err(format!("bbc: zero-length fill header at {}", pos - 1));
                }
                decoded += 8 * n;
            } else {
                let n = h as usize;
                if n == 0 {
                    return Err(format!("bbc: zero-length literal header at {}", pos - 1));
                }
                if pos + n > bytes.len() {
                    return Err(format!(
                        "bbc: literal of {n} bytes at {} overruns stream of {}",
                        pos - 1,
                        bytes.len()
                    ));
                }
                pos += n;
                decoded += 8 * n as u64;
            }
        }
        if decoded != len_bits.div_ceil(8) * 8 {
            return Err(format!(
                "bbc: stream decodes {decoded} bits, length {len_bits} needs {}",
                len_bits.div_ceil(8) * 8
            ));
        }
        Ok(BbcVec { bytes, len_bits })
    }
}

/// Popcount of a byte slice, with the final byte masked when it is the
/// stream's partial tail.
fn popcount_masked(bytes: &[u8], has_tail: bool, tail_mask: u8) -> u64 {
    let mut ones: u64 = bytes.iter().map(|&b| b.count_ones() as u64).sum();
    if has_tail {
        if let Some(&last) = bytes.last() {
            ones -= (last & !tail_mask).count_ones() as u64;
        }
    }
    ones
}

/// A cursor over the encoded stream at header granularity: the current
/// segment is either a fill (`fill = Some(bit)`, `fill_left` bytes) or a
/// literal (`lit` holds the remaining bytes), consumable in partial steps —
/// what lets `and_count` merge run overlaps in O(1).
struct SegCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    fill: Option<bool>,
    fill_left: usize,
    lit: &'a [u8],
}

impl<'a> SegCursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        SegCursor {
            bytes,
            pos: 0,
            fill: None,
            fill_left: 0,
            lit: &[],
        }
    }

    /// Bytes remaining in the current segment.
    fn avail(&self) -> usize {
        if self.fill.is_some() {
            self.fill_left
        } else {
            self.lit.len()
        }
    }

    /// Consumes `k` bytes of the current segment.
    fn advance(&mut self, k: usize) {
        if self.fill.is_some() {
            self.fill_left -= k;
            if self.fill_left == 0 {
                self.fill = None;
            }
        } else {
            self.lit = &self.lit[k..];
        }
    }

    /// Ensures a current segment, decoding the next header if needed;
    /// `false` at end of stream.
    fn refill(&mut self) -> bool {
        if self.fill.is_some() || !self.lit.is_empty() {
            return true;
        }
        let Some(&h) = self.bytes.get(self.pos) else {
            return false;
        };
        self.pos += 1;
        if h & FILL_FLAG != 0 {
            self.fill = Some(h & FILL_BIT != 0);
            self.fill_left = (h & FILL_MAX as u8) as usize;
        } else {
            let n = h as usize;
            self.lit = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
        }
        true
    }
}

enum Pending {
    None,
    Fill { byte: u8, left: usize },
    Literal { left: usize },
}

struct BbcBytes<'a> {
    bytes: &'a [u8],
    pos: usize,
    pending: Pending,
}

impl BbcBytes<'_> {
    fn next_byte(&mut self) -> Option<u8> {
        loop {
            match &mut self.pending {
                Pending::Fill { byte, left } => {
                    if *left > 0 {
                        *left -= 1;
                        return Some(*byte);
                    }
                    self.pending = Pending::None;
                }
                Pending::Literal { left } => {
                    if *left > 0 {
                        *left -= 1;
                        let b = self.bytes[self.pos];
                        self.pos += 1;
                        return Some(b);
                    }
                    self.pending = Pending::None;
                }
                Pending::None => {
                    let header = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    self.pending = if header & FILL_FLAG != 0 {
                        let byte = if header & FILL_BIT != 0 { 0xFF } else { 0x00 };
                        Pending::Fill {
                            byte,
                            left: (header & 0x3F) as usize,
                        }
                    } else {
                        Pending::Literal {
                            left: header as usize,
                        }
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WahVec;

    fn patterns() -> Vec<Vec<bool>> {
        vec![
            vec![],
            vec![true],
            vec![false; 7],
            vec![true; 8],
            vec![true; 1000],
            (0..100).map(|i| i % 3 == 0).collect(),
            (0..511).map(|i| i > 200 && i < 300).collect(),
            (0..4096).map(|i| (i * 31) % 97 < 5).collect(),
        ]
    }

    #[test]
    fn roundtrip() {
        for bits in patterns() {
            let v = BbcVec::from_bits(bits.iter().copied());
            assert_eq!(v.len(), bits.len() as u64);
            assert_eq!(v.to_bools(), bits, "len {}", bits.len());
        }
    }

    #[test]
    fn count_matches_naive() {
        for bits in patterns() {
            let v = BbcVec::from_bits(bits.iter().copied());
            let want = bits.iter().filter(|&&b| b).count() as u64;
            assert_eq!(v.count_ones(), want);
        }
    }

    #[test]
    fn and_count_matches_wah() {
        let a_bits: Vec<bool> = (0..3000).map(|i| (i / 100) % 3 == 0).collect();
        let b_bits: Vec<bool> = (0..3000).map(|i| (i / 70) % 4 == 0).collect();
        let ba = BbcVec::from_bits(a_bits.iter().copied());
        let bb = BbcVec::from_bits(b_bits.iter().copied());
        let wa = WahVec::from_bits(a_bits.iter().copied());
        let wb = WahVec::from_bits(b_bits.iter().copied());
        assert_eq!(ba.and_count(&bb), wa.and_count(&wb));
    }

    #[test]
    fn header_merge_and_count_matches_bytewise() {
        let ps = patterns();
        for a_bits in &ps {
            for b_bits in &ps {
                if a_bits.len() != b_bits.len() {
                    continue;
                }
                let a = BbcVec::from_bits(a_bits.iter().copied());
                let b = BbcVec::from_bits(b_bits.iter().copied());
                assert_eq!(
                    a.and_count(&b),
                    a.and_count_bytewise(&b),
                    "len {}",
                    a_bits.len()
                );
            }
        }
        // adversarial: misaligned fills, partial tails, long literals
        for n in [1usize, 7, 8, 9, 63 * 8, 63 * 8 + 3, 4096, 100_003] {
            let a_bits: Vec<bool> = (0..n).map(|i| (i / 200) % 5 == 0).collect();
            let b_bits: Vec<bool> = (0..n).map(|i| (i * 13) % 17 < 6).collect();
            let a = BbcVec::from_bits(a_bits.iter().copied());
            let b = BbcVec::from_bits(b_bits.iter().copied());
            let want = a_bits
                .iter()
                .zip(&b_bits)
                .filter(|&(&x, &y)| x && y)
                .count() as u64;
            assert_eq!(a.and_count(&b), want, "len {n}");
            assert_eq!(a.and_count_bytewise(&b), want, "len {n}");
        }
    }

    #[test]
    fn encoded_roundtrip_and_corruption_rejected() {
        for bits in patterns() {
            let v = BbcVec::from_bits(bits.iter().copied());
            let back = BbcVec::from_encoded(v.encoded_bytes().to_vec(), v.len()).unwrap();
            assert_eq!(back, v);
        }
        // truncated literal payload
        let v = BbcVec::from_bits((0..100).map(|i| i % 3 == 0));
        let mut bytes = v.encoded_bytes().to_vec();
        bytes.pop();
        assert!(BbcVec::from_encoded(bytes, v.len()).is_err());
        // wrong length
        assert!(BbcVec::from_encoded(v.encoded_bytes().to_vec(), v.len() + 8).is_err());
        // zero-count headers
        assert!(BbcVec::from_encoded(vec![FILL_FLAG], 0).is_err());
        assert!(BbcVec::from_encoded(vec![0u8], 0).is_err());
        // empty stream is the empty vector
        assert!(BbcVec::from_encoded(Vec::new(), 0).is_ok());
    }

    #[test]
    fn long_fills_are_tiny() {
        let v = BbcVec::from_bits((0..1_000_000).map(|_| false));
        // 125000 zero bytes / 63 per header ≈ 1985 headers
        assert!(v.size_bytes() < 2100, "{}", v.size_bytes());
    }

    #[test]
    fn byte_alignment_beats_wah_on_short_runs() {
        // runs of ~40 bits: too short for 31-bit fills to win, fine for
        // byte fills — the regime where BBC-style coding is denser
        let bits: Vec<bool> = (0..100_000).map(|i| (i / 40) % 2 == 0).collect();
        let bbc = BbcVec::from_bits(bits.iter().copied());
        let wah = WahVec::from_bits(bits.iter().copied());
        assert!(
            bbc.size_bytes() < wah.size_bytes(),
            "bbc {} vs wah {}",
            bbc.size_bytes(),
            wah.size_bytes()
        );
    }

    #[test]
    fn long_literal_stretch_crosses_header_limit() {
        // >127 consecutive non-fill bytes force multiple literal headers
        let bits: Vec<bool> = (0..8 * 300).map(|i| i % 7 < 3).collect();
        let v = BbcVec::from_bits(bits.iter().copied());
        assert_eq!(v.to_bools(), bits);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_count_length_mismatch() {
        let a = BbcVec::from_bits((0..8).map(|_| true));
        let b = BbcVec::from_bits((0..9).map(|_| true));
        let _ = a.and_count(&b);
    }
}
