//! Adaptive dense-path kernels for WAH execution.
//!
//! Monomorphized AND/OR and popcount kernels replace the
//! closure-generic segment loops of the original implementation, and an
//! explicit density cutover decodes incompressible operands once into a
//! packed-`u64` form ([`DenseBits`]) so the op runs at verbatim speed.
//! Results are bit-exact and canonical regardless of which path executes.
//!
//! The cutover rule (α = 1): a vector is *dense* when its compressed words
//! outnumber the `u64` words of the verbatim form, `words > len/64`
//! ([`WahVec::is_dense`]). Where the cutover applies:
//!
//! - **Counting ops** are `and_count` only (a XOR count is the identity
//!   `|a| + |b| − 2·|a ∧ b|` over the cached counts). It never decodes —
//!   its compressed kernel batches literal stretches as packed `u64` words
//!   and already runs at near-verbatim speed on dense inputs, so a decode
//!   is a pure extra pass. (A fan-out of counts over many bins — a joint
//!   table, the miner's spatial stage — is one label walk in
//!   `ibis-analysis`, not a fan-out of ops.)
//! - **Wide ORs** accumulate into one packed buffer when the inputs'
//!   words together outnumber it ([`WahVec::or_many`]).
//! - **Materializing ops** decode both sides, combine word-parallel, and
//!   re-encode when both are above the word cutover *and* genuinely dense
//!   in bits ([`MATERIALIZE_DENSITY_CUTOVER`]) — the round trip only wins
//!   when the result stays literal-heavy too.

use crate::builder::WahBuilder;
use crate::runs::{Run, RunIter};
use crate::wah::{fill_bits, is_fill, is_one_fill, WahVec, LITERAL_MASK, SEG_BITS};
use ibis_obs::{LazyCounter, LazyHistogram};

// Kernel-dispatch metrics (family `kernels`, see DESIGN.md §6e). All
// no-ops when ibis-obs is built without its `obs` feature. The fill-run
// histogram sees only stats scanned from words: no Roaring-held bin.
static OBS_DENSE_PATH: LazyCounter = LazyCounter::new("kernels.materialize.dense_path");
static OBS_RUN_PATH: LazyCounter = LazyCounter::new("kernels.materialize.run_path");
static OBS_DECODE_WORDS: LazyCounter = LazyCounter::new("kernels.decode.words");
static OBS_COUNT_OPS: LazyCounter = LazyCounter::new("kernels.count.ops");
static OBS_FILL_RUN_BITS: LazyHistogram =
    LazyHistogram::new("kernels.fill_run.bits", ibis_obs::RUN_BITS_BOUNDS);

/// Cached per-vector statistics, computed in one pass over the compressed
/// words. Feeds the adaptive cutover and makes repeated
/// [`WahVec::count_ones`] calls free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WahStats {
    /// Number of compressed words.
    pub words: usize,
    /// Kernel-visible runs: each fill word plus each maximal stretch of
    /// consecutive literal words counts once — the number of outer
    /// iterations a run-level kernel performs.
    pub runs: usize,
    /// Total 1-bits.
    pub ones: u64,
    /// `ones / len` (`0.0` for the empty vector).
    pub density: f64,
}

impl WahStats {
    /// Estimated mean 1-run length in bits: assuming 1-runs and 0-runs
    /// alternate, half of [`WahStats::runs`] carry all the ones. This is
    /// the coherence signal the per-bin codec selection
    /// ([`crate::select_codec`]) keys on — long mean runs are WAH's home
    /// turf, short ones mean scattered bits that containers handle better.
    pub fn mean_run_bits(&self) -> u64 {
        2 * self.ones / (self.runs.max(1) as u64)
    }
}

/// Single-pass stats computation over raw compressed words.
pub(crate) fn compute_stats(words: &[u32], len_bits: u64) -> WahStats {
    let mut ones = 0u64;
    let mut runs = 0usize;
    let mut in_literals = false;
    // Fill-run lengths are bucketed locally and flushed once: this loop is
    // the hot path of every stats computation, so it cannot afford one
    // atomic histogram record per word. `ENABLED` is const, so the no-op
    // build compiles the accumulation away entirely.
    let mut fill_buckets = [0u64; ibis_obs::RUN_BITS_BOUNDS.len() + 1];
    let mut fill_sum = 0u64;
    for &w in words {
        if is_fill(w) {
            runs += 1;
            in_literals = false;
            if ibis_obs::ENABLED {
                fill_buckets[ibis_obs::bucket_index(ibis_obs::RUN_BITS_BOUNDS, fill_bits(w))] += 1;
                fill_sum = fill_sum.wrapping_add(fill_bits(w));
            }
            if is_one_fill(w) {
                ones += fill_bits(w);
            }
        } else {
            if !in_literals {
                runs += 1;
                in_literals = true;
            }
            // Literal flag bit is 0 and tails are masked, so a plain
            // popcount is exact.
            ones += w.count_ones() as u64;
        }
    }
    if ibis_obs::ENABLED {
        OBS_FILL_RUN_BITS.merge_counts(&fill_buckets, fill_sum);
    }
    let density = if len_bits == 0 {
        0.0
    } else {
        ones as f64 / len_bits as f64
    };
    WahStats {
        words: words.len(),
        runs,
        ones,
        density,
    }
}

/// Mask selecting the low `width` bits of a literal payload.
#[inline]
pub(crate) fn lit_mask(width: u8) -> u32 {
    if width as u64 == SEG_BITS {
        LITERAL_MASK
    } else {
        (1u32 << width) - 1
    }
}

// ---------------------------------------------------------------------------
// DenseBits: the packed-u64 verbatim execution form
// ---------------------------------------------------------------------------

/// A bitvector unpacked into `u64` words (LSB-first within each word) —
/// the verbatim execution form used above the density cutover and as the
/// accumulator of wide ORs.
///
/// Invariant: bits at positions `>= len()` are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseBits {
    words: Vec<u64>,
    len_bits: u64,
}

impl DenseBits {
    /// An all-zeros buffer of `len_bits` bits.
    pub fn zeros(len_bits: u64) -> Self {
        DenseBits {
            words: vec![0; len_bits.div_ceil(64) as usize],
            len_bits,
        }
    }

    /// Decodes a compressed vector in one pass over its runs.
    pub fn from_wah(v: &WahVec) -> Self {
        let mut d = DenseBits::zeros(v.len());
        d.or_wah(v);
        OBS_DECODE_WORDS.add(d.words.len() as u64);
        d
    }

    /// Number of bits in the buffer.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len_bits
    }

    /// `true` if the buffer holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Reads the bit at position `i`.
    #[inline]
    pub fn get(&self, i: u64) -> bool {
        assert!(
            i < self.len_bits,
            "index {i} out of range {}",
            self.len_bits
        );
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Total 1-bits (word-parallel popcount).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// ORs a same-length compressed vector into the buffer — the
    /// accumulator step of the dense `or_many` path.
    pub fn or_wah(&mut self, v: &WahVec) {
        assert_eq!(
            self.len_bits,
            v.len(),
            "binary op on different-length vectors"
        );
        let mut pos = 0u64;
        for run in v.runs() {
            match run {
                Run::Fill(false, n) => pos += n,
                Run::Fill(true, n) => {
                    self.set_range(pos, n);
                    pos += n;
                }
                Run::Literal(p, w) => {
                    self.or_bits(pos, p as u64);
                    pos += w as u64;
                }
            }
        }
    }

    /// ORs a same-length stored bin into the buffer from the form it is
    /// held in: a Roaring bin straight from its containers, never
    /// transcoded, a WAH bin through [`DenseBits::or_wah`].
    pub fn or_stored(&mut self, v: &crate::CodecVec) {
        match v {
            crate::CodecVec::Wah(v) => self.or_wah(v),
            crate::CodecVec::Roaring(v) => {
                assert_eq!(
                    self.len_bits,
                    v.len(),
                    "binary op on different-length vectors"
                );
                v.or_into(&mut self.words);
            }
        }
    }

    /// Sets `n` consecutive bits starting at `pos`.
    fn set_range(&mut self, pos: u64, n: u64) {
        if n == 0 {
            return;
        }
        let end = pos + n;
        let sw = (pos / 64) as usize;
        let ew = ((end - 1) / 64) as usize;
        let smask = u64::MAX << (pos % 64);
        let emask = u64::MAX >> (63 - (end - 1) % 64);
        if sw == ew {
            self.words[sw] |= smask & emask;
        } else {
            self.words[sw] |= smask;
            for w in &mut self.words[sw + 1..ew] {
                *w = u64::MAX;
            }
            self.words[ew] |= emask;
        }
    }

    /// ORs up to 64 bits of `val` into the buffer at `pos`.
    #[inline]
    fn or_bits(&mut self, pos: u64, val: u64) {
        let wi = (pos / 64) as usize;
        let off = pos % 64;
        self.words[wi] |= val << off;
        if off != 0 {
            let hi = val >> (64 - off);
            if hi != 0 {
                self.words[wi + 1] |= hi;
            }
        }
    }

    /// Extracts `width` (≤ 31) bits starting at `pos` as a literal payload.
    #[inline]
    fn seg_at(&self, pos: u64, width: u8) -> u32 {
        let wi = (pos / 64) as usize;
        let off = pos % 64;
        let mut bits = self.words[wi] >> off;
        if off + width as u64 > 64 {
            bits |= self.words[wi + 1] << (64 - off);
        }
        bits as u32 & lit_mask(width)
    }

    /// Zeroes any bits at positions `>= len()` in the last word, restoring
    /// the invariant after a word-level complement-like combine.
    fn mask_tail(&mut self) {
        let r = self.len_bits % 64;
        if r != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> (64 - r);
            }
        }
    }

    /// Re-encodes into canonical WAH form. The builder merges fills, so the
    /// result is byte-identical to what the compressed kernels produce for
    /// the same bit content.
    pub fn to_wah(&self) -> WahVec {
        let mut b = WahBuilder::new();
        let mut pos = 0u64;
        while pos + SEG_BITS <= self.len_bits {
            b.append_seg31(self.seg_at(pos, SEG_BITS as u8));
            pos += SEG_BITS;
        }
        let tail = self.len_bits - pos;
        if tail > 0 {
            let p = self.seg_at(pos, tail as u8);
            for j in 0..tail {
                b.push_bit(p & (1 << j) != 0);
            }
        }
        b.finish()
    }
}

// ---------------------------------------------------------------------------
// Compressed count kernels (monomorphized, batched literal loops)
// ---------------------------------------------------------------------------

/// First index in `[start, start + max)` holding a fill word (clamped to
/// `len`): the exclusive end of the literal stretch beginning at `start`,
/// scanning no further than the caller can consume.
#[inline]
fn literal_stretch_end(w: &[u32], start: usize, max: usize) -> usize {
    let lim = w.len().min(start + max);
    let mut k = start;
    while k < lim && !is_fill(w[k]) {
        k += 1;
    }
    k
}

/// `Σ popcount(w[k])` over a literal stretch, u64-packed.
#[inline]
fn popcount_words(w: &[u32]) -> u64 {
    let mut total: u64 = w
        .chunks_exact(2)
        .map(|x| (x[0] as u64 | (x[1] as u64) << 32).count_ones() as u64)
        .sum();
    if let &[x] = w.chunks_exact(2).remainder() {
        total += x.count_ones() as u64;
    }
    total
}

/// `popcount(a AND b)` on the compressed words. Literal stretches combine
/// as batched `u64`-packed words (no run decoding, no closure, no per-word
/// flag checks); fill×fill stretches gallop in O(1) per overlapping pair.
/// Counts never pay a decode: the batching already runs at near-verbatim
/// speed on dense inputs, so a `DenseBits::from_wah` (a full extra pass
/// over the output buffer) can only lose.
pub(crate) fn and_count_compressed(a: &WahVec, b: &WahVec) -> u64 {
    assert_eq!(a.len(), b.len(), "binary op on different-length vectors");
    OBS_COUNT_OPS.inc();
    let (aw, bw) = (a.words(), b.words());
    let (mut i, mut j) = (0usize, 0usize);
    let (mut fa, mut fb) = (0u64, 0u64); // bits left in an active fill
    let (mut ba, mut bb) = (false, false);
    let mut total = 0u64;
    loop {
        if fa == 0 {
            match aw.get(i) {
                None => break,
                Some(&w) if is_fill(w) => {
                    fa = fill_bits(w);
                    ba = is_one_fill(w);
                    i += 1;
                }
                _ => {}
            }
        }
        if fb == 0 {
            match bw.get(j) {
                None => break,
                Some(&w) if is_fill(w) => {
                    fb = fill_bits(w);
                    bb = is_one_fill(w);
                    j += 1;
                }
                _ => {}
            }
        }
        match (fa > 0, fb > 0) {
            (true, true) => {
                let n = fa.min(fb);
                if ba && bb {
                    total += n;
                }
                fa -= n;
                fb -= n;
            }
            (true, false) => {
                // b sits on full 31-bit literals: fills never overlap the
                // tail, and equal consumption means b is not at its tail.
                // Multi-segment fills absorb a whole batch of b's literals
                // at once; single-segment fills skip the stretch-scan cost.
                if fa > SEG_BITS {
                    let k = literal_stretch_end(bw, j, (fa / SEG_BITS) as usize) - j;
                    if ba {
                        total += popcount_words(&bw[j..j + k]);
                    }
                    j += k;
                    fa -= k as u64 * SEG_BITS;
                } else {
                    if ba {
                        total += bw[j].count_ones() as u64;
                    }
                    j += 1;
                    fa = 0;
                }
            }
            (false, true) => {
                if fb > SEG_BITS {
                    let k = literal_stretch_end(aw, i, (fb / SEG_BITS) as usize) - i;
                    if bb {
                        total += popcount_words(&aw[i..i + k]);
                    }
                    i += k;
                    fb -= k as u64 * SEG_BITS;
                } else {
                    if bb {
                        total += aw[i].count_ones() as u64;
                    }
                    i += 1;
                    fb = 0;
                }
            }
            (false, false) => {
                // literal × literal — the dense hot path: word pairs
                // combine as packed `u64`s (one popcount per two segments)
                // with inline fill checks, then a word-wise mop-up for odd
                // stretch lengths.
                while i + 1 < aw.len() && j + 1 < bw.len() {
                    let (a0, a1) = (aw[i], aw[i + 1]);
                    let (b0, b1) = (bw[j], bw[j + 1]);
                    if is_fill(a0) || is_fill(a1) || is_fill(b0) || is_fill(b1) {
                        break;
                    }
                    let x = a0 as u64 | (a1 as u64) << 32;
                    let y = b0 as u64 | (b1 as u64) << 32;
                    total += (x & y).count_ones() as u64;
                    i += 2;
                    j += 2;
                }
                while i < aw.len() && j < bw.len() && !is_fill(aw[i]) && !is_fill(bw[j]) {
                    total += (aw[i] & bw[j]).count_ones() as u64;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    total
}

// ---------------------------------------------------------------------------
// Materializing kernels
// ---------------------------------------------------------------------------

/// Second gate for the materializing kernels' verbatim path. The word-count
/// cutover ([`WahVec::is_dense`]) cannot tell 10% bit density from 50% —
/// both are almost all literal words — but the decode/recode round trip
/// only pays off when the *result* stays literal-heavy too, which needs the
/// inputs genuinely dense in bits. Below this, the run kernels win.
const MATERIALIZE_DENSITY_CUTOVER: f64 = 0.2;

/// The smaller of the two cached bit densities (`popcount / len`).
#[inline]
fn min_density(a: &WahVec, b: &WahVec) -> f64 {
    a.stats().density.min(b.stats().density)
}

/// What a one-sided fill does to the output in a materializing kernel.
#[derive(Clone, Copy)]
enum FillAction {
    /// Emit a fill of the given bit; the other side's segment is irrelevant.
    Emit(bool),
    /// Copy the other side's segment through unchanged.
    Copy,
}

/// A run cursor supporting partial consumption of fills; literal runs are
/// consumed whole.
struct RunCursor<'a> {
    runs: RunIter<'a>,
    cur: Option<Run>,
}

impl<'a> RunCursor<'a> {
    fn new(words: &'a [u32], len_bits: u64) -> Self {
        let mut runs = RunIter::new(words, len_bits);
        let cur = runs.next();
        RunCursor { runs, cur }
    }

    #[inline]
    fn peek(&self) -> Option<Run> {
        self.cur
    }

    #[inline]
    fn consume(&mut self, nbits: u64) {
        match self.cur {
            Some(Run::Fill(bit, n)) if nbits < n => {
                self.cur = Some(Run::Fill(bit, n - nbits));
            }
            Some(r) => {
                debug_assert_eq!(r.len(), nbits, "literal runs are consumed whole");
                self.cur = self.runs.next();
            }
            None => panic!("consume past the end of the run stream"),
        }
    }
}

/// One step of fill absorption: `filled` sits on a fill, `other` on a
/// literal — necessarily a full 31-bit segment (fills never overlap the
/// tail). Applies `action` and consumes one segment from both sides.
#[inline]
fn fill_step(
    action: FillAction,
    filled: &mut RunCursor<'_>,
    other: &mut RunCursor<'_>,
    out: &mut WahBuilder,
) {
    let Some(Run::Literal(p, w)) = other.peek() else {
        unreachable!("fill_step requires a literal on the other side")
    };
    debug_assert_eq!(w as u64, SEG_BITS, "fills never overlap the tail literal");
    match action {
        FillAction::Emit(bit) => out.append_run(bit, SEG_BITS),
        FillAction::Copy => out.append_seg31(p),
    }
    filled.consume(SEG_BITS);
    other.consume(w as u64);
}

/// Defines one monomorphized materializing kernel. `$wexpr` is the word
/// combine (used for `u32` literals, `u64` dense words, and fill bits
/// alike); `$fact` absorbs a one-sided fill of bit `$fb`, on either side,
/// at run granularity instead of expanding it to segments.
macro_rules! binary_kernel {
    ($(#[$doc:meta])* $name:ident,
     ($x:ident, $y:ident) => $wexpr:expr,
     fill: ($fb:ident) => $fact:expr) => {
        $(#[$doc])*
        pub(crate) fn $name(a: &WahVec, b: &WahVec) -> WahVec {
            assert_eq!(a.len(), b.len(), "binary op on different-length vectors");
            if a.is_dense() && b.is_dense() && min_density(a, b) >= MATERIALIZE_DENSITY_CUTOVER {
                // Verbatim path: unpack both once, combine word-parallel,
                // re-encode once. The builder canonicalizes, so the result
                // is identical to the compressed path's.
                OBS_DENSE_PATH.inc();
                let mut da = DenseBits::from_wah(a);
                let db = DenseBits::from_wah(b);
                for (xw, yw) in da.words.iter_mut().zip(db.words.iter()) {
                    let ($x, $y) = (*xw, *yw);
                    *xw = $wexpr;
                }
                da.mask_tail();
                return da.to_wah();
            }
            OBS_RUN_PATH.inc();
            let mut ca = RunCursor::new(a.words(), a.len());
            let mut cb = RunCursor::new(b.words(), b.len());
            let mut out = WahBuilder::new();
            loop {
                match (ca.peek(), cb.peek()) {
                    (None, None) => break,
                    (Some(Run::Fill(p, na)), Some(Run::Fill(q, nb))) => {
                        let n = na.min(nb);
                        let ($x, $y) = (p, q);
                        out.append_run($wexpr, n);
                        ca.consume(n);
                        cb.consume(n);
                    }
                    (Some(Run::Fill(bit, _)), Some(_)) => {
                        let $fb = bit;
                        fill_step($fact, &mut ca, &mut cb, &mut out);
                    }
                    (Some(_), Some(Run::Fill(bit, _))) => {
                        let $fb = bit;
                        fill_step($fact, &mut cb, &mut ca, &mut out);
                    }
                    (Some(Run::Literal(p, w)), Some(Run::Literal(q, w2))) => {
                        debug_assert_eq!(w, w2, "equal-length vectors stay aligned");
                        let ($x, $y) = (p, q);
                        let r = ($wexpr) & lit_mask(w);
                        if w as u64 == SEG_BITS {
                            out.append_seg31(r);
                        } else {
                            for jj in 0..w {
                                out.push_bit(r & (1 << jj) != 0);
                            }
                        }
                        ca.consume(w as u64);
                        cb.consume(w as u64);
                    }
                    _ => unreachable!("cursors of equal-length vectors end together"),
                }
            }
            out.finish()
        }
    };
}

binary_kernel!(
    /// Materializing AND: a 0-fill emits a 0-fill without touching the
    /// other side; a 1-fill copies the other side through.
    and_kernel,
    (x, y) => x & y,
    fill: (bit) => if bit { FillAction::Copy } else { FillAction::Emit(false) }
);

binary_kernel!(
    /// Materializing OR: a 1-fill emits a 1-fill; a 0-fill copies the
    /// other side through.
    or_kernel,
    (x, y) => x | y,
    fill: (bit) => if bit { FillAction::Emit(true) } else { FillAction::Copy }
);

/// Direct complement over runs: fills flip their bit, literals complement
/// under the width mask — one pass, no scratch all-ones operand.
pub(crate) fn not_kernel(a: &WahVec) -> WahVec {
    let mut out = WahBuilder::new();
    for run in a.runs() {
        match run {
            Run::Fill(bit, n) => out.append_run(!bit, n),
            Run::Literal(p, w) => {
                if w as u64 == SEG_BITS {
                    out.append_seg31(!p & LITERAL_MASK);
                } else {
                    let r = !p & lit_mask(w);
                    for j in 0..w {
                        out.push_bit(r & (1 << j) != 0);
                    }
                }
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic mixed-density bit patterns exercising fills, literal
    /// stretches, and tails on both sides of the cutover.
    fn patterns() -> Vec<Vec<bool>> {
        let mut out = vec![
            vec![],
            vec![true],
            (0..30).map(|i| i % 3 == 0).collect(),
            (0..31).map(|_| true).collect(),
            (0..100).map(|i| i < 50).collect(),
            (0..311).map(|i| (i * 7) % 13 < 6).collect(),
            (0..1000).map(|i| (i * 31 + 7) % 61 < 30).collect(),
        ];
        // fill-heavy sparse
        let mut sparse = vec![false; 3100];
        sparse[100] = true;
        sparse[2500] = true;
        out.push(sparse);
        // dense random-ish
        out.push(
            (0..2048)
                .map(|i: u64| (i.wrapping_mul(2654435761) >> 7) & 1 == 1)
                .collect(),
        );
        out
    }

    #[test]
    fn dense_roundtrip_is_canonical() {
        for bits in patterns() {
            let v = WahVec::from_bits(bits.iter().copied());
            let d = DenseBits::from_wah(&v);
            assert_eq!(d.len(), v.len());
            assert_eq!(d.count_ones(), v.count_ones());
            let back = d.to_wah();
            assert_eq!(back, v);
            back.check_canonical().unwrap();
        }
    }

    #[test]
    fn hybrid_counts_match_naive() {
        let pats = patterns();
        for a_bits in &pats {
            for b_bits in &pats {
                if a_bits.len() != b_bits.len() {
                    continue;
                }
                let a = WahVec::from_bits(a_bits.iter().copied());
                let b = WahVec::from_bits(b_bits.iter().copied());
                let want_and = a_bits.iter().zip(b_bits).filter(|(&x, &y)| x & y).count() as u64;
                assert_eq!(and_count_compressed(&a, &b), want_and);
            }
        }
    }

    #[test]
    fn stats_single_pass_matches() {
        for bits in patterns() {
            let v = WahVec::from_bits(bits.iter().copied());
            let s = v.stats();
            assert_eq!(s.words, v.words().len());
            assert_eq!(s.ones, bits.iter().filter(|&&b| b).count() as u64);
            if !bits.is_empty() {
                let want = s.ones as f64 / bits.len() as f64;
                assert!((s.density - want).abs() < 1e-12);
            }
            assert!(s.runs <= s.words.max(1));
        }
    }

    #[test]
    fn cutover_rule_classifies() {
        // A long fill compresses to one word: far below the cutover.
        assert!(!WahVec::zeros(100_000).is_dense());
        // Alternating bits are incompressible literals: above it.
        let v = WahVec::from_bits((0..10_000).map(|i| i % 2 == 0));
        assert!(v.is_dense());
    }
}
