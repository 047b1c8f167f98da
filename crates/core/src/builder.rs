//! Streaming WAH construction — the paper's Algorithm 1.
//!
//! [`WahBuilder`] appends bits / 31-bit segments / runs to a single
//! compressed vector in O(1) working state, merging fills on the fly, so a
//! bitvector is never held uncompressed. [`MultiWahBuilder`] runs one builder
//! per bin and consumes a stream of bin ids (one per data element), which is
//! exactly the in-place in-situ compression of Algorithm 1: data is scanned
//! once, segment by segment, and each segment is merged into the existing
//! compressed bitvectors.

use crate::binning::Binner;
use crate::wah::{
    fill_bits, is_fill, make_fill, WahVec, FLAG_MASK, LITERAL_MASK, MAX_FILL_BITS, ONE_FILL,
    SEG_BITS, ZERO_FILL,
};
use ibis_obs::{LazyCounter, LazyHistogram};

// Generation-path metrics (family `generation`, see DESIGN.md §6f). The
// fast/mixed split shows how much of the ingest ran the batched
// constant-segment path vs the per-element scatter fallback; run hits count
// segments absorbed into an already-open cross-segment constant run, and the
// histogram records the lengths of the 1-fills those runs became. All
// no-ops when ibis-obs is built without its `obs` feature; the hot loop
// tallies locally and flushes once per `extend_binned` call.
static OBS_FAST_SEGS: LazyCounter = LazyCounter::new("generation.segments.fast");
static OBS_MIXED_SEGS: LazyCounter = LazyCounter::new("generation.segments.mixed");
static OBS_RUN_HITS: LazyCounter = LazyCounter::new("generation.run.hits");
static OBS_RUN_BITS: LazyHistogram =
    LazyHistogram::new("generation.run.bits", ibis_obs::RUN_BITS_BOUNDS);
// Reorder-path metric (family `reorder`, see DESIGN.md §6j): gather chunks
// fed through the fused reorder+bin+compress ingest.
static OBS_GATHER_CHUNKS: LazyCounter = LazyCounter::new("reorder.gather.chunks");

/// Incremental builder for a single [`WahVec`].
///
/// ```
/// use ibis_core::WahBuilder;
///
/// let mut b = WahBuilder::new();
/// b.append_run(false, 1000);
/// b.push_bit(true);
/// b.append_run(false, 1000);
/// let v = b.finish();
/// assert_eq!(v.len(), 2001);
/// assert_eq!(v.count_ones(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WahBuilder {
    words: Vec<u32>,
    /// Bits committed into `words`; always a multiple of 31.
    committed: u64,
    /// Partial segment not yet committed (LSB-first).
    pending: u32,
    pending_bits: u8,
}

impl WahBuilder {
    /// A builder for an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resumes building from an existing vector (its bits are kept).
    pub fn from_vec(v: WahVec) -> Self {
        let mut words = v.words;
        let len = v.len_bits;
        let tail = len % SEG_BITS;
        let (pending, pending_bits) = if tail != 0 {
            let w = words.pop().expect("non-empty tail requires a word");
            debug_assert!(!is_fill(w), "partial tail must be a literal");
            (w, tail as u8)
        } else {
            (0, 0)
        };
        WahBuilder {
            words,
            committed: len - tail,
            pending,
            pending_bits,
        }
    }

    /// Total bits appended so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.committed + self.pending_bits as u64
    }

    /// `true` if no bits have been appended.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a single bit.
    #[inline]
    pub fn push_bit(&mut self, bit: bool) {
        if bit {
            self.pending |= 1 << self.pending_bits;
        }
        self.pending_bits += 1;
        if self.pending_bits as u64 == SEG_BITS {
            let seg = self.pending;
            self.pending = 0;
            self.pending_bits = 0;
            self.append_seg31(seg);
        }
    }

    /// Appends a full 31-bit segment (LSB-first payload). This is the merge
    /// step of Algorithm 1, lines 10–27: an all-ones segment extends or
    /// starts a 1-fill, an all-zeros segment a 0-fill, anything else is
    /// pushed as a literal word.
    ///
    /// # Panics (debug)
    /// The builder must be on a segment boundary.
    #[inline]
    pub fn append_seg31(&mut self, payload: u32) {
        debug_assert_eq!(self.pending_bits, 0, "append_seg31 off segment boundary");
        debug_assert_eq!(payload & !LITERAL_MASK, 0, "payload has flag bits set");
        match payload {
            0 => self.append_fill_aligned(false, SEG_BITS),
            LITERAL_MASK => self.append_fill_aligned(true, SEG_BITS),
            _ => {
                self.words.push(payload);
                self.committed += SEG_BITS;
            }
        }
    }

    /// Appends the low `nbits` bits of `payload` (LSB-first, `nbits` ≤ 31)
    /// in at most two word operations: the low part completes the pending
    /// partial segment, the high part becomes the new pending remainder.
    /// Equivalent to `nbits` [`WahBuilder::push_bit`] calls, but O(1).
    ///
    /// # Panics (debug)
    /// `payload` must have no bits set at or above `nbits`.
    #[inline]
    pub fn append_bits(&mut self, payload: u32, nbits: u8) {
        debug_assert!(nbits as u64 <= SEG_BITS, "append_bits of {nbits} > 31");
        debug_assert!(
            nbits as u64 == SEG_BITS || payload & !((1u32 << nbits) - 1) == 0,
            "payload has bits beyond nbits"
        );
        if nbits == 0 {
            return;
        }
        let total = self.pending_bits + nbits;
        if (total as u64) < SEG_BITS {
            self.pending |= payload << self.pending_bits;
            self.pending_bits = total;
        } else {
            // `pending_bits` < 31 and `nbits` <= 31, so both shifts below
            // stay under 32 and the high bits lost by `<<` are exactly the
            // bits recovered by `>>` into the new pending remainder.
            let seg = (self.pending | (payload << self.pending_bits)) & LITERAL_MASK;
            let consumed = SEG_BITS as u8 - self.pending_bits;
            self.pending = 0;
            self.pending_bits = 0;
            self.append_seg31(seg);
            self.pending = payload >> consumed;
            self.pending_bits = total - SEG_BITS as u8;
        }
    }

    /// Appends `nbits` copies of `bit`, handling any alignment.
    pub fn append_run(&mut self, bit: bool, mut nbits: u64) {
        if self.pending_bits != 0 && nbits > 0 {
            // Head: top the pending segment up word-wise (≤ 30 bits).
            let head = (SEG_BITS - self.pending_bits as u64).min(nbits) as u8;
            self.append_bits(if bit { (1u32 << head) - 1 } else { 0 }, head);
            nbits -= head as u64;
        }
        let whole = nbits - nbits % SEG_BITS;
        if whole > 0 {
            self.append_fill_aligned(bit, whole);
        }
        let tail = (nbits % SEG_BITS) as u8;
        if tail > 0 {
            self.append_bits(if bit { (1u32 << tail) - 1 } else { 0 }, tail);
        }
    }

    /// Appends an aligned fill; `nbits` must be a positive multiple of 31 and
    /// the builder must sit on a segment boundary.
    fn append_fill_aligned(&mut self, bit: bool, mut nbits: u64) {
        debug_assert_eq!(self.pending_bits, 0);
        debug_assert!(nbits > 0 && nbits.is_multiple_of(SEG_BITS));
        self.committed += nbits;
        let flag = if bit { ONE_FILL } else { ZERO_FILL };
        if let Some(last) = self.words.last_mut() {
            if is_fill(*last) && *last & FLAG_MASK == flag {
                let have = fill_bits(*last);
                let take = nbits.min(MAX_FILL_BITS - have);
                debug_assert!(take.is_multiple_of(SEG_BITS));
                if take > 0 {
                    *last += take as u32; // the paper's `LastSeg += 31`, batched
                    nbits -= take;
                }
            }
        }
        while nbits > 0 {
            let take = nbits.min(MAX_FILL_BITS);
            self.words.push(make_fill(bit, take));
            nbits -= take;
        }
    }

    /// Appends the contents of a compressed vector (used to concatenate the
    /// per-sub-block results of parallel generation). O(words of `other`)
    /// even when the receiver sits off a segment boundary: unaligned
    /// literals are spliced with [`WahBuilder::append_bits`] shifts instead
    /// of per-bit pushes, which is what makes the phase-2 concat of
    /// [`crate::build_index_parallel`] linear in compressed words rather
    /// than bits.
    pub fn append_wah(&mut self, other: &WahVec) {
        for run in other.runs() {
            match run {
                crate::runs::Run::Fill(bit, n) => self.append_run(bit, n),
                crate::runs::Run::Literal(payload, nbits) => {
                    if nbits as u64 == SEG_BITS && self.pending_bits == 0 {
                        self.append_seg31(payload);
                    } else {
                        self.append_bits(payload, nbits);
                    }
                }
            }
        }
    }

    /// Clears the builder for a fresh vector, keeping the word allocation.
    pub fn reset(&mut self) {
        self.words.clear();
        self.committed = 0;
        self.pending = 0;
        self.pending_bits = 0;
    }

    /// Finalizes the vector and resets the builder in place, so a caller
    /// holding a long-lived builder (the in-situ pipelines build one index
    /// per field per time-step) can reuse it without reallocating. The
    /// produced vector takes ownership of the accumulated words.
    pub fn finish_reset(&mut self) -> WahVec {
        let len = self.len();
        if self.pending_bits > 0 {
            self.words.push(self.pending & LITERAL_MASK);
        }
        let words = std::mem::take(&mut self.words);
        self.reset();
        WahVec {
            words,
            len_bits: len,
            stats: std::sync::OnceLock::new(),
        }
    }

    /// Finalizes the vector; a partial segment becomes the tail literal.
    pub fn finish(mut self) -> WahVec {
        self.finish_reset()
    }
}

/// Algorithm 1 over all bins at once: one [`WahBuilder`] per bin consuming a
/// stream of bin ids.
///
/// Memory never exceeds the compressed output plus one 31-bit segment per
/// *touched* bin — the property that makes in-situ generation viable on
/// memory-constrained nodes. Bins untouched by a segment are extended with
/// 0-fills lazily (a per-bin segment deficit), so each segment costs
/// O(bins touched), not O(total bins).
///
/// ```
/// use ibis_core::MultiWahBuilder;
///
/// let mut mb = MultiWahBuilder::new(4);
/// for id in [0u32, 1, 1, 2, 3, 3, 2, 0] {
///     mb.push(id);
/// }
/// let bins = mb.finish();
/// assert_eq!(bins.len(), 4);
/// assert_eq!(bins[1].iter_ones().collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct MultiWahBuilder {
    builders: Vec<WahBuilder>,
    /// Per-bin count of 31-bit segments already appended to its builder.
    appended_segs: Vec<u64>,
    /// Current segment payload per bin (valid only for touched bins).
    segbuf: Vec<u32>,
    /// Bins touched by the current segment.
    touched: Vec<u32>,
    pos_in_seg: u8,
    /// Completed segments so far.
    global_segs: u64,
    /// Total elements consumed.
    total_bits: u64,
}

impl MultiWahBuilder {
    /// A builder producing `nbins` parallel bitvectors.
    pub fn new(nbins: usize) -> Self {
        MultiWahBuilder {
            builders: vec![WahBuilder::new(); nbins],
            appended_segs: vec![0; nbins],
            segbuf: vec![0; nbins],
            touched: Vec::with_capacity(SEG_BITS as usize),
            pos_in_seg: 0,
            global_segs: 0,
            total_bits: 0,
        }
    }

    /// Number of bins.
    #[inline]
    pub fn nbins(&self) -> usize {
        self.builders.len()
    }

    /// Elements consumed so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.total_bits
    }

    /// `true` if no elements have been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total_bits == 0
    }

    /// Consumes one element mapped to `bin_id` (Algorithm 1 lines 6–9).
    #[inline]
    pub fn push(&mut self, bin_id: u32) {
        let b = bin_id as usize;
        debug_assert!(b < self.builders.len(), "bin id {b} out of range");
        if self.segbuf[b] == 0 {
            self.touched.push(bin_id);
        }
        self.segbuf[b] |= 1 << self.pos_in_seg;
        self.pos_in_seg += 1;
        self.total_bits += 1;
        if self.pos_in_seg as u64 == SEG_BITS {
            self.flush_seg();
        }
    }

    /// Consumes a slice of bin ids.
    pub fn extend_from(&mut self, ids: &[u32]) {
        for &id in ids {
            self.push(id);
        }
    }

    /// Fused bin+compress fast path: consumes raw values in 31-element
    /// segments and merges each with one of two paths:
    ///
    /// * **constant segment** (all 31 values bin equally — the common case
    ///   on spatially smooth simulation fields), detected from the chunk's
    ///   min/max without binning every element: no per-element `segbuf`
    ///   writes at all; consecutive constant segments of the same bin
    ///   accumulate into a single run that lands as one O(1) 1-fill
    ///   extension on that bin's builder (other bins just grow their lazy
    ///   zero-deficit).
    /// * **mixed segment**: bin into a stack buffer with the binner's
    ///   branchless bulk loop, scatter the 31 ids into `segbuf`, and merge
    ///   via the ordinary segment flush.
    ///
    /// Output is byte-identical to `for &v in data { self.push(binner.bin_of(v)) }`
    /// (property-tested against that oracle); `binner.nbins()` must equal
    /// [`MultiWahBuilder::nbins`].
    pub fn extend_binned(&mut self, binner: &Binner, data: &[f64]) {
        debug_assert_eq!(binner.nbins(), self.nbins(), "binner/builder bin mismatch");
        let mut data = data;
        // Head: scalar-push until the builder sits on a segment boundary.
        if self.pos_in_seg != 0 {
            let head = ((SEG_BITS - self.pos_in_seg as u64) as usize).min(data.len());
            for &v in &data[..head] {
                self.push(binner.bin_of(v));
            }
            data = &data[head..];
        }
        let seg = SEG_BITS as usize;
        let mut ids = [0u32; SEG_BITS as usize];
        // Open cross-segment constant run: (bin, completed segments).
        let mut run: Option<(u32, u64)> = None;
        // Local obs tallies, flushed once (hot-loop hygiene, §6e).
        let mut fast_segs = 0u64;
        let mut mixed_segs = 0u64;
        let mut run_hits = 0u64;
        let mut run_buckets = [0u64; ibis_obs::RUN_BITS_BOUNDS.len() + 1];
        let mut run_bits_sum = 0u64;
        let mut note_run = |segs: u64| {
            if ibis_obs::ENABLED {
                let bits = segs * SEG_BITS;
                run_buckets[ibis_obs::bucket_index(ibis_obs::RUN_BITS_BOUNDS, bits)] += 1;
                run_bits_sum = run_bits_sum.wrapping_add(bits);
            }
        };
        let mut chunks = data.chunks_exact(seg);
        for chunk in &mut chunks {
            // Branchless min/max + NaN sweep (auto-vectorizes). bin_of is
            // monotone in v, so a NaN-free chunk whose extremes share a bin
            // is entirely that bin — two bin_of calls instead of 31.
            let mut mn = chunk[0];
            let mut mx = chunk[0];
            let mut nan = false;
            for &v in chunk {
                mn = if v < mn { v } else { mn };
                mx = if v > mx { v } else { mx };
                nan |= v.is_nan();
            }
            let const_bin = if nan {
                None
            } else {
                let b = binner.bin_of(mn);
                (b == binner.bin_of(mx)).then_some(b)
            };
            if let Some(first) = const_bin {
                fast_segs += 1;
                run = match run {
                    Some((b, k)) if b == first => {
                        run_hits += 1;
                        Some((b, k + 1))
                    }
                    Some((b, k)) => {
                        note_run(k);
                        self.flush_const_run(b, k);
                        Some((first, 1))
                    }
                    None => Some((first, 1)),
                };
            } else {
                if let Some((b, k)) = run.take() {
                    note_run(k);
                    self.flush_const_run(b, k);
                }
                mixed_segs += 1;
                // Scatter the segment; identical to 31 scalar pushes.
                binner.bin_slice_into(chunk, &mut ids);
                for (j, &id) in ids.iter().enumerate() {
                    let b = id as usize;
                    if self.segbuf[b] == 0 {
                        self.touched.push(id);
                    }
                    self.segbuf[b] |= 1 << j;
                }
                self.total_bits += SEG_BITS;
                self.flush_seg();
            }
        }
        if let Some((b, k)) = run.take() {
            note_run(k);
            self.flush_const_run(b, k);
        }
        // Tail: fewer than 31 elements left.
        for &v in chunks.remainder() {
            self.push(binner.bin_of(v));
        }
        if ibis_obs::ENABLED {
            OBS_FAST_SEGS.add(fast_segs);
            OBS_MIXED_SEGS.add(mixed_segs);
            OBS_RUN_HITS.add(run_hits);
            OBS_RUN_BITS.merge_counts(&run_buckets, run_bits_sum);
        }
    }

    /// The fused reorder+bin+compress ingest: consumes the permuted stream
    /// `perm.iter().map(|&o| data[o])` without materializing a permuted
    /// copy of `data`, gathering 31-segment-aligned chunks into a small
    /// scratch buffer and handing each to
    /// [`MultiWahBuilder::extend_binned`]. Byte-identical to
    /// `extend_binned` over the fully permuted array because the batched
    /// path is call-split invariant (property-proven in
    /// `prop_generation.rs`), so the constant-segment and cross-segment
    /// run detection see exactly the same element stream.
    pub fn extend_binned_gather(&mut self, binner: &Binner, data: &[f64], perm: &[u32]) {
        // 64 segments per gather: big enough to amortize the chunk loop,
        // small enough to stay in L1 (16 KiB of f64).
        const GATHER_CHUNK: usize = SEG_BITS as usize * 64;
        let mut scratch: Vec<f64> = Vec::with_capacity(GATHER_CHUNK.min(perm.len()));
        let mut chunks = 0u64;
        for block in perm.chunks(GATHER_CHUNK) {
            scratch.clear();
            scratch.extend(block.iter().map(|&o| data[o as usize]));
            self.extend_binned(binner, &scratch);
            chunks += 1;
        }
        if ibis_obs::ENABLED {
            OBS_GATHER_CHUNKS.add(chunks);
        }
    }

    /// Merges `segs` consecutive all-`bin` segments in O(1): one deficit
    /// settle plus one (possibly merging) 1-fill extension on that bin's
    /// builder; every other bin's zero-deficit grows lazily. Byte-identical
    /// to `segs` scalar segment flushes with only `bin` touched.
    fn flush_const_run(&mut self, bin: u32, segs: u64) {
        debug_assert_eq!(self.pos_in_seg, 0);
        debug_assert!(segs > 0);
        let b = bin as usize;
        let deficit = self.global_segs - self.appended_segs[b];
        if deficit > 0 {
            self.builders[b].append_fill_aligned(false, deficit * SEG_BITS);
        }
        self.builders[b].append_fill_aligned(true, segs * SEG_BITS);
        self.global_segs += segs;
        self.appended_segs[b] = self.global_segs;
        self.total_bits += segs * SEG_BITS;
    }

    /// Consumes `count` elements all mapped to `bin_id` — byte-identical
    /// to `count` [`MultiWahBuilder::push`] calls, but O(1) per whole
    /// segment: the run lands as fill extensions (split across words past
    /// the 30-bit fill-counter capacity), never as per-element pushes, so
    /// constant regions of ≥ 2³⁰ bits are cheap to ingest. This is also
    /// the batched entry the fill-overflow regression tests drive.
    pub fn extend_repeat(&mut self, bin_id: u32, mut count: u64) {
        debug_assert!((bin_id as usize) < self.builders.len());
        while self.pos_in_seg != 0 && count > 0 {
            self.push(bin_id);
            count -= 1;
        }
        let segs = count / SEG_BITS;
        if segs > 0 {
            self.flush_const_run(bin_id, segs);
            count -= segs * SEG_BITS;
        }
        for _ in 0..count {
            self.push(bin_id);
        }
    }

    /// Merges the completed segment into every touched builder
    /// (Algorithm 1 lines 10–27).
    fn flush_seg(&mut self) {
        for &b in &self.touched {
            let b = b as usize;
            let deficit = self.global_segs - self.appended_segs[b];
            if deficit > 0 {
                self.builders[b].append_fill_aligned(false, deficit * SEG_BITS);
            }
            self.builders[b].append_seg31(self.segbuf[b]);
            self.appended_segs[b] = self.global_segs + 1;
            self.segbuf[b] = 0;
        }
        self.touched.clear();
        self.global_segs += 1;
        self.pos_in_seg = 0;
    }

    /// Resets the builder for a fresh stream over `nbins` bins, keeping
    /// every allocation that can be kept (the per-bin bookkeeping vectors
    /// and the builder list), so pipelines building one index per time-step
    /// stop allocating working state per step.
    pub fn reset(&mut self, nbins: usize) {
        self.builders.truncate(nbins);
        for b in &mut self.builders {
            b.reset();
        }
        self.builders.resize_with(nbins, WahBuilder::new);
        self.appended_segs.clear();
        self.appended_segs.resize(nbins, 0);
        self.segbuf.clear();
        self.segbuf.resize(nbins, 0);
        self.touched.clear();
        self.pos_in_seg = 0;
        self.global_segs = 0;
        self.total_bits = 0;
    }

    /// Finalizes all bins and resets the builder in place (see
    /// [`MultiWahBuilder::reset`]); every bitvector has length equal to the
    /// number of elements consumed.
    pub fn finish_reset(&mut self) -> Vec<WahVec> {
        // Partial tail segment: append deficits then the partial literals.
        let partial = self.pos_in_seg;
        let touched = std::mem::take(&mut self.touched);
        for &b in &touched {
            let b = b as usize;
            let deficit = self.global_segs - self.appended_segs[b];
            if deficit > 0 {
                self.builders[b].append_fill_aligned(false, deficit * SEG_BITS);
            }
            let seg = self.segbuf[b];
            for j in 0..partial {
                self.builders[b].push_bit(seg & (1 << j) != 0);
            }
            self.segbuf[b] = 0;
            self.appended_segs[b] = self.global_segs; // deficit now settled
        }
        let total = self.total_bits;
        let nbins = self.builders.len();
        let out = self
            .builders
            .iter_mut()
            .map(|bld| {
                let miss = total - bld.len();
                if miss > 0 {
                    bld.append_run(false, miss);
                }
                bld.finish_reset()
            })
            .collect();
        self.reset(nbins);
        out
    }

    /// Finalizes all bins; every bitvector has length equal to the number of
    /// elements consumed.
    pub fn finish(mut self) -> Vec<WahVec> {
        self.finish_reset()
    }
}

thread_local! {
    /// Per-thread builder scratch shared by [`crate::BitmapIndex::build`]
    /// and the per-block phase of [`crate::build_index_parallel`], so
    /// repeated index builds on one thread (the in-situ pipelines build one
    /// index per field per time-step) reuse the per-bin bookkeeping instead
    /// of allocating it each call.
    static BUILD_SCRATCH: std::cell::RefCell<MultiWahBuilder> =
        std::cell::RefCell::new(MultiWahBuilder::new(0));
}

/// Runs the fused bin+compress fast path over `data` on the thread's
/// reusable builder scratch and returns the finished bins.
pub(crate) fn build_bins_reusing_scratch(binner: &Binner, data: &[f64]) -> Vec<WahVec> {
    BUILD_SCRATCH.with(|cell| {
        let mut mb = cell.borrow_mut();
        mb.reset(binner.nbins());
        mb.extend_binned(binner, data);
        mb.finish_reset()
    })
}

/// [`build_bins_reusing_scratch`] over the permuted stream `data[perm[i]]`
/// (gathered chunk-wise, never materialized whole) — the reorder pass of
/// [`crate::BitmapIndex::build_permuted`].
pub(crate) fn build_bins_reusing_scratch_permuted(
    binner: &Binner,
    data: &[f64],
    perm: &[u32],
) -> Vec<WahVec> {
    BUILD_SCRATCH.with(|cell| {
        let mut mb = cell.borrow_mut();
        mb.reset(binner.nbins());
        mb.extend_binned_gather(binner, data, perm);
        mb.finish_reset()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wah::COUNT_MASK;

    #[test]
    fn push_bits_roundtrip() {
        let bits: Vec<bool> = (0..97).map(|i| i % 5 < 2).collect();
        let mut b = WahBuilder::new();
        for &bit in &bits {
            b.push_bit(bit);
        }
        let v = b.finish();
        assert_eq!(v.to_bools(), bits);
        v.check_canonical().unwrap();
    }

    #[test]
    fn append_run_merges_across_calls() {
        let mut b = WahBuilder::new();
        b.append_run(true, 62);
        b.append_run(true, 62);
        let v = b.finish();
        assert_eq!(v.words().len(), 1);
        assert_eq!(v.count_ones(), 124);
        v.check_canonical().unwrap();
    }

    #[test]
    fn append_run_zero_is_noop() {
        let mut b = WahBuilder::new();
        b.append_run(true, 0);
        b.push_bit(false);
        b.append_run(false, 0);
        let v = b.finish();
        assert_eq!(v.len(), 1);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn unaligned_run_then_segment() {
        let mut b = WahBuilder::new();
        b.push_bit(true); // off-boundary
        b.append_run(false, 100);
        b.append_run(true, 100);
        let v = b.finish();
        assert_eq!(v.len(), 201);
        assert_eq!(v.count_ones(), 101);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(!v.get(100));
        assert!(v.get(101));
        v.check_canonical().unwrap();
    }

    #[test]
    fn fill_overflow_splits() {
        let huge = MAX_FILL_BITS * 2 + SEG_BITS * 3;
        let mut b = WahBuilder::new();
        b.append_run(true, huge);
        let v = b.finish();
        assert_eq!(v.len(), huge);
        assert_eq!(v.count_ones(), huge);
        assert_eq!(v.words().len(), 3);
        v.check_canonical().unwrap();
    }

    #[test]
    fn from_vec_resumes_partial_tail() {
        let bits: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let v = WahVec::from_bits(bits.iter().copied());
        let mut b = WahBuilder::from_vec(v);
        b.push_bit(true);
        let v2 = b.finish();
        let mut want = bits;
        want.push(true);
        assert_eq!(v2.to_bools(), want);
        v2.check_canonical().unwrap();
    }

    #[test]
    fn from_vec_resumes_aligned() {
        let v = WahVec::ones(62);
        let mut b = WahBuilder::from_vec(v);
        b.append_run(true, 31);
        let v2 = b.finish();
        assert_eq!(v2.len(), 93);
        assert_eq!(v2.words().len(), 1);
    }

    #[test]
    fn append_wah_equals_manual_concat() {
        let a_bits: Vec<bool> = (0..75).map(|i| i % 7 == 0).collect();
        let b_bits: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        let mut bld = WahBuilder::new();
        bld.append_wah(&WahVec::from_bits(a_bits.iter().copied()));
        bld.append_wah(&WahVec::from_bits(b_bits.iter().copied()));
        let v = bld.finish();
        let want: Vec<bool> = a_bits.into_iter().chain(b_bits).collect();
        assert_eq!(v.to_bools(), want);
        v.check_canonical().unwrap();
    }

    #[test]
    fn multi_builder_basic() {
        let ids = [0u32, 1, 1, 2, 3, 3, 2, 0]; // Figure 1's example dataset
        let mut mb = MultiWahBuilder::new(4);
        mb.extend_from(&ids);
        assert_eq!(mb.len(), 8);
        let bins = mb.finish();
        assert_eq!(bins[0].iter_ones().collect::<Vec<_>>(), vec![0, 7]);
        assert_eq!(bins[1].iter_ones().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(bins[2].iter_ones().collect::<Vec<_>>(), vec![3, 6]);
        assert_eq!(bins[3].iter_ones().collect::<Vec<_>>(), vec![4, 5]);
        for b in &bins {
            assert_eq!(b.len(), 8);
            b.check_canonical().unwrap();
        }
    }

    #[test]
    fn multi_builder_exactly_one_bin_per_position() {
        let ids: Vec<u32> = (0..500).map(|i| (i * i) % 7).collect();
        let mut mb = MultiWahBuilder::new(7);
        mb.extend_from(&ids);
        let bins = mb.finish();
        for pos in 0..500u64 {
            let set: Vec<usize> = (0..7).filter(|&b| bins[b].get(pos)).collect();
            assert_eq!(set, vec![ids[pos as usize] as usize], "position {pos}");
        }
    }

    #[test]
    fn multi_builder_untouched_bin_is_all_zero_fill() {
        let ids = vec![0u32; 310];
        let mut mb = MultiWahBuilder::new(3);
        mb.extend_from(&ids);
        let bins = mb.finish();
        assert_eq!(bins[0].count_ones(), 310);
        assert_eq!(bins[1].count_ones(), 0);
        assert_eq!(
            bins[1].words().len(),
            1,
            "untouched bin should be a single fill"
        );
        assert_eq!(bins[2].words().len(), 1);
        for b in &bins {
            b.check_canonical().unwrap();
        }
    }

    #[test]
    fn multi_builder_partial_tail() {
        let ids = [2u32, 0, 1]; // 3 elements, well under a segment
        let mut mb = MultiWahBuilder::new(3);
        mb.extend_from(&ids);
        let bins = mb.finish();
        for (b, bin) in bins.iter().enumerate() {
            assert_eq!(bin.len(), 3);
            assert_eq!(bin.count_ones(), 1, "bin {b}");
            bin.check_canonical().unwrap();
        }
        assert!(bins[2].get(0));
        assert!(bins[0].get(1));
        assert!(bins[1].get(2));
    }

    #[test]
    fn multi_builder_deficit_spanning_many_segments() {
        // Bin 1 is touched only at the very start and very end; the long gap
        // must appear as one merged 0-fill.
        let mut ids = vec![0u32; 31 * 100];
        ids[0] = 1;
        let last = ids.len() - 1;
        ids[last] = 1;
        let mut mb = MultiWahBuilder::new(2);
        mb.extend_from(&ids);
        let bins = mb.finish();
        assert_eq!(bins[1].count_ones(), 2);
        assert_eq!(
            bins[1].iter_ones().collect::<Vec<_>>(),
            vec![0, last as u64]
        );
        assert!(
            bins[1].words().len() <= 4,
            "gap should compress to one fill"
        );
        bins[0].check_canonical().unwrap();
        bins[1].check_canonical().unwrap();
    }

    #[test]
    fn multi_builder_zero_bins_zero_elems() {
        let mb = MultiWahBuilder::new(0);
        assert!(mb.finish().is_empty());
        let mb = MultiWahBuilder::new(3);
        let bins = mb.finish();
        assert!(bins.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn builder_len_tracks() {
        let mut b = WahBuilder::new();
        assert!(b.is_empty());
        b.push_bit(true);
        assert_eq!(b.len(), 1);
        b.append_run(false, 61);
        assert_eq!(b.len(), 62);
    }

    #[test]
    fn count_mask_capacity_sane() {
        assert!(MAX_FILL_BITS.is_multiple_of(SEG_BITS));
        assert!(MAX_FILL_BITS + SEG_BITS <= COUNT_MASK as u64);
    }

    #[test]
    fn fill_overflow_scalar_builder_splits_past_2_pow_30() {
        // A constant region longer than the 30-bit fill counter (2^30
        // bits > MAX_FILL_BITS) must split across fill words, never
        // truncate. O(1) memory: fills are run-level, not per-bit.
        let huge = (1u64 << 30).next_multiple_of(SEG_BITS); // ≥ 2^30, aligned
        let mut b = WahBuilder::new();
        b.append_run(false, 62);
        b.append_run(true, huge);
        b.append_run(false, 62);
        let v = b.finish();
        assert_eq!(v.len(), huge + 124);
        assert_eq!(v.count_ones(), huge);
        v.check_canonical().unwrap();
        // every word's fill counter is within capacity
        for &w in v.words() {
            if is_fill(w) {
                assert!(fill_bits(w) <= MAX_FILL_BITS);
            }
        }
        assert!(v.words().len() <= 4, "got {} words", v.words().len());
    }

    #[test]
    fn fill_overflow_batched_builder_splits_past_2_pow_30() {
        // Same region through the batched multi-bin builder: bin 1 holds
        // a ≥ 2^30-bit 1-fill, bin 0 the matching 0-fill deficit — both
        // must split at MAX_FILL_BITS.
        let huge = (1u64 << 30) + 7; // deliberately unaligned
        let mut mb = MultiWahBuilder::new(2);
        mb.extend_repeat(0, 40);
        mb.extend_repeat(1, huge);
        mb.extend_repeat(0, 40);
        let bins = mb.finish();
        assert_eq!(bins[0].len(), huge + 80);
        assert_eq!(bins[0].count_ones(), 80);
        assert_eq!(bins[1].count_ones(), huge);
        for bin in &bins {
            bin.check_canonical().unwrap();
            for &w in bin.words() {
                if is_fill(w) {
                    assert!(fill_bits(w) <= MAX_FILL_BITS);
                }
            }
        }
    }

    #[test]
    fn extend_repeat_equals_scalar_pushes() {
        let plan = [(0u32, 5u64), (1, 100), (0, 31), (2, 62), (1, 3), (1, 40)];
        let mut batched = MultiWahBuilder::new(3);
        let mut scalar = MultiWahBuilder::new(3);
        for &(bin, n) in &plan {
            batched.extend_repeat(bin, n);
            for _ in 0..n {
                scalar.push(bin);
            }
        }
        let vb = batched.finish();
        let vs = scalar.finish();
        for (b, (x, y)) in vb.iter().zip(&vs).enumerate() {
            assert_eq!(x.words(), y.words(), "bin {b}");
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    #[should_panic(expected = "overflows the 30-bit counter")]
    fn make_fill_rejects_overflow_in_release_too() {
        let _ = make_fill(true, 1u64 << 30);
    }
}
