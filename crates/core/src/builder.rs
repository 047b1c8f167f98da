//! Streaming bitmap construction — the paper's Algorithm 1.
//!
//! [`WahBuilder`] appends bits / 31-bit segments / runs to a single
//! compressed vector in O(1) working state, merging fills on the fly, so a
//! bitvector is never held uncompressed. [`MultiWahBuilder`] runs one builder
//! per bin and consumes a stream of bin ids (one per data element) — the
//! element-at-a-time form of Algorithm 1, kept as the reference the index
//! builds are tested against.
//!
//! [`MultiCodecBuilder`] is what an index is built with: data is scanned
//! once, and each bin is made in the form it is stored in. Constant 31-row
//! segments land as runs, the rows of mixed segments as ascending `u16`
//! rows of the current 64Ki-row chunk (Roaring's array container), and each
//! chunk is sealed into its canonical container as the stream leaves it.
//! At finish every bin's exact [`crate::WahStats`] are counted from its runs
//! and [`crate::select_codec`] fixes its codec: a Roaring-bound bin is
//! already built, a WAH-bound one is emitted from its runs. Working memory
//! is O(#bins + one chunk of rows) beyond the output.

use crate::binning::Binner;
use crate::codec::CodecVec;
use crate::roaring::{RoaringVec, RoaringWriter, CONTAINER_BITS};
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

    /// Finalizes the vector; a partial segment becomes the tail literal.
    pub fn finish(mut self) -> WahVec {
        self.take()
    }

    /// The vector built so far, the builder left empty.
    fn take(&mut self) -> WahVec {
        let len = self.len();
        if self.pending_bits > 0 {
            self.words.push(self.pending & LITERAL_MASK);
        }
        let words = std::mem::take(&mut self.words);
        (self.committed, self.pending, self.pending_bits) = (0, 0, 0);
        WahVec {
            words,
            len_bits: len,
            stats: std::sync::OnceLock::new(),
        }
    }
}

/// Algorithm 1 over all bins at once, an element at a time: one
/// [`WahBuilder`] per bin consuming a stream of bin ids — the reference
/// form ([`crate::BitmapIndex::build_scalar`]) the index builds are tested
/// against.
///
/// Memory never exceeds the compressed output plus one 31-bit segment per
/// *touched* bin. Bins untouched by a segment are extended with 0-fills
/// lazily (a per-bin segment deficit), so each segment costs O(bins
/// touched), not O(total bins).
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

    /// Finalizes all bins; every bitvector has length equal to the number of
    /// elements consumed.
    pub fn finish(mut self) -> Vec<WahVec> {
        // Partial tail segment: append deficits then the partial literals.
        let partial = self.pos_in_seg;
        for &b in &self.touched {
            let b = b as usize;
            let deficit = self.global_segs - self.appended_segs[b];
            if deficit > 0 {
                self.builders[b].append_fill_aligned(false, deficit * SEG_BITS);
            }
            let seg = self.segbuf[b];
            for j in 0..partial {
                self.builders[b].push_bit(seg & (1 << j) != 0);
            }
        }
        let total = self.total_bits;
        self.builders
            .into_iter()
            .map(|mut bld| {
                let miss = total - bld.len();
                if miss > 0 {
                    bld.append_run(false, miss);
                }
                bld.finish()
            })
            .collect()
    }
}

/// Algorithm 1 over all bins, each bin made in the form it is stored in
/// (see the module docs): [`MultiCodecBuilder::finish`] returns every bin
/// as the [`CodecVec`] [`crate::select_codec`] picks for it — the very
/// vector the WAH build plus a conversion would give, byte for byte.
///
/// ```
/// use ibis_core::{Binner, CodecId, MultiCodecBuilder};
///
/// let mut mb = MultiCodecBuilder::new(2);
/// let data: Vec<f64> = (0..10_000).map(|i| (i % 7 == 0) as u8 as f64).collect();
/// mb.extend_binned(&Binner::distinct_ints(0, 1), &data);
/// let bins = mb.finish(); // bin 1 is scattered: built as Roaring
/// assert_eq!((bins[1].id(), bins[1].count_ones()), (CodecId::Roaring, 1429));
/// ```
#[derive(Debug, Default)]
pub struct MultiCodecBuilder {
    bins: Vec<RoaringWriter>,
    /// Rows consumed.
    len: u64,
    /// The chunk the stream is in; every bin has sealed the ones before.
    chunk: u64,
}

impl MultiCodecBuilder {
    /// A builder producing `nbins` parallel bitvectors.
    pub fn new(nbins: usize) -> Self {
        let mut mb = Self::default();
        mb.reset(nbins);
        mb
    }

    /// Consumes one element mapped to `bin_id`.
    #[inline]
    pub fn push(&mut self, bin_id: u32) {
        debug_assert!((bin_id as usize) < self.bins.len(), "bin id out of range");
        self.bins[bin_id as usize].push_row(self.len);
        self.len += 1;
        self.seal_passed();
    }

    /// Consumes `count` elements all mapped to `bin_id`, as one run: O(1)
    /// per chunk it covers, so constant regions of ≥ 2³⁰ rows (past the WAH
    /// fill counter) are cheap to ingest.
    pub fn extend_repeat(&mut self, bin_id: u32, count: u64) {
        self.bins[bin_id as usize].push_run(self.len, self.len + count);
        self.len += count;
        self.seal_passed();
    }

    /// Fused bin+compress fast path: consumes raw values in 31-element
    /// segments, each by one of two paths:
    ///
    /// * **constant segment** (all 31 values bin equally — the common case
    ///   on spatially smooth simulation fields), detected from the chunk's
    ///   min/max without binning every element; consecutive constant
    ///   segments of the same bin accumulate into one run, pushed to that
    ///   bin once.
    /// * **mixed segment**: bin into a stack buffer with the binner's
    ///   branchless bulk loop and scatter the 31 rows to their bins, one
    ///   store each.
    ///
    /// Output is identical to `for &v in data { self.push(binner.bin_of(v)) }`
    /// at any call split; `binner.nbins()` must equal the builder's bins.
    pub fn extend_binned(&mut self, binner: &Binner, data: &[f64]) {
        debug_assert_eq!(
            binner.nbins(),
            self.bins.len(),
            "binner/builder bin mismatch"
        );
        let seg = SEG_BITS as usize;
        // Head: scalar-push until the stream sits on a segment boundary.
        let head = ((seg - (self.len % SEG_BITS) as usize) % seg).min(data.len());
        for &v in &data[..head] {
            self.push(binner.bin_of(v));
        }
        let mut ids = [0u32; SEG_BITS as usize];
        // Open cross-segment constant run: (bin, completed segments).
        let mut run: Option<(u32, u64)> = None;
        // Local obs tallies, flushed once (hot-loop hygiene, §6e).
        let mut fast_segs = 0u64;
        let mut mixed_segs = 0u64;
        let mut run_hits = 0u64;
        let mut run_buckets = [0u64; ibis_obs::RUN_BITS_BOUNDS.len() + 1];
        let mut run_bits_sum = 0u64;
        let mut flush = |mb: &mut Self, (b, k): (u32, u64)| {
            if ibis_obs::ENABLED {
                let bits = k * SEG_BITS;
                run_buckets[ibis_obs::bucket_index(ibis_obs::RUN_BITS_BOUNDS, bits)] += 1;
                run_bits_sum = run_bits_sum.wrapping_add(bits);
            }
            mb.extend_repeat(b, k * SEG_BITS);
        };
        let mut chunks = data[head..].chunks_exact(seg);
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
                    Some(open) => {
                        flush(self, open);
                        Some((first, 1))
                    }
                    None => Some((first, 1)),
                };
            } else {
                if let Some(open) = run.take() {
                    flush(self, open);
                }
                mixed_segs += 1;
                binner.bin_slice_into(chunk, &mut ids);
                for (j, &id) in ids.iter().enumerate() {
                    self.bins[id as usize].push_row(self.len + j as u64);
                }
                self.len += SEG_BITS;
                self.seal_passed();
            }
        }
        if let Some(open) = run.take() {
            flush(self, open);
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
    /// [`MultiCodecBuilder::extend_binned`]. Identical to `extend_binned`
    /// over the fully permuted array: the batched path is call-split
    /// invariant and the chunks keep segment alignment, so the
    /// constant-segment detection sees exactly the same element stream.
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

    /// Seals every bin's pending chunk once the stream has left it, so no
    /// bin holds more than the current chunk's rows unsealed.
    #[inline]
    fn seal_passed(&mut self) {
        let chunk = self.len / CONTAINER_BITS;
        if chunk != self.chunk {
            self.chunk = chunk;
            for w in &mut self.bins {
                w.enter(chunk);
            }
        }
    }

    /// Resets the builder for a fresh stream over `nbins` bins, keeping
    /// the per-bin row buffers, so pipelines building one index per
    /// time-step stop allocating working state per step.
    pub fn reset(&mut self, nbins: usize) {
        self.bins.truncate(nbins);
        self.bins.iter_mut().for_each(RoaringWriter::clear);
        self.bins.resize_with(nbins, RoaringWriter::default);
        self.len = 0;
        self.chunk = 0;
    }

    /// Starts a fresh stream at row `row` instead of row 0 — a parallel
    /// build's sub-block, whose rows land in the chunks they have in the
    /// whole step.
    pub(crate) fn start_at(&mut self, row: u64) {
        debug_assert_eq!(self.len, 0, "start_at on a used builder");
        self.len = row;
        self.chunk = row / CONTAINER_BITS;
    }

    /// Every bin as containers (before its codec is chosen), the builder
    /// reset for a fresh stream over as many bins.
    pub(crate) fn finish_containers(&mut self) -> Vec<RoaringVec> {
        let len = self.len;
        let bins = self.bins.iter_mut().map(|w| w.finish(len)).collect();
        self.reset(self.bins.len());
        bins
    }

    /// Finalizes all bins, each in the codec [`crate::select_codec`] picks
    /// for it; every bitvector has length equal to the elements consumed.
    pub fn finish(mut self) -> Vec<CodecVec> {
        let bins = self.finish_containers().into_iter();
        bins.map(|r| CodecVec::Roaring(r).selected()).collect()
    }
}

thread_local! {
    /// Per-thread builder scratch shared by [`crate::BitmapIndex::build`]
    /// and the per-block phase of [`crate::build_index_parallel`], so
    /// repeated index builds on one thread (the in-situ pipelines build one
    /// index per field per time-step) reuse the per-bin row buffers instead
    /// of allocating them each call.
    static BUILD_SCRATCH: std::cell::RefCell<MultiCodecBuilder> =
        std::cell::RefCell::new(MultiCodecBuilder::default());
}

/// Runs `feed` on the thread's reusable builder scratch, reset for `nbins`
/// bins, and returns every bin as containers.
pub(crate) fn build_reusing_scratch(
    nbins: usize,
    feed: impl FnOnce(&mut MultiCodecBuilder),
) -> Vec<RoaringVec> {
    BUILD_SCRATCH.with(|cell| {
        let mut mb = cell.borrow_mut();
        mb.reset(nbins);
        feed(&mut mb);
        mb.finish_containers()
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
        // Same region through the codec builder: bin 1 holds a ≥ 2^30-bit
        // run (WAH-bound, emitted with its fills split at MAX_FILL_BITS),
        // bin 0 the matching zeros (80 ones: Roaring-bound); the stats
        // counted from the runs are those of the split words.
        let huge = (1u64 << 30) + 7; // deliberately unaligned
        let mut mb = MultiCodecBuilder::new(2);
        mb.extend_repeat(0, 40);
        mb.extend_repeat(1, huge);
        mb.extend_repeat(0, 40);
        let held = mb.finish();
        assert_eq!(held[1].id(), crate::CodecId::Wah);
        let bins: Vec<WahVec> = held.iter().map(CodecVec::to_wah).collect();
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
            let counted = RoaringVec::from_wah(bin).wah_stats();
            assert_eq!(
                counted,
                crate::kernels::compute_stats(bin.words(), bin.len())
            );
        }
    }

    #[test]
    fn extend_repeat_equals_scalar_pushes() {
        let plan = [(0u32, 5u64), (1, 100), (0, 31), (2, 62), (1, 3), (1, 40)];
        let mut batched = MultiCodecBuilder::new(3);
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
            assert_eq!(x.to_wah().words(), y.words(), "bin {b}");
            assert_eq!(x.len(), y.len());
            assert_eq!(x.id(), crate::select_codec(y.stats(), y.len()), "bin {b}");
        }
    }

    #[test]
    #[should_panic(expected = "overflows the 30-bit counter")]
    fn make_fill_rejects_overflow_in_release_too() {
        let _ = make_fill(true, 1u64 << 30);
    }
}
