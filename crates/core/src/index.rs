//! The bitmap index: one bitvector per bin over a single variable's values
//! for one time-step, each held in the codec its bin selected.
//!
//! The index doubles as the paper's data summary: its cached per-bin 1-bit
//! counts *are* the value histogram, so Shannon entropy and count-based EMD
//! come for free, while joint distributions (conditional entropy, mutual
//! information) and spatial differences (spatial EMD) are an AND count per
//! bin pair away. After the index is built the original data can be
//! discarded.

use crate::binning::Binner;
use crate::builder::{build_reusing_scratch, MultiCodecBuilder, MultiWahBuilder};
use crate::codec::{codec_for, CodecId, CodecVec};
use crate::kernels::DenseBits;
use crate::roaring::RoaringVec;
use crate::wah::WahVec;
use ibis_obs::LazyCounter;
use std::fmt;
use std::sync::OnceLock;

// Roaring bins an index transcoded to WAH because something asked for them
// (a no-op without `obs`).
static OBS_TRANSCODED: LazyCounter = LazyCounter::new("codec.decode.transcoded_bins");

/// A malformed value-range query ([`BitmapIndex::try_query_range`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RangeQueryError {
    /// A bound is NaN — the query is meaningless, not empty.
    NanBound {
        /// The lower bound as given.
        lo: f64,
        /// The upper bound as given.
        hi: f64,
    },
}

impl fmt::Display for RangeQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeQueryError::NanBound { lo, hi } => {
                write!(f, "value range [{lo}, {hi}) has a NaN bound")
            }
        }
    }
}

impl std::error::Error for RangeQueryError {}

/// A (single-level) bitmap index over one array of values.
///
/// ```
/// use ibis_core::{Binner, BitmapIndex};
///
/// let data = [4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0, 1.0]; // Figure 1
/// let index = BitmapIndex::build(&data, Binner::distinct_ints(1, 4));
/// assert_eq!(index.counts(), &[2, 2, 2, 2]);
/// assert_eq!(index.bin(0).iter_ones().collect::<Vec<_>>(), vec![1, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    binner: Binner,
    bins: Vec<Bin>,
    counts: Vec<u64>,
    len: u64,
    /// `Σ counts == len`, computed once in
    /// [`BitmapIndex::from_codec_bins`].
    partitions: bool,
    /// `cost_prefix[b]` is the at-rest cost of bins `0..b`, computed once
    /// in [`BitmapIndex::from_codec_bins`]: the planner costs a span of
    /// bins with two reads ([`BitmapIndex::bins_cost_bytes`]).
    cost_prefix: Vec<u64>,
    /// [`BitmapIndex::size_bytes`], summed once.
    size: usize,
}

/// One bin: the form it arrived in and, for a bin that arrived as Roaring
/// — the form the selector judged right for it — the WAH form made the
/// first time [`BitmapIndex::bin`] asks.
#[derive(Debug, Clone)]
struct Bin {
    stored: CodecVec,
    wah: OnceLock<WahVec>,
}

impl BitmapIndex {
    /// Builds the index with the paper's Algorithm 1: one pass over the
    /// data, compressing as it goes, each bin made in the codec it is
    /// stored in ([`MultiCodecBuilder::extend_binned`], on a per-thread
    /// reusable builder). Every bin equals its [`BitmapIndex::build_scalar`]
    /// bin, in the codec [`crate::select_codec`] picks for it.
    pub fn build(data: &[f64], binner: Binner) -> Self {
        let bins = build_reusing_scratch(binner.nbins(), |mb| mb.extend_binned(&binner, data));
        Self::from_built(binner, bins)
    }

    /// [`BitmapIndex::build`] over the reordered stream `data[perm[i]]` —
    /// the compression-aware reorder pass fused into ingestion
    /// ([`MultiCodecBuilder::extend_binned_gather`]): the permuted array is
    /// never materialized, and the result is identical to
    /// `build(&perm.reorder(data), binner)`.
    ///
    /// # Panics
    /// When `perm.len() != data.len()`.
    pub fn build_permuted(
        data: &[f64],
        binner: Binner,
        perm: &crate::roworder::RowPermutation,
    ) -> Self {
        assert_eq!(perm.len(), data.len(), "permutation length mismatch");
        let bins = build_reusing_scratch(binner.nbins(), |mb| {
            mb.extend_binned_gather(&binner, data, perm.perm())
        });
        Self::from_built(binner, bins)
    }

    /// An index over freshly built bins, each held in the codec
    /// [`crate::select_codec`] picks for it.
    pub(crate) fn from_built(binner: Binner, bins: Vec<RoaringVec>) -> Self {
        let bins = bins.into_iter().map(|r| CodecVec::Roaring(r).selected());
        Self::from_codec_bins(binner, bins.collect())
    }

    /// The index re-expressed in original row order: the exact inverse of
    /// [`BitmapIndex::build_permuted`], byte-identical to building the
    /// identity-order index from the same data. O(n) — the stored bins are
    /// decoded into a per-row bin-id array (scattered through `perm`, so it
    /// lands already in original order) and re-compressed in one pass.
    /// Cross-step metrics use this: two steps reordered by *different*
    /// permutations have no common row space until both are restored.
    ///
    /// # Panics
    /// When `perm.len() != self.len()`.
    pub fn unpermute(&self, perm: &crate::roworder::RowPermutation) -> Self {
        assert_eq!(perm.len() as u64, self.len, "permutation length mismatch");
        let mut ids = vec![0u32; perm.len()];
        let gather = perm.perm();
        for (b, bits) in self.bins().enumerate() {
            let mut ones = bits.ones_cursor();
            while let Some(run) = ones.next_before(self.len) {
                run.for_each(|s| ids[gather[s as usize] as usize] = b as u32);
            }
        }
        Self::build_from_ids(&ids, self.binner.clone())
    }

    /// The element-at-a-time reference build (one `bin_of` + one `push` per
    /// element). Kept as the property-test oracle for the batched fast
    /// path.
    pub fn build_scalar(data: &[f64], binner: Binner) -> Self {
        let mut mb = MultiWahBuilder::new(binner.nbins());
        for &v in data {
            mb.push(binner.bin_of(v));
        }
        Self::from_bins(binner, mb.finish())
    }

    /// Builds from pre-computed bin ids (ids must be `< binner.nbins()`).
    pub fn build_from_ids(ids: &[u32], binner: Binner) -> Self {
        let mut mb = MultiCodecBuilder::new(binner.nbins());
        for run in ids.chunk_by(|a, b| a == b) {
            mb.extend_repeat(run[0], run.len() as u64);
        }
        Self::from_codec_bins(binner, mb.finish())
    }

    /// Assembles an index from existing bitvectors (e.g. concatenated
    /// sub-block results of parallel generation).
    ///
    /// # Panics
    /// Panics if bin count mismatches the binner or lengths differ.
    pub fn from_bins(binner: Binner, bins: Vec<WahVec>) -> Self {
        Self::from_codec_bins(binner, bins.into_iter().map(CodecVec::Wah).collect())
    }

    /// Assembles an index from bins in whichever codec each arrives in —
    /// what a decoder holds once a stored payload is verified. Nothing is
    /// converted here: counts come from each form's own cardinality, a
    /// Roaring bin costs the planner its serialized length (the true
    /// at-rest bytes the WAH-side formula estimates), and its WAH form is
    /// made the first time [`BitmapIndex::bin`] asks for it.
    ///
    /// # Panics
    /// Panics if bin count mismatches the binner or lengths differ.
    pub fn from_codec_bins(binner: Binner, bins: Vec<CodecVec>) -> Self {
        assert_eq!(bins.len(), binner.nbins(), "bin count mismatch");
        let len = bins.first().map_or(0, CodecVec::len);
        assert!(
            bins.iter().all(|b| b.len() == len),
            "bins must share a length"
        );
        let counts: Vec<u64> = bins.iter().map(CodecVec::count_ones).collect();
        let mut cost_prefix = vec![0u64; bins.len() + 1];
        for (b, v) in bins.iter().enumerate() {
            cost_prefix[b + 1] = cost_prefix[b]
                + match v {
                    CodecVec::Wah(v) => v.at_rest_bytes(),
                    CodecVec::Roaring(v) => v.serialized_bytes() as u64,
                };
        }
        let size = bins.iter().map(CodecVec::size_bytes).sum();
        let bins = bins.into_iter().map(|stored| Bin {
            stored,
            wah: OnceLock::new(),
        });
        BitmapIndex {
            binner,
            bins: bins.collect(),
            partitions: counts.iter().sum::<u64>() == len,
            counts,
            len,
            cost_prefix,
            size,
        }
    }

    /// The binning scale the index was built with.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Number of bins (bitvectors).
    pub fn nbins(&self) -> usize {
        self.bins.len()
    }

    /// Number of indexed elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bitvector of bin `b`. The first call on a bin that arrived in
    /// Roaring form transcodes it, once whatever the number of callers.
    pub fn bin(&self, b: usize) -> &WahVec {
        let bin = &self.bins[b];
        match &bin.stored {
            CodecVec::Wah(v) => v,
            CodecVec::Roaring(r) => bin.wah.get_or_init(|| {
                OBS_TRANSCODED.inc();
                r.to_wah()
            }),
        }
    }

    /// Bin `b` if its WAH form is already there — [`BitmapIndex::bin`]
    /// without the transcode.
    pub fn resident_bin(&self, b: usize) -> Option<&WahVec> {
        let bin = &self.bins[b];
        bin.stored.as_wah().or_else(|| bin.wah.get())
    }

    /// Bin `b` in the form it arrived in. What only counts or walks a
    /// bin's rows reads this and never causes a transcode.
    pub fn stored_bin(&self, b: usize) -> &CodecVec {
        &self.bins[b].stored
    }

    /// All bitvectors, in bin order ([`BitmapIndex::bin`] of each).
    pub fn bins(&self) -> impl ExactSizeIterator<Item = &WahVec> + '_ {
        (0..self.bins.len()).map(|b| self.bin(b))
    }

    /// Per-bin 1-bit counts — the exact value histogram of the indexed data.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Whether the bins partition the rows — every row set in exactly one
    /// bin — as any index built from data does and a lossy superset index
    /// (overlapping bins) does not. Tested as `Σ counts == len`: every
    /// statistic rests on it (the complement plan, subset counts, the
    /// one-pass joint table), and the store refuses an exact index that
    /// fails it.
    pub fn partitions(&self) -> bool {
        self.partitions
    }

    /// Compressed size in bytes of all bitvectors, each in the form it
    /// arrived in — what the in-situ pipeline charges to memory, a cache
    /// charges an entry, and storage holds instead of the raw data. Fixed
    /// for the index's life: no statistic asks a stored bin for its WAH
    /// form.
    pub fn size_bytes(&self) -> usize {
        self.size
    }

    /// The codec the store writes bin `b` in, not tallied: Roaring for a
    /// bin held as Roaring (where [`crate::select_codec`] or the store put
    /// it), else the codec `select_codec` picks from the WAH bin's stats.
    pub fn bin_codec(&self, b: usize) -> CodecId {
        match self.stored_bin(b) {
            CodecVec::Roaring(_) => CodecId::Roaring,
            CodecVec::Wah(v) => codec_for(v.stats(), self.len),
        }
    }

    /// The full per-bin codec plan, in bin order — what the store writes
    /// (per-blob codec tags) and the planner costs.
    pub fn codec_plan(&self) -> Vec<CodecId> {
        (0..self.bins.len()).map(|b| self.bin_codec(b)).collect()
    }

    /// At-rest cost in bytes of bin `b` — the query planner's per-bin
    /// cost unit: [`WahVec::at_rest_bytes`] of a bin that arrived as WAH,
    /// the serialized length of one that arrived as Roaring.
    pub fn bin_cost_bytes(&self, b: usize) -> u64 {
        self.bins_cost_bytes(b..b + 1)
    }

    /// Summed [`BitmapIndex::bin_cost_bytes`] of the adjacent bins `bins`.
    pub fn bins_cost_bytes(&self, bins: std::ops::Range<usize>) -> u64 {
        self.cost_prefix[bins.end] - self.cost_prefix[bins.start]
    }

    /// The inclusive range of bins a `[lo, hi)` value query touches, or
    /// `None` when the interval selects nothing (inverted, empty, or a NaN
    /// bound — every comparison with NaN is false, so the span is empty).
    /// This is the planner's unit of work: which bins a range query touches
    /// determines the cost of every evaluation strategy.
    pub fn bin_span(&self, lo: f64, hi: f64) -> Option<(usize, usize)> {
        // NaN must land in the None arm: only a definite `hi > lo` proceeds.
        if self.bins.is_empty() || hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return None;
        }
        let b0 = self.binner.bin_of(lo) as usize;
        let b1 = self.binner.bin_of(hi) as usize;
        // hi is exclusive: drop the last bin when hi is exactly its low edge.
        let b1 = if b1 > b0 && self.binner.bin_range(b1).0 >= hi {
            b1 - 1
        } else {
            b1
        };
        Some((b0, b1))
    }

    /// Positions whose value falls in `[lo, hi)`: OR of the overlapping
    /// bins. Values are matched at bin granularity (the usual bitmap-index
    /// semantics — a bin is included if its range intersects `[lo, hi)`).
    ///
    /// Total on any input: an inverted (`lo > hi`), empty (`lo == hi`), or
    /// NaN-bounded interval yields the all-zeros selection. Callers that
    /// must *reject* NaN bounds instead of silently matching nothing use
    /// [`BitmapIndex::try_query_range`].
    pub fn query_range(&self, lo: f64, hi: f64) -> WahVec {
        match self.bin_span(lo, hi) {
            Some((b0, b1)) => self.query_bins(b0..=b1),
            None => WahVec::zeros(self.len),
        }
    }

    /// [`BitmapIndex::query_range`] with strict bound validation: a NaN
    /// bound is a malformed query, not an empty one, and is reported as a
    /// typed error. Inverted and empty intervals remain empty selections.
    pub fn try_query_range(&self, lo: f64, hi: f64) -> Result<WahVec, RangeQueryError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(RangeQueryError::NanBound { lo, hi });
        }
        Ok(self.query_range(lo, hi))
    }

    /// OR of an inclusive range of bins.
    pub fn query_bins(&self, bins: std::ops::RangeInclusive<usize>) -> WahVec {
        self.or_bins(bins)
    }

    /// OR of the given bins — the canonical vector [`WahVec::or_many`]
    /// gives over [`BitmapIndex::bin`] of each — all zeros for none. When
    /// a bin held as Roaring is among them and the operands are heavy
    /// enough that `or_many` would accumulate densely anyway, each is ORed
    /// into that accumulator from the form it is held in: no bin is
    /// transcoded to be read once.
    pub fn or_bins(&self, bins: impl IntoIterator<Item = usize>) -> WahVec {
        let bins: Vec<usize> = bins.into_iter().collect();
        let all_wah = bins.iter().all(|&b| self.resident_bin(b).is_some());
        let words = bins.iter().map(|&b| self.bin_cost_bytes(b)).sum::<u64>() / 4;
        let or = if all_wah || words <= self.len / 64 {
            WahVec::or_many(bins.iter().map(|&b| self.bin(b)))
        } else {
            let mut acc = DenseBits::zeros(self.len);
            for &b in &bins {
                acc.or_stored(self.stored_bin(b));
            }
            acc.to_wah()
        };
        match or.is_empty() {
            true => WahVec::zeros(self.len),
            false => or,
        }
    }

    /// The index restricted to the half-open row range `[start, end)`: every
    /// bin sliced in the form it is held in, then held in the codec its
    /// slice selects. This is the spatial-shard splitter — because value
    /// predicates are per-bin ORs and set operations distribute over row
    /// slices, evaluating any query on `slice_rows(lo..hi)` yields exactly
    /// the `lo..hi` slice of the same query's global selection, which is
    /// what lets sharded scatter-gather answers concatenate byte-identically.
    ///
    /// # Panics
    /// Panics when the range is inverted or exceeds the row count.
    pub fn slice_rows(&self, range: std::ops::Range<u64>) -> Self {
        let bins = self.bins.iter().map(|b| match &b.stored {
            CodecVec::Wah(v) => CodecVec::Wah(v.slice(range.clone())).selected(),
            CodecVec::Roaring(v) => CodecVec::Roaring(v.slice(range.clone())).selected(),
        });
        Self::from_codec_bins(self.binner.clone(), bins.collect())
    }

    /// Verifies structural invariants (tests / debugging): per-bin lengths,
    /// cached counts, each position set in exactly one bin.
    pub fn check_consistent(&self) -> Result<(), String> {
        for (i, b) in self.bins().enumerate() {
            if b.len() != self.len {
                return Err(format!("bin {i} has length {} != {}", b.len(), self.len));
            }
            b.check_canonical().map_err(|e| format!("bin {i}: {e}"))?;
            if b.count_ones() != self.counts[i] {
                return Err(format!("bin {i}: stale cached count"));
            }
        }
        let total: u64 = self.counts.iter().sum();
        if total != self.len {
            return Err(format!("counts sum to {total}, expected {}", self.len));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_index() -> BitmapIndex {
        BitmapIndex::build(
            &[4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0, 1.0],
            Binner::distinct_ints(1, 4),
        )
    }

    #[test]
    fn figure1_low_level_bitvectors() {
        let idx = figure1_index();
        // Matches the paper's Figure 1 low-level indices exactly.
        assert_eq!(idx.bin(0).to_bools(), bits("01000001"));
        assert_eq!(idx.bin(1).to_bools(), bits("00110000"));
        assert_eq!(idx.bin(2).to_bools(), bits("00001010"));
        assert_eq!(idx.bin(3).to_bools(), bits("10000100"));
        idx.check_consistent().unwrap();
    }

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn counts_are_exact_histogram() {
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 100) as f64).collect();
        let binner = Binner::fixed_width(0.0, 100.0, 10);
        let idx = BitmapIndex::build(&data, binner.clone());
        let mut hist = vec![0u64; 10];
        for &v in &data {
            hist[binner.bin_of(v) as usize] += 1;
        }
        assert_eq!(idx.counts(), hist.as_slice());
        idx.check_consistent().unwrap();
    }

    #[test]
    fn build_from_ids_equals_build() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin()).collect();
        let binner = Binner::fixed_width(-1.0, 1.0, 8);
        let a = BitmapIndex::build(&data, binner.clone());
        let ids = binner.bin_all(&data);
        let b = BitmapIndex::build_from_ids(&ids, binner);
        for k in 0..8 {
            assert_eq!(a.bin(k), b.bin(k));
        }
    }

    #[test]
    fn empty_data() {
        let idx = BitmapIndex::build(&[], Binner::fixed_width(0.0, 1.0, 4));
        assert!(idx.is_empty());
        assert_eq!(idx.counts(), &[0, 0, 0, 0]);
        idx.check_consistent().unwrap();
    }

    #[test]
    fn query_range_matches_scan() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 50) as f64).collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 50.0, 50));
        let hits = idx.query_range(10.0, 20.0);
        let want: Vec<u64> = data
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (10.0..20.0).contains(&v).then_some(i as u64))
            .collect();
        assert_eq!(hits.iter_ones().collect::<Vec<_>>(), want);
    }

    #[test]
    fn query_range_empty_interval() {
        let data = [1.0, 2.0, 3.0];
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 4.0, 4));
        assert_eq!(idx.query_range(2.0, 2.0).count_ones(), 0);
        assert_eq!(idx.query_range(3.0, 1.0).count_ones(), 0);
        assert_eq!(idx.bin_span(2.0, 2.0), None);
        assert_eq!(idx.bin_span(3.0, 1.0), None);
    }

    #[test]
    fn query_range_nan_bounds() {
        let data = [1.0, 2.0, 3.0];
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 4.0, 4));
        // the total form: NaN selects nothing, never panics
        assert_eq!(idx.query_range(f64::NAN, 2.0).count_ones(), 0);
        assert_eq!(idx.query_range(1.0, f64::NAN).count_ones(), 0);
        assert_eq!(idx.bin_span(f64::NAN, f64::NAN), None);
        // the strict form: NaN is a typed error, valid bounds pass through
        assert!(matches!(
            idx.try_query_range(f64::NAN, 2.0),
            Err(RangeQueryError::NanBound { .. })
        ));
        assert!(matches!(
            idx.try_query_range(1.0, f64::NAN),
            Err(RangeQueryError::NanBound { .. })
        ));
        let ok = idx.try_query_range(1.0, 3.0).unwrap();
        assert_eq!(ok, idx.query_range(1.0, 3.0));
    }

    #[test]
    fn size_much_smaller_than_data_for_smooth_fields() {
        // Smooth data (long runs of equal bins) compresses well — the paper's
        // "<30% of the original data" observation.
        let data: Vec<f64> = (0..100_000)
            .map(|i| (i as f64 / 10_000.0).floor())
            .collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 10.0, 10));
        assert!(
            idx.size_bytes() < data.len() * 8 / 10,
            "index {} bytes vs data {} bytes",
            idx.size_bytes(),
            data.len() * 8
        );
    }

    #[test]
    fn codec_plan_tracks_bin_population() {
        // Smooth data: every bin is one long coherent run → all WAH.
        let smooth: Vec<f64> = (0..200_000)
            .map(|i| (i as f64 / 20_000.0).floor())
            .collect();
        let idx = BitmapIndex::build(&smooth, Binner::fixed_width(0.0, 10.0, 10));
        assert!(idx.codec_plan().iter().all(|&c| c == CodecId::Wah));

        // Scattered data: every bin is a sparse scatter → all Roaring.
        let scattered: Vec<f64> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 10) as f64)
            .collect();
        let idx = BitmapIndex::build(&scattered, Binner::fixed_width(0.0, 10.0, 10));
        assert!(idx.codec_plan().iter().all(|&c| c == CodecId::Roaring));

        // The conversion is exact and the costs are per selected codec.
        for b in 0..idx.nbins() {
            let cv = CodecVec::from_wah_auto(idx.bin(b));
            assert_eq!(cv.id(), idx.bin_codec(b));
            assert_eq!(cv.to_wah(), *idx.bin(b));
            assert!(idx.bin_cost_bytes(b) > 0);
        }
    }

    #[test]
    fn slice_rows_splits_exactly() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64).collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 100.0, 10));
        for cuts in [
            vec![0u64, 1000],
            vec![0, 250, 600, 1000],
            vec![0, 1, 999, 1000],
        ] {
            for w in cuts.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let part = idx.slice_rows(lo..hi);
                part.check_consistent().unwrap();
                assert_eq!(part.len(), hi - lo);
                let sub = BitmapIndex::build(
                    &data[lo as usize..hi as usize],
                    Binner::fixed_width(0.0, 100.0, 10),
                );
                for b in 0..10 {
                    assert_eq!(part.bin(b), sub.bin(b), "rows {lo}..{hi} bin {b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn from_bins_validates_count() {
        let _ = BitmapIndex::from_bins(Binner::fixed_width(0.0, 1.0, 3), vec![WahVec::zeros(10)]);
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn from_bins_validates_lengths() {
        let _ = BitmapIndex::from_bins(
            Binner::fixed_width(0.0, 1.0, 2),
            vec![WahVec::zeros(10), WahVec::zeros(11)],
        );
    }
}
