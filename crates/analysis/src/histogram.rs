//! Full-data histograms — the scan-based path the paper's *full data* method
//! uses, and the shared substrate all metrics are computed from.
//!
//! Every metric in this crate is a pure function of (joint) bin counts. The
//! bitmap path obtains the same counts from cached popcounts and, for joint
//! tables, from [`joint_counts`] — one pass over the compressed bins that
//! labels every row with its bin; the full-data path obtains them by
//! scanning the raw arrays. Because both paths feed identical counts into
//! identical scoring code, the bitmap results match the full-data results
//! *exactly* (the paper's no-accuracy-loss claim), which the tests assert
//! bit-for-bit.
//!
//! The label walk rests on Algorithm 1's partition — every row in exactly
//! one bin — and names a bin in a `u16`, which every binning fits
//! ([`Binner::MAX_BINS`]). An operand whose bins do not partition its rows
//! (a lossy superset) is a caller's error: the walk panics, and the query
//! layer answers `QueryError::NotAPartition` before it gets there. The
//! paper's Figure 5 kernel, one AND count per bin pair
//! ([`joint_counts_and_table`]), assumes nothing and stays as the oracle.

use ibis_core::wah::LITERAL_MASK;
use ibis_core::{Binner, BitmapIndex, CodecVec, Ones, OnesCursor, Piece, RoaringVec, WahVec};
use ibis_obs::LazyCounter;
use std::ops::Range;

/// Per-bin counts of `data` under `binner` (sequential scan).
pub fn histogram(data: &[f64], binner: &Binner) -> Vec<u64> {
    let mut h = vec![0u64; binner.nbins()];
    for &v in data {
        h[binner.bin_of(v) as usize] += 1;
    }
    h
}

/// Joint bin counts of two equal-length arrays, flattened row-major
/// (`joint[j * nb + k]` = elements with `a` in bin `j` and `b` in bin `k`).
pub fn joint_histogram(a: &[f64], b: &[f64], binner_a: &Binner, binner_b: &Binner) -> Vec<u64> {
    assert_eq!(
        a.len(),
        b.len(),
        "joint histogram needs equal-length arrays"
    );
    let nb = binner_b.nbins();
    let mut h = vec![0u64; binner_a.nbins() * nb];
    for (&x, &y) in a.iter().zip(b) {
        h[binner_a.bin_of(x) as usize * nb + binner_b.bin_of(y) as usize] += 1;
    }
    h
}

// Joint tables the label walk counted, and how many chunks it labelled or
// skipped (family `query`, DESIGN.md §6g). No-ops without `obs`.
static OBS_JOINT_PARTITION: LazyCounter = LazyCounter::new("query.joint.partition");
static OBS_CHUNKS_LABELLED: LazyCounter = LazyCounter::new("query.joint.chunks.labelled");
static OBS_CHUNKS_SKIPPED: LazyCounter = LazyCounter::new("query.joint.chunks.skipped");

/// Rows per WAH segment.
const SEG: usize = 31;
/// Rows [`joint_counts_where`] labels at a time: 512 segments, so both
/// operands' labels (2 × 31 KB by row + 2 × 3 KB by segment) stay
/// L2-resident.
pub const CHUNK_ROWS: u64 = (SEG * 512) as u64;
/// Segment label: no admitted bin holds a row of the segment. The first id
/// past every bin's ([`Binner::MAX_BINS`]).
const NONE: u16 = Binner::MAX_BINS as u16;
/// Segment label: the segment's rows sit in several bins, or some in no
/// admitted one — read the row labels, under the segment's mask.
const MIXED: u16 = NONE + 1;

/// The rows of one bin, walked on the form the bin is held in.
enum BinRows<'a> {
    Wah(OnesCursor<'a>),
    Roaring(&'a RoaringVec),
}

/// One operand's bin labels over the stretch of rows being counted.
struct Labels<'a> {
    /// The rows of each non-empty admitted bin, with the bin's id.
    bins: Vec<(u16, BinRows<'a>)>,
    /// Per 31-row segment: the one bin holding all its rows, [`NONE`] or
    /// [`MIXED`].
    seg: Vec<u16>,
    /// Per [`MIXED`] segment: the rows an admitted bin labelled in this
    /// stretch. No row label outside it is read, so a stale one never is.
    /// Neither reset nor read when `total`.
    mask: Vec<u32>,
    /// Every non-empty bin is admitted, so every row of a stretch is
    /// relabelled: no segment is [`NONE`] and no row label is stale.
    total: bool,
    /// Per row, whole segments long; current under `mask` only.
    row: Vec<u16>,
}

impl<'a> Labels<'a> {
    fn new(index: &'a BitmapIndex, admitted: Range<usize>, rows: usize) -> Self {
        let live = admitted.filter(|&id| index.counts().get(id).is_some_and(|&c| c != 0));
        let rows_of = |id| match index.stored_bin(id) {
            CodecVec::Wah(v) => BinRows::Wah(v.ones_cursor()),
            CodecVec::Roaring(v) => BinRows::Roaring(v),
        };
        let bins: Vec<_> = live.map(|id| (id as u16, rows_of(id))).collect();
        Labels {
            total: bins.len() == index.counts().iter().filter(|&&c| c != 0).count(),
            bins,
            seg: vec![NONE; rows.div_ceil(SEG)],
            mask: vec![0; rows.div_ceil(SEG)],
            row: vec![0; rows.div_ceil(SEG) * SEG],
        }
    }

    /// Labels rows `[lo, hi)`, `lo` a multiple of 31. The bins partition
    /// the rows, so a segment inside one bin's run of rows — a WAH 1-fill,
    /// or the whole segments a Roaring run covers — is in no other bin, and
    /// any other segment is made of pieces that between them name every row
    /// an admitted bin holds.
    fn label(&mut self, lo: u64, hi: u64) {
        let segs = ((hi - lo) as usize).div_ceil(SEG);
        if !self.total {
            self.seg[..segs].fill(NONE);
            self.mask[..segs].fill(0);
        }
        let mut bins = std::mem::take(&mut self.bins);
        for (id, rows) in &mut bins {
            match rows {
                BinRows::Wah(ones) => self.label_wah(*id, ones, lo, hi),
                BinRows::Roaring(v) => self.label_roaring(*id, v, lo, hi),
            }
        }
        self.bins = bins;
    }

    /// [`Labels::label`] for a bin held as WAH: one label per segment under
    /// a 1-fill, one per row inside literal words. (A function of its own,
    /// like its Roaring twin: inlined into one loop the two arms slow each
    /// other.)
    #[inline(never)]
    fn label_wah(&mut self, id: u16, ones: &mut OnesCursor, lo: u64, hi: u64) {
        // as slices: the stores below cannot move what the fields point at
        let (seg, mask, row) = (&mut self.seg[..], &mut self.mask[..], &mut self.row[..]);
        let (at, total) = (|r: u64| (r - lo) as usize, self.total);
        ones.skip_to(lo);
        while let Some(run) = ones.next_before(hi) {
            match run {
                Ones::Fill(start, end) => seg[at(start) / SEG..at(end) / SEG].fill(id),
                Ones::Literal(base, bits) => {
                    label_literal((seg, mask, row), total, id, at(base), bits)
                }
            }
        }
    }

    /// [`Labels::label`] for a bin held as Roaring, each container read by
    /// its form: a bitset segment is written as a WAH literal is, an array
    /// element is one row label, and a run labels the whole segments it
    /// covers and its rows in the segment at either end. A segment across
    /// a container edge comes in two pieces; each keeps the other's rows.
    fn label_roaring(&mut self, id: u16, v: &RoaringVec, lo: u64, hi: u64) {
        let (seg, mask, row) = (&mut self.seg[..], &mut self.mask[..], &mut self.row[..]);
        let (at, total) = (|r: u64| (r - lo) as usize, self.total);
        // the closure inlined into each container's loop: a call per piece
        // costs what reading containers by form saves
        v.for_each_piece_in(
            lo..hi,
            #[inline(always)]
            |piece| match piece {
                Piece::Bits(base, bits) => {
                    label_literal((seg, mask, row), total, id, at(base), bits)
                }
                Piece::Row(r) => {
                    let r = at(r);
                    seg[r / SEG] = MIXED;
                    if !total {
                        mask[r / SEG] |= 1 << (r % SEG);
                    }
                    row[r] = id;
                }
                Piece::Run(start, end) => {
                    let (start, end) = (at(start), at(end));
                    // the segments it covers whole, then its rows in the
                    // segment at either end (none when it starts or ends on
                    // an edge), as literals
                    let (first, last) = (start.div_ceil(SEG), end / SEG);
                    if first < last {
                        seg[first..last].fill(id);
                    }
                    let ends = [(start, end.min(first * SEG)), (last.max(first) * SEG, end)];
                    for (from, to) in ends.into_iter().filter(|(from, to)| from < to) {
                        let bits = segment_bits(from, to);
                        label_literal((seg, mask, row), total, id, from / SEG * SEG, bits);
                    }
                }
            },
        );
    }
}

/// Labels the rows `bits` of the segment starting at stretch row `at` as
/// bin `id`, the segment [`MIXED`]: all 31 rows, each kept or overwritten
/// — no branch on how many bits are set (a bit loop mispredicts).
#[inline(always)]
fn label_literal(
    (seg, mask, row): (&mut [u16], &mut [u32], &mut [u16]),
    total: bool,
    id: u16,
    at: usize,
    bits: u32,
) {
    seg[at / SEG] = MIXED;
    if !total {
        mask[at / SEG] |= bits;
    }
    for (i, r) in row[at..][..SEG].iter_mut().enumerate() {
        let keep = (((bits >> i) & 1) as u16).wrapping_sub(1);
        *r = (*r & keep) | (id & !keep);
    }
}

/// Rows `[from, to)` of one segment as that segment's literal bits.
#[inline]
fn segment_bits(from: usize, to: usize) -> u32 {
    (LITERAL_MASK >> (SEG - (to - from))) << (from % SEG)
}

/// Joint bin counts of two indices, flattened like [`joint_histogram`] and
/// exactly equal to it on the underlying data — from the bitmaps alone:
/// [`joint_counts_where`] over every bin and row.
///
/// # Panics
/// When the indices cover different element counts, or an index's bins do
/// not partition its rows ([`BitmapIndex::partitions`]).
pub fn joint_counts(a: &BitmapIndex, b: &BitmapIndex) -> Vec<u64> {
    joint_counts_where(a, b, 0..a.nbins(), 0..b.nbins(), None)
}

/// The joint table of the rows that lie in `ranges` — sorted, disjoint
/// ranges of the indices' rows; `None` is every row — and in an admitted
/// bin of each operand (a span past the last bin admits nothing there): a
/// correlation's table with no selection built: [`joint_counts_per_range`]
/// summed into one table.
///
/// # Panics
/// As [`joint_counts_per_range`].
pub fn joint_counts_where(
    a: &BitmapIndex,
    b: &BitmapIndex,
    bins_a: Range<usize>,
    bins_b: Range<usize>,
    ranges: Option<&[Range<u64>]>,
) -> Vec<u64> {
    let nb = b.nbins();
    let mut joint = vec![0u64; a.nbins() * nb];
    let cells = &mut joint[..];
    let labelled = joint_counts_per_range(a, b, bins_a, bins_b, ranges, move |_, j, k, c| {
        cells[j * nb + k] += c
    });
    let skipped = a.len().div_ceil(CHUNK_ROWS) - labelled;
    OBS_JOINT_PARTITION.inc();
    if labelled > 0 {
        OBS_CHUNKS_LABELLED.add(labelled);
    }
    if skipped > 0 {
        OBS_CHUNKS_SKIPPED.add(skipped);
    }
    joint
}

/// The joint counts of [`joint_counts_where`], each handed to `sink` as
/// `(range, bin_a, bin_b, rows)` — `range` the index in `ranges` of the
/// range the rows lie in (0 for `None`), in non-decreasing order, a cell
/// of one range possibly in several calls: the correlation miner's
/// spatial stage, with its units as the ranges. Returns the chunks it
/// labelled. (The `query.joint.*` counters tick once per table, in
/// [`joint_counts_where`].)
///
/// The bins of an index built from data *partition* its rows, so "the row
/// passes the value predicate" is "the row's label is an admitted bin",
/// each row lands in at most one cell, and the table costs one pass, not
/// the `m × n` ANDs of [`joint_counts_and_table`]: rows are walked in
/// chunks of [`CHUNK_ROWS`]; a chunk no range meets is skipped; in any
/// other, over the stretch the ranges' hull covers, every non-empty
/// admitted bin writes its id over the rows it holds — one label per
/// 31-row segment under a 1-fill (sorted rows: O(runs)), one per row
/// inside literal words — and the ranges are counted against the two label
/// sets, whole stretches of equally-labelled segments at a time. O(words
/// of the admitted bins + rows in mixed segments of the stretches
/// touched); `a` and `b` being one index labels once.
///
/// # Panics
/// When the indices cover different element counts, or an index's bins do
/// not partition its rows: a row in two bins, or in none, has no label.
pub fn joint_counts_per_range<F: FnMut(usize, usize, usize, u64)>(
    a: &BitmapIndex,
    b: &BitmapIndex,
    bins_a: Range<usize>,
    bins_b: Range<usize>,
    ranges: Option<&[Range<u64>]>,
    mut sink: F,
) -> u64 {
    assert_eq!(a.len(), b.len(), "indexes cover different element counts");
    assert!(
        a.partitions() && b.partitions(),
        "the label walk needs bins that partition their rows"
    );
    let n = a.len();
    let whole = 0..n;
    let ranges = ranges.unwrap_or(std::slice::from_ref(&whole));
    debug_assert!(ranges.windows(2).all(|w| w[0].end <= w[1].start));
    let rows = CHUNK_ROWS.min(n) as usize;
    // One index against itself: a row's two labels are one, so it passes
    // both predicates iff that bin lies in both spans — label once.
    let shared = std::ptr::eq(a, b);
    let both = bins_a.start.max(bins_b.start)..bins_a.end.min(bins_b.end);
    let mut labels_a = Labels::new(a, if shared { both } else { bins_a }, rows);
    let mut labels_b = (!shared).then(|| Labels::new(b, bins_b, rows));
    let mut next = 0; // the first range that ends past the chunk's first row
    let mut labelled = 0;
    for lo in (0..n).step_by(CHUNK_ROWS as usize) {
        let hi = (lo + CHUNK_ROWS).min(n);
        next += ranges[next..].partition_point(|r| r.end <= lo);
        let met = &ranges[next..];
        let met = &met[..met.partition_point(|r| r.start < hi)];
        let (Some(first), Some(last)) = (met.first(), met.last()) else {
            continue;
        };
        labelled += 1;
        // the ranges' hull inside the chunk, widened to segment edges
        let from = first.start.max(lo) / SEG as u64 * SEG as u64;
        let to = (last.end.div_ceil(SEG as u64) * SEG as u64).min(hi);
        labels_a.label(from, to);
        if let Some(labels_b) = &mut labels_b {
            labels_b.label(from, to);
        }
        let (la, lb) = (&labels_a, labels_b.as_ref().unwrap_or(&labels_a));
        for (i, r) in (next..).zip(met) {
            let mut at = (r.start.max(from) - from) as usize;
            let end = (r.end.min(to) - from) as usize;
            while at < end {
                let (mut s, whole) = (at / SEG, end / SEG);
                if !at.is_multiple_of(SEG) || s == whole {
                    let stop = end.min((s + 1) * SEG);
                    count_segment(&mut sink, la, lb, i, s, segment_bits(at, stop));
                    at = stop;
                    continue;
                }
                while s < whole {
                    let cell = (la.seg[s], lb.seg[s]);
                    if cell.0 == MIXED || cell.1 == MIXED {
                        count_segment(&mut sink, la, lb, i, s, LITERAL_MASK);
                        s += 1;
                        continue;
                    }
                    let same = (s..whole)
                        .take_while(|&t| (la.seg[t], lb.seg[t]) == cell)
                        .count();
                    if cell.0.max(cell.1) < NONE {
                        sink(i, cell.0 as usize, cell.1 as usize, (same * SEG) as u64);
                    }
                    s += same;
                }
                at = whole * SEG;
            }
        }
    }
    labelled
}

/// The rows `bits` of the stretch's segment `s`, kept by range `i`.
#[inline(never)]
fn count_segment<F: FnMut(usize, usize, usize, u64)>(
    sink: &mut F,
    la: &Labels,
    lb: &Labels,
    i: usize,
    s: usize,
    bits: u32,
) {
    let (ja, kb) = (la.seg[s], lb.seg[s]);
    if ja.max(kb) < NONE {
        sink(i, ja as usize, kb as usize, bits.count_ones() as u64);
    } else if ja != NONE && kb != NONE {
        let labelled = |l: &Labels| match l.seg[s] {
            MIXED if !l.total => l.mask[s],
            _ => bits,
        };
        // which side reads row labels is settled once per segment
        let (ra, rb) = (&la.row[s * SEG..][..SEG], &lb.row[s * SEG..][..SEG]);
        let rows = Ones::Literal(0, bits & labelled(la) & labelled(lb));
        let mut count = |j: u16, k: u16| sink(i, j as usize, k as usize, 1);
        match (ja, kb) {
            (MIXED, MIXED) => rows.for_each(|o| count(ra[o as usize], rb[o as usize])),
            (MIXED, k) => rows.for_each(|o| count(ra[o as usize], k)),
            (j, _) => rows.for_each(|o| count(j, rb[o as usize])),
        }
    }
}

/// The paper's Figure 5 kernel: one compressed `AND` + popcount per pair
/// of non-empty bins (each row of the table first masked by `sel`).
/// Assumes nothing about the bins: [`joint_counts`]'s oracle, and the
/// label walk's comparator in the `query` bench.
pub fn joint_counts_and_table(a: &BitmapIndex, b: &BitmapIndex, sel: Option<&WahVec>) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "indexes cover different element counts");
    let nb = b.nbins();
    let mut joint = vec![0u64; a.nbins() * nb];
    for j in (0..a.nbins()).filter(|&j| a.counts()[j] != 0) {
        let masked = sel.map(|sel| a.bin(j).and(sel));
        let row = masked.as_ref().unwrap_or(a.bin(j));
        for (k, cell) in joint[j * nb..(j + 1) * nb].iter_mut().enumerate() {
            if b.counts()[k] != 0 {
                *cell = row.and_count(b.bin(k));
            }
        }
    }
    joint
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_a() -> Vec<f64> {
        (0..2000).map(|i| ((i * 13) % 97) as f64).collect()
    }

    fn data_b() -> Vec<f64> {
        (0..2000).map(|i| ((i * 7 + 3) % 89) as f64).collect()
    }

    #[test]
    fn histogram_sums_to_n() {
        let b = Binner::fixed_width(0.0, 100.0, 16);
        let h = histogram(&data_a(), &b);
        assert_eq!(h.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn joint_marginals_match_individual_histograms() {
        let ba = Binner::fixed_width(0.0, 100.0, 12);
        let bb = Binner::fixed_width(0.0, 90.0, 9);
        let j = joint_histogram(&data_a(), &data_b(), &ba, &bb);
        let cells = crate::entropy::JointCells::scan(&j, 12, 9);
        assert_eq!(cells.pa, histogram(&data_a(), &ba));
        assert_eq!(cells.pb, histogram(&data_b(), &bb));
    }

    #[test]
    fn bitmap_joint_counts_equal_full_scan() {
        let ba = Binner::fixed_width(0.0, 100.0, 12);
        let bb = Binner::fixed_width(0.0, 90.0, 9);
        let ia = BitmapIndex::build(&data_a(), ba.clone());
        let ib = BitmapIndex::build(&data_b(), bb.clone());
        let want = joint_histogram(&data_a(), &data_b(), &ba, &bb);
        assert_eq!(joint_counts(&ia, &ib), want);
        assert_eq!(joint_counts_and_table(&ia, &ib, None), want);
    }

    #[test]
    fn adaptive_joint_equals_direct() {
        // all-literal bins, a few and many
        for nbins in [4usize, 64] {
            let a: Vec<f64> = (0..3000).map(|i| ((i * 7) % nbins) as f64).collect();
            let b: Vec<f64> = (0..3000).map(|i| ((i * 13 + 1) % nbins) as f64).collect();
            let binner = Binner::distinct_ints(0, nbins as i64 - 1);
            let ia = BitmapIndex::build(&a, binner.clone());
            let ib = BitmapIndex::build(&b, binner.clone());
            assert_eq!(
                joint_counts(&ia, &ib),
                joint_histogram(&a, &b, &binner, &binner),
                "nbins={nbins}"
            );
        }
    }

    #[test]
    fn joint_counts_match_and_table_across_selections() {
        let n = 3000usize;
        let a: Vec<f64> = (0..n).map(|i| ((i * 7) % 90) as f64 / 10.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 90) as f64 / 10.0).collect();
        let binner = Binner::fixed_width(0.0, 10.0, 100);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner);
        let scattered: Vec<Range<u64>> = (0..n as u64).step_by(2).map(|i| i..i + 1).collect();
        for ranges in [
            None,
            Some(vec![]),
            Some(vec![100..1500, 1500..2900]),
            Some(vec![5..6, 700..701, 2999..3000]), // sparse
            Some(scattered),                        // incompressible
        ] {
            for (bins_a, bins_b) in [
                (0..100, 0..100),
                (10..60, 0..100),
                (3..4, 20..90),
                (0..0, 0..100),
            ] {
                // the selection the predicate stands for, materialised
                let mask = ranges.as_deref().map(|r| crate::shard_mask(r, 0..n as u64));
                let sel = (ia.or_bins(bins_a.clone())).and(&ib.or_bins(bins_b.clone()));
                let sel = mask.map_or(sel.clone(), |m| sel.and(&m));
                let got = joint_counts_where(&ia, &ib, bins_a, bins_b, ranges.as_deref());
                assert_eq!(got, joint_counts_and_table(&ia, &ib, Some(&sel)));
            }
        }
    }

    /// Several chunks, the last segment partial: an operand with every live
    /// bin admitted keeps no mask and resets nothing between chunks, beside
    /// one that does both.
    #[test]
    fn all_admitted_and_restricted_operands_across_chunks() {
        let n = 2 * CHUNK_ROWS as usize + 1000;
        // `a` runs in long fills with literal stretches between, `b` scatters
        let a: Vec<f64> = (0..n)
            .map(|i| {
                if i % 700 < 400 {
                    (i / 700 % 9) as f64
                } else {
                    (i % 9) as f64
                }
            })
            .collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 + 5) % 9) as f64).collect();
        let binner = Binner::distinct_ints(0, 11); // bins 9..12 stay empty
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner);
        let ranges = [40..CHUNK_ROWS + 7, CHUNK_ROWS + 500..n as u64 - 3];
        for (bins_a, bins_b) in [(0..12, 0..12), (0..9, 2..5), (3..7, 0..12), (0..12, 0..9)] {
            for ranges in [None, Some(&ranges[..])] {
                let sel = ia.or_bins(bins_a.clone()).and(&ib.or_bins(bins_b.clone()));
                let mask = ranges.map(|r| crate::shard_mask(r, 0..n as u64));
                let sel = mask.map_or(sel.clone(), |m| sel.and(&m));
                let want = joint_counts_and_table(&ia, &ib, Some(&sel));
                let got = joint_counts_where(&ia, &ib, bins_a.clone(), bins_b.clone(), ranges);
                assert_eq!(got, want, "{bins_a:?} {bins_b:?} {ranges:?}");
            }
        }
    }

    #[test]
    fn a_span_past_the_last_bin_admits_nothing_there() {
        let ba = Binner::fixed_width(0.0, 100.0, 12);
        let ia = BitmapIndex::build(&data_a(), ba.clone());
        let ib = BitmapIndex::build(&data_b(), ba);
        let inside = joint_counts_where(&ia, &ib, 8..12, 0..12, None);
        assert_eq!(joint_counts_where(&ia, &ib, 8..40, 0..99, None), inside);
        let none = joint_counts_where(&ia, &ib, 12..40, 0..12, None);
        assert!(none.iter().all(|&c| c == 0));
    }

    #[test]
    fn empty_data() {
        let b = Binner::fixed_width(0.0, 1.0, 4);
        assert_eq!(histogram(&[], &b), vec![0; 4]);
        assert_eq!(joint_histogram(&[], &[], &b, &b), vec![0; 16]);
    }

    #[test]
    fn bitmap_joint_counts_rectangular_tables() {
        let a: Vec<f64> = (0..777).map(|i| ((i * 3) % 50) as f64).collect();
        let b: Vec<f64> = (0..777).map(|i| ((i * 7) % 20) as f64).collect();
        let ba = Binner::distinct_ints(0, 49);
        let bb = Binner::distinct_ints(0, 19);
        let ia = BitmapIndex::build(&a, ba.clone());
        let ib = BitmapIndex::build(&b, bb.clone());
        assert_eq!(joint_counts(&ia, &ib), joint_histogram(&a, &b, &ba, &bb));
        assert_eq!(joint_counts(&ib, &ia), joint_histogram(&b, &a, &bb, &ba));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn joint_rejects_length_mismatch() {
        let b = Binner::fixed_width(0.0, 1.0, 2);
        let _ = joint_histogram(&[0.1], &[0.1, 0.2], &b, &b);
    }
}
