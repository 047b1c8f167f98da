//! The correlation path as it stood before the value predicates and the
//! region moved inside the label walk (PR 23), verbatim but for the obs
//! counters: the comparator `benches/query.rs` times the selection-free
//! partial and the fused finisher against, after asserting both equal to
//! it. The label kernel here walks a *materialised* selection; the three
//! finishers each walk the whole table, the conditional entropy twice.
//! Nothing outside that bench calls any of it.

use ibis_analysis::aggregate::{mean_from_sum, sum_from_bin_counts};
use ibis_analysis::{shard_mask, CorrelationAnswer, CorrelationPartial, SubsetQuery};
use ibis_core::wah::LITERAL_MASK;
use ibis_core::{
    Binner, BitmapIndex, CodecVec, MultiLevelIndex, Ones, OnesCursor, RoaringVec, WahVec,
};
use std::ops::Range;

/// The finishers and marginal sums: the copy the bit-identity proptest keeps.
#[path = "../../analysis/tests/before_fusing/mod.rs"]
mod before_fusing;
use before_fusing::*;

/// Rows per WAH segment.
const SEG: usize = 31;
/// Rows [`joint_counts`] labels at a time: 512 segments, so both operands'
/// labels (2 × 31 KB by row + 2 × 1 KB by segment) stay L2-resident.
const CHUNK_ROWS: u64 = (SEG * 512) as u64;
/// Segment label: the segment's rows sit in several bins — read the row
/// labels. Also why a bin id must stay below it.
const MIXED: u16 = u16::MAX;

/// The rows of one bin, walked on the form the bin is held in.
enum BinRows<'a> {
    Wah(OnesCursor<'a>),
    Roaring(&'a RoaringVec),
}

/// One operand's bin labels over the chunk being counted.
struct Labels<'a> {
    /// The rows of each non-empty bin, with the bin's id.
    bins: Vec<(u16, BinRows<'a>)>,
    /// Per 31-row segment: the one bin holding all its rows, or [`MIXED`].
    seg: Vec<u16>,
    /// Per row; current inside [`MIXED`] segments only.
    row: Vec<u16>,
}

impl<'a> Labels<'a> {
    fn new(index: &'a BitmapIndex, rows: usize) -> Self {
        let live = (0..index.nbins()).filter(|&id| index.counts()[id] != 0);
        let rows_of = |id| match index.stored_bin(id) {
            CodecVec::Wah(v) => BinRows::Wah(v.ones_cursor()),
            CodecVec::Roaring(v) => BinRows::Roaring(v),
        };
        Labels {
            bins: live.map(|id| (id as u16, rows_of(id))).collect(),
            seg: vec![MIXED; rows.div_ceil(SEG)],
            row: vec![0; rows],
        }
    }

    /// Labels rows `[lo, hi)`, `lo` a multiple of 31. The bins partition
    /// them, so every segment is either inside one bin's run of rows — a
    /// WAH 1-fill, or the whole segments a Roaring run covers — or made of
    /// pieces that between them name every row.
    fn label(&mut self, lo: u64, hi: u64) {
        for (id, rows) in &mut self.bins {
            match rows {
                BinRows::Wah(ones) => label_wah(&mut self.seg, &mut self.row, *id, ones, lo, hi),
                BinRows::Roaring(v) => label_roaring(&mut self.seg, &mut self.row, *id, v, lo, hi),
            }
        }
    }

    /// The bin of chunk row `r`, which lies in segment `s`.
    #[inline]
    fn bin_of(&self, s: usize, r: u64) -> usize {
        match self.seg[s] {
            MIXED => self.row[r as usize] as usize,
            id => id as usize,
        }
    }
}

/// [`Labels::label`] for a bin held as WAH: one label per segment under a
/// 1-fill, one per row inside literal words. (A function of its own, like
/// its Roaring twin: inlined into one loop the two arms slow each other.)
fn label_wah(seg: &mut [u16], row: &mut [u16], id: u16, ones: &mut OnesCursor, lo: u64, hi: u64) {
    let at = |r: u64| (r - lo) as usize;
    ones.skip_to(lo);
    while let Some(run) = ones.next_before(hi) {
        match run {
            Ones::Fill(start, end) => seg[at(start) / SEG..at(end) / SEG].fill(id),
            Ones::Literal(base, _) => {
                seg[at(base) / SEG] = MIXED;
                run.for_each(|r| row[at(r)] = id);
            }
        }
    }
}

/// [`Labels::label`] for a bin held as Roaring, read where it lies: a
/// scattered bit is one row label, a run labels the whole segments it
/// covers and its rows in the segment at either end.
fn label_roaring(seg: &mut [u16], row: &mut [u16], id: u16, v: &RoaringVec, lo: u64, hi: u64) {
    let at = |r: u64| (r - lo) as usize;
    v.for_each_run_in(lo..hi, |mut start, end| {
        if end - start == 1 {
            let r = at(start);
            seg[r / SEG] = MIXED;
            row[r] = id;
            return;
        }
        while start < end {
            let (s, whole) = (at(start) / SEG, at(end) / SEG);
            if at(start) % SEG == 0 && s < whole {
                seg[s..whole].fill(id);
                start = lo + (whole * SEG) as u64;
            } else {
                let stop = end.min(lo + ((s + 1) * SEG) as u64);
                seg[s] = MIXED;
                row[at(start)..at(stop)].fill(id);
                start = stop;
            }
        }
    });
}

/// Joint bin counts of two indices over the rows `sel` keeps (`None`: all
/// of them), flattened like [`ibis_analysis::histogram::joint_histogram`] and exactly equal to it on
/// the underlying data — from the bitmaps alone.
///
/// The bins of an index built from data *partition* its rows, so each row
/// lands in exactly one cell and the table costs one pass, not the
/// `m × n` ANDs of [`ibis_analysis::joint_counts_and_table`]: rows are walked in chunks
/// of [`CHUNK_ROWS`]; a chunk the selection misses is skipped; in any
/// other, every non-empty bin writes its id over the rows it holds — one
/// label per 31-row segment under a 1-fill (sorted rows: O(runs)), one per
/// row inside literal words — and the selection's runs are counted against
/// the two label sets, whole stretches of equally-labelled segments at a
/// time. O(words(a) + words(b) + words(sel) + rows in mixed segments of
/// the chunks touched); `a` and `b` being one index labels once. An operand
/// that does not partition (a lossy superset index) or has more bins than
/// a label can name takes the AND table instead.
pub fn joint_counts(a: &BitmapIndex, b: &BitmapIndex, sel: Option<&WahVec>) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "indexes cover different element counts");
    let (n, nb) = (a.len(), b.nbins());
    assert!(a.partitions() && b.partitions() && a.nbins().max(nb) <= MIXED as usize);
    let all = WahVec::ones(n);
    let sel = sel.unwrap_or(&all);
    assert_eq!(sel.len(), n, "selection length mismatch");
    let mut joint = vec![0u64; a.nbins() * nb];
    let rows = CHUNK_ROWS.min(n) as usize;
    let mut labels_a = Labels::new(a, rows);
    let mut labels_b = (!std::ptr::eq(a, b)).then(|| Labels::new(b, rows));
    let mut selected = sel.ones_cursor();
    for lo in (0..n).step_by(CHUNK_ROWS as usize) {
        let hi = (lo + CHUNK_ROWS).min(n);
        let mut probe = selected.clone();
        if probe.next_before(hi).is_none() {
            selected = probe;
            continue;
        }
        labels_a.label(lo, hi);
        if let Some(labels_b) = &mut labels_b {
            labels_b.label(lo, hi);
        }
        let (la, lb) = (&labels_a, labels_b.as_ref().unwrap_or(&labels_a));
        // the selected rows `bits` of segment `s`
        let count_segment = |joint: &mut [u64], s: usize, bits: u32| {
            if la.seg[s] != MIXED && lb.seg[s] != MIXED {
                joint[la.seg[s] as usize * nb + lb.seg[s] as usize] += bits.count_ones() as u64;
                return;
            }
            Ones::Literal((s * SEG) as u64, bits)
                .for_each(|r| joint[la.bin_of(s, r) * nb + lb.bin_of(s, r)] += 1);
        };
        while let Some(run) = selected.next_before(hi) {
            match run {
                Ones::Literal(base, bits) => {
                    count_segment(&mut joint, (base - lo) as usize / SEG, bits)
                }
                Ones::Fill(start, end) => {
                    let (mut s, end) = ((start - lo) as usize / SEG, (end - lo) as usize / SEG);
                    while s < end {
                        let cell = (la.seg[s], lb.seg[s]);
                        if cell.0 == MIXED || cell.1 == MIXED {
                            count_segment(&mut joint, s, LITERAL_MASK);
                            s += 1;
                            continue;
                        }
                        let same = (s..end)
                            .take_while(|&t| (la.seg[t], lb.seg[t]) == cell)
                            .count();
                        joint[cell.0 as usize * nb + cell.1 as usize] += (same * SEG) as u64;
                        s += same;
                    }
                }
            }
        }
    }
    joint
}

/// One unsharded correlation partial the parent's way: each value
/// selection planned and materialised under its own copy of the region
/// mask, the two ANDed, the result walked against the labels of every live
/// bin, the marginals summed off the table.
pub fn correlation_partial(
    a: &MultiLevelIndex,
    b: &MultiLevelIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
    ranges: Option<&[Range<u64>]>,
) -> CorrelationPartial {
    let rows = 0..a.low().len();
    let evaluate = |q: &SubsetQuery, ml: &MultiLevelIndex| {
        let mask = ranges.map(|r| shard_mask(r, rows.clone()));
        q.evaluate_masked(ml.low(), Some(ml), mask.as_ref())
            .expect("finite bounds")
    };
    let sel = evaluate(query_a, a).and(&evaluate(query_b, b));
    let joint = joint_counts(a.low(), b.low(), Some(&sel));
    let (na, nb) = (a.low().nbins(), b.low().nbins());
    CorrelationPartial {
        selected: sel.count_ones(),
        counts_a: marginal_a(&joint, na, nb),
        counts_b: marginal_b(&joint, na, nb),
        joint,
    }
}

/// The parent's `finish_correlation`: the three finishers above, one after
/// the other, and the two means.
pub fn finish_correlation(
    binner_a: &Binner,
    binner_b: &Binner,
    p: &CorrelationPartial,
) -> CorrelationAnswer {
    let (na, nb) = (binner_a.nbins(), binner_b.nbins());
    CorrelationAnswer {
        selected: p.selected,
        mutual_information: mutual_information_from_counts(&p.joint, na, nb),
        conditional_entropy: conditional_entropy_from_counts(&p.joint, na, nb),
        pearson: pearson_from_joint_counts(binner_a, binner_b, &p.joint, p.selected),
        mean_a: mean_from_sum(sum_from_bin_counts(binner_a, &p.counts_a), p.selected),
        mean_b: mean_from_sum(sum_from_bin_counts(binner_b, &p.counts_b), p.selected),
    }
}
