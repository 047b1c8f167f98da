//! Full-data histograms — the scan-based path the paper's *full data* method
//! uses, and the shared substrate all metrics are computed from.
//!
//! Every metric in this crate is a pure function of (joint) bin counts. The
//! bitmap path obtains the same counts from cached popcounts and, for joint
//! tables, from [`joint_counts`] — one pass over the compressed bins, or the
//! paper's AND + popcount per bin pair; the full-data path obtains them by
//! scanning the raw arrays. Because both paths feed identical counts into
//! identical scoring code, the bitmap results match the full-data results
//! *exactly* (the paper's no-accuracy-loss claim), which the tests assert
//! bit-for-bit.

use ibis_core::wah::LITERAL_MASK;
use ibis_core::{Binner, BitmapIndex, CodecVec, Ones, OnesCursor, RoaringVec, WahVec};
use ibis_obs::LazyCounter;

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

// Which joint-table kernel ran, and how many chunks the partition kernel
// labelled or skipped (family `query`, DESIGN.md §6g). No-ops without `obs`.
static OBS_JOINT_PARTITION: LazyCounter = LazyCounter::new("query.joint.partition");
static OBS_JOINT_AND_TABLE: LazyCounter = LazyCounter::new("query.joint.and_table");
static OBS_CHUNKS_LABELLED: LazyCounter = LazyCounter::new("query.joint.chunks.labelled");
static OBS_CHUNKS_SKIPPED: LazyCounter = LazyCounter::new("query.joint.chunks.skipped");

/// Rows per WAH segment.
const SEG: usize = 31;
/// Rows [`joint_counts`] labels at a time: 512 segments, so both operands'
/// labels (2 × 31 KB by row + 2 × 1 KB by segment) stay L2-resident.
pub const CHUNK_ROWS: u64 = (SEG * 512) as u64;
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
/// of them), flattened like [`joint_histogram`] and exactly equal to it on
/// the underlying data — from the bitmaps alone.
///
/// The bins of an index built from data *partition* its rows, so each row
/// lands in exactly one cell and the table costs one pass, not the
/// `m × n` ANDs of [`joint_counts_and_table`]: rows are walked in chunks
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
    if !(a.partitions() && b.partitions()) || a.nbins().max(nb) > MIXED as usize {
        return joint_counts_and_table(a, b, sel);
    }
    OBS_JOINT_PARTITION.inc();
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
            OBS_CHUNKS_SKIPPED.inc();
            continue;
        }
        OBS_CHUNKS_LABELLED.inc();
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

/// The paper's Figure 5 kernel: one compressed `AND` + popcount per pair
/// of non-empty bins (each row of the table first masked by `sel`).
/// Assumes nothing about the bins, so it is what [`joint_counts`] falls
/// back to, and its oracle.
pub fn joint_counts_and_table(a: &BitmapIndex, b: &BitmapIndex, sel: Option<&WahVec>) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "indexes cover different element counts");
    OBS_JOINT_AND_TABLE.inc();
    let nb = b.nbins();
    let mut joint = vec![0u64; a.nbins() * nb];
    for j in (0..a.nbins()).filter(|&j| a.counts()[j] != 0) {
        let masked = sel.map(|sel| a.bin(j).and(sel));
        // prepared once: a dense row pays its decode a single time
        let row = masked.as_ref().unwrap_or(a.bin(j)).prepare();
        for (k, cell) in joint[j * nb..(j + 1) * nb].iter_mut().enumerate() {
            if b.counts()[k] != 0 {
                *cell = row.and_count(b.bin(k));
            }
        }
    }
    joint
}

/// Row sums of a flattened joint table (marginal of the first variable).
pub fn marginal_a(joint: &[u64], na: usize, nb: usize) -> Vec<u64> {
    assert_eq!(joint.len(), na * nb);
    (0..na)
        .map(|j| joint[j * nb..(j + 1) * nb].iter().sum())
        .collect()
}

/// Column sums of a flattened joint table (marginal of the second variable).
pub fn marginal_b(joint: &[u64], na: usize, nb: usize) -> Vec<u64> {
    assert_eq!(joint.len(), na * nb);
    (0..nb)
        .map(|k| (0..na).map(|j| joint[j * nb + k]).sum())
        .collect()
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
        assert_eq!(marginal_a(&j, 12, 9), histogram(&data_a(), &ba));
        assert_eq!(marginal_b(&j, 12, 9), histogram(&data_b(), &bb));
    }

    #[test]
    fn bitmap_joint_counts_equal_full_scan() {
        let ba = Binner::fixed_width(0.0, 100.0, 12);
        let bb = Binner::fixed_width(0.0, 90.0, 9);
        let ia = BitmapIndex::build(&data_a(), ba.clone());
        let ib = BitmapIndex::build(&data_b(), bb.clone());
        let want = joint_histogram(&data_a(), &data_b(), &ba, &bb);
        assert_eq!(joint_counts(&ia, &ib, None), want);
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
                joint_counts(&ia, &ib, None),
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
        let dense: Vec<u64> = (100..2900).collect();
        for sel in [
            WahVec::ones(n as u64),
            WahVec::zeros(n as u64),
            WahVec::from_ones(&dense, n as u64),
            WahVec::from_ones(&[5, 700, 2999], n as u64), // sparse
            WahVec::from_bits((0..n).map(|i| i % 2 == 0)), // incompressible
        ] {
            assert_eq!(
                joint_counts(&ia, &ib, Some(&sel)),
                joint_counts_and_table(&ia, &ib, Some(&sel))
            );
        }
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
        assert_eq!(
            joint_counts(&ia, &ib, None),
            joint_histogram(&a, &b, &ba, &bb)
        );
        assert_eq!(
            joint_counts(&ib, &ia, None),
            joint_histogram(&b, &a, &bb, &ba)
        );
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn joint_rejects_length_mismatch() {
        let b = Binner::fixed_width(0.0, 1.0, 2);
        let _ = joint_histogram(&[0.1], &[0.1, 0.2], &b, &b);
    }
}
