//! Pluggable row orders — compression-aware permutations of the ingest
//! row order, chosen at generation time.
//!
//! WAH/Roaring sizes (and every downstream kernel) are dominated by
//! run structure, which is a function of *row order*; the in-situ setting
//! lets us pick that order for free while the data is still in memory
//! (*Sorting improves word-aligned bitmap indexes*, Lemire et al.). A
//! [`RowOrder`] names a strategy; [`RowOrder::permutation`] materializes
//! it as a [`RowPermutation`] — a checked bijection between *original*
//! row ids (the simulation's row-major layout) and *stored* positions
//! (the order the bitmap index is built in).
//!
//! Two families:
//!
//! * **Spatial** ([`RowOrder::ZOrder`], [`RowOrder::Hilbert`]) — reorder
//!   by a space-filling curve over the grid coordinates, so spatially
//!   coherent fields produce long constant runs. Data-independent: the
//!   same grid always yields the same permutation.
//! * **Data-dependent** ([`RowOrder::GrayBin`], [`RowOrder::HistogramSorted`])
//!   — stable-sort rows by a function of their *bin* (Gray-code of the
//!   bin id, or the bin's frequency rank from the same histogram the
//!   calibrator caches), so each bin's bitmap degenerates to a handful
//!   of fills. These depend on the step's values, so the permutation is
//!   persisted next to the index (see `ibis-insitu`'s store).
//!
//! Queries over a reordered index stay transparent: value predicates are
//! order-invariant, and a position predicate becomes a few stretches of
//! stored rows — one binary search pair per ascending run of the gather
//! order ([`RowPermutation::segments`]); a stored-order selection maps
//! back to original row ids with
//! [`RowPermutation::map_selection_to_original`].
//!
//! The existing [`crate::ZOrderLayout`] remains the miner's spatial-block
//! layout (strict 2-D/3-D); `RowOrder` additionally handles degenerate
//! shapes (`1×1×N`, 1-D) by dropping size-1 axes and falling back to
//! identity when fewer than two effective dimensions remain.

use crate::binning::Binner;
use crate::wah::WahVec;
use crate::zorder::{morton2, morton3};
use ibis_obs::LazyCounter;

static OBS_PERM_BUILT: LazyCounter = LazyCounter::new("reorder.perm.built");
static OBS_PERM_ROWS: LazyCounter = LazyCounter::new("reorder.perm.rows");

/// A row-reordering strategy for index generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Row-major ingest order, unchanged. Never persists a permutation.
    #[default]
    Identity,
    /// Morton (Z-order) traversal of the grid coordinates.
    ZOrder,
    /// Hilbert-curve traversal of the grid coordinates (Skilling's
    /// transpose algorithm); better locality than Z-order at quadrant
    /// seams.
    Hilbert,
    /// Stable sort of rows by the Gray code of their bin id: adjacent
    /// sort keys differ in one bit, so consecutive bins share long runs.
    GrayBin,
    /// Stable sort of rows by descending bin frequency (histogram rank),
    /// the histogram-aware ordering: the most populous bins become one
    /// solid fill each.
    HistogramSorted,
}

impl RowOrder {
    /// Every order, in tag order — for sweeps and property tests.
    pub const ALL: [RowOrder; 5] = [
        RowOrder::Identity,
        RowOrder::ZOrder,
        RowOrder::Hilbert,
        RowOrder::GrayBin,
        RowOrder::HistogramSorted,
    ];

    /// Stable one-byte tag, the first byte of the store's row-order payload.
    pub fn tag(self) -> u8 {
        match self {
            RowOrder::Identity => 0,
            RowOrder::ZOrder => 1,
            RowOrder::Hilbert => 2,
            RowOrder::GrayBin => 3,
            RowOrder::HistogramSorted => 4,
        }
    }

    /// Inverse of [`RowOrder::tag`]; `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<RowOrder> {
        RowOrder::ALL.into_iter().find(|o| o.tag() == tag)
    }

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            RowOrder::Identity => "identity",
            RowOrder::ZOrder => "zorder",
            RowOrder::Hilbert => "hilbert",
            RowOrder::GrayBin => "graybin",
            RowOrder::HistogramSorted => "histsorted",
        }
    }

    /// Parses a [`RowOrder::name`]; `None` for anything else.
    pub fn parse(s: &str) -> Option<RowOrder> {
        RowOrder::ALL.into_iter().find(|o| o.name() == s)
    }

    /// True for the orders computed from the step's values (and therefore
    /// needing their permutation persisted next to the index).
    pub fn is_data_dependent(self) -> bool {
        matches!(self, RowOrder::GrayBin | RowOrder::HistogramSorted)
    }

    /// True for the orders that need the grid shape.
    pub fn is_spatial(self) -> bool {
        matches!(self, RowOrder::ZOrder | RowOrder::Hilbert)
    }

    /// Builds this order's permutation for one step.
    ///
    /// `dims` is the grid shape in row-major order (fastest-varying axis
    /// last is *not* assumed — the curve only needs a bijection, and any
    /// consistent convention compresses equally); size-1 axes are
    /// dropped. `binner` and `data` drive the data-dependent orders.
    ///
    /// Returns `None` when the order *is* the identity and nothing needs
    /// applying or persisting: always for [`RowOrder::Identity`], and for
    /// spatial orders over grids with fewer than two effective
    /// dimensions (a 1-D or `1×1×N` grid has exactly one locality-
    /// preserving traversal — the one we already have), and whenever the
    /// computed permutation comes out as the identity (already-sorted or
    /// constant data).
    ///
    /// # Panics
    /// For spatial orders, when `dims` does not multiply out to
    /// `data.len()` or has more than three effective axes — caller bugs,
    /// checked upstream by the pipeline with a typed error.
    pub fn permutation(
        self,
        dims: &[usize],
        binner: &Binner,
        data: &[f64],
    ) -> Option<RowPermutation> {
        assert!(
            data.len() <= u32::MAX as usize,
            "RowOrder supports at most 2^32-1 rows"
        );
        let perm = match self {
            RowOrder::Identity => return None,
            RowOrder::ZOrder => spatial_perm(dims, data.len(), morton_key)?,
            RowOrder::Hilbert => spatial_perm(dims, data.len(), hilbert_key)?,
            RowOrder::GrayBin => bin_sorted_perm(binner, data, |bins, _| {
                bins.sort_unstable_by_key(|&b| b ^ (b >> 1));
            }),
            // Descending frequency, ties by bin id — deterministic.
            RowOrder::HistogramSorted => bin_sorted_perm(binner, data, |bins, counts| {
                bins.sort_unstable_by_key(|&b| (std::cmp::Reverse(counts[b]), b));
            }),
        };
        let perm = RowPermutation::from_gather(perm);
        if perm.is_identity() {
            // e.g. a data-dependent order over already-sorted (or
            // constant) data: nothing to apply, nothing to persist.
            return None;
        }
        OBS_PERM_BUILT.inc();
        OBS_PERM_ROWS.add(perm.len() as u64);
        Some(perm)
    }
}

/// Stable sort of the rows by bin — the bins taken in the order
/// `rank_bins` leaves their ids in, given the histogram — as a counting
/// sort: one binning pass gives every row's bin and the histogram, the
/// histogram gives each bin's first stored position, and one placement
/// pass fills the gather order. O(n + m), and the rows of one bin stay in
/// ascending original order.
fn bin_sorted_perm(
    binner: &Binner,
    data: &[f64],
    rank_bins: impl FnOnce(&mut Vec<usize>, &[u32]),
) -> Vec<u32> {
    let ids = binner.bin_all(data);
    let mut counts = vec![0u32; binner.nbins()];
    for &b in &ids {
        counts[b as usize] += 1;
    }
    let mut bins: Vec<usize> = (0..counts.len()).collect();
    rank_bins(&mut bins, &counts);
    let mut next = vec![0u32; counts.len()];
    let mut start = 0;
    for b in bins {
        next[b] = start;
        start += counts[b];
    }
    let mut perm = vec![0u32; data.len()];
    for (i, &b) in ids.iter().enumerate() {
        let slot = &mut next[b as usize];
        perm[*slot as usize] = i as u32;
        *slot += 1;
    }
    perm
}

/// Shared shell of the spatial orders: drop size-1 axes, bail to
/// identity (`None`) under two effective dimensions, then sort row-major
/// ids by the curve key of their coordinates.
fn spatial_perm(dims: &[usize], n: usize, key: impl Fn(&[u32]) -> u64) -> Option<Vec<u32>> {
    let full: Vec<usize> = dims.iter().copied().filter(|&d| d > 1).collect();
    let product: usize = dims.iter().product();
    assert_eq!(product, n, "grid dims {dims:?} do not cover {n} rows");
    if full.len() < 2 {
        return None;
    }
    assert!(
        full.len() <= 3,
        "spatial row orders support 2-D and 3-D grids, got {dims:?}"
    );
    for &d in &full {
        assert!(d <= 1 << 21, "grid dim {d} exceeds 2^21");
    }
    // Walk the *full* shape row-major so stored keys line up with the
    // simulation's linear ids; size-1 axes contribute coordinate 0.
    let mut coords = vec![0u32; full.len()];
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let keys: Vec<u64> = {
        let mut keys = Vec::with_capacity(n);
        let mut counters = vec![0usize; dims.len()];
        for _ in 0..n {
            let mut c = 0;
            for (axis, &d) in dims.iter().enumerate() {
                if d > 1 {
                    coords[c] = counters[axis] as u32;
                    c += 1;
                }
            }
            keys.push(key(&coords));
            // row-major odometer: last axis fastest
            for axis in (0..dims.len()).rev() {
                counters[axis] += 1;
                if counters[axis] < dims[axis] {
                    break;
                }
                counters[axis] = 0;
            }
        }
        keys
    };
    perm.sort_unstable_by_key(|&i| (keys[i as usize], i));
    Some(perm)
}

fn morton_key(c: &[u32]) -> u64 {
    match c {
        [x, y] => morton2(*x, *y),
        [x, y, z] => morton3(*x, *y, *z),
        _ => unreachable!("spatial_perm guarantees 2 or 3 coords"),
    }
}

/// Hilbert-curve key: Skilling's axes→transpose conversion ("Programming
/// the Hilbert curve", AIP Conf. Proc. 707, 2004), then bit interleave of
/// the transposed axes, most significant plane first.
fn hilbert_key(c: &[u32]) -> u64 {
    const BITS: u32 = 21;
    let n = c.len();
    let mut x = [0u32; 3];
    x[..n].copy_from_slice(c);
    let m = 1u32 << (BITS - 1);
    // Inverse undo
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x[..n].iter_mut() {
        *xi ^= t;
    }
    // Interleave: plane b of every axis, x[0] most significant.
    let mut key = 0u64;
    for b in (0..BITS).rev() {
        for xi in &x[..n] {
            key = (key << 1) | ((xi >> b) & 1) as u64;
        }
    }
    key
}

/// A checked bijection between original row ids and stored positions.
///
/// `perm[stored] = original` (the gather order applied at ingest) and
/// `inv[original] = stored` (the map queries use). `segments` are the
/// stored positions where a maximal ascending run of `perm` starts: a
/// stable sort by bin is at most one run per bin, and within a run a
/// block of original rows is one stretch of stored rows, found by binary
/// search. Constructed by [`RowOrder::permutation`] or, on the read path,
/// from the store's decoded runs ([`RowPermutation::from_runs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPermutation {
    perm: Vec<u32>,
    inv: Vec<u32>,
    segments: Vec<u32>,
}

impl RowPermutation {
    /// Builds from the gather order (`perm[stored] = original`).
    ///
    /// # Panics
    /// When `perm` is not a permutation of `0..len` — only reachable from
    /// a bug in an order implementation, which the property suite pins.
    pub fn from_gather(perm: Vec<u32>) -> Self {
        let mut inv = vec![u32::MAX; perm.len()];
        let mut segments = Vec::new();
        for (stored, &original) in perm.iter().enumerate() {
            let slot = &mut inv[original as usize];
            assert_eq!(
                *slot,
                u32::MAX,
                "duplicate row id {original} in permutation"
            );
            *slot = stored as u32;
            if stored == 0 || original < perm[stored - 1] {
                segments.push(stored as u32);
            }
        }
        RowPermutation {
            perm,
            inv,
            segments,
        }
    }

    /// Builds from the gather order's runs — `(first original id, length)`
    /// of each stretch of consecutive ids, in stored order ([`Self::runs`])
    /// — a run at a time, with no per-row scatter: the store's read path.
    ///
    /// # Panics
    /// When the runs are not a permutation of `0..rows`. The store's
    /// decoder validates them before it calls this.
    pub fn from_runs(runs: &[(u32, u32)]) -> Self {
        let rows: usize = runs.iter().map(|r| r.1 as usize).sum();
        assert!(rows <= u32::MAX as usize, "at most 2^32-1 rows");
        let mut perm = Vec::with_capacity(rows);
        let mut inv = vec![u32::MAX; rows];
        let mut segments = Vec::new();
        for &(first, len) in runs {
            let stored = perm.len() as u32;
            let slots = &mut inv[first as usize..][..len as usize];
            slots
                .iter_mut()
                .zip(stored..)
                .for_each(|(slot, s)| *slot = s);
            if perm.last().is_none_or(|&last| first < last) {
                segments.push(stored);
            }
            perm.extend(first..first + len);
        }
        // `rows` ids over `rows` slots: an id gathered twice leaves another
        // never gathered
        assert!(
            !inv.contains(&u32::MAX),
            "runs are not a permutation of 0..{rows}"
        );
        RowPermutation {
            perm,
            inv,
            segments,
        }
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// True when this is the identity permutation (nothing to apply or
    /// persist): the only ascending arrangement of `0..len`.
    pub fn is_identity(&self) -> bool {
        self.segments.len() <= 1
    }

    /// The gather order: `perm()[stored] = original`.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// The inverse: `inv()[original] = stored`.
    pub fn inv(&self) -> &[u32] {
        &self.inv
    }

    /// The gather order as its maximal runs of consecutive original ids,
    /// `(first id, length)` in stored order — the form the store persists.
    pub fn runs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let runs = self.perm.chunk_by(|a, b| a + 1 == *b);
        runs.map(|run| (run[0], run.len() as u32))
    }

    /// Stored positions where a maximal ascending run of [`Self::perm`]
    /// starts, ascending; run `k` ends where run `k + 1` starts.
    pub fn segments(&self) -> &[u32] {
        &self.segments
    }

    /// Applies the order: `out[stored] = data[perm[stored]]`, O(n).
    ///
    /// # Panics
    /// When `data.len() != self.len()`.
    pub fn reorder<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "reorder length mismatch");
        self.perm.iter().map(|&o| data[o as usize]).collect()
    }

    /// Undoes the order: `out[original] = stored_data[inv[original]]`.
    ///
    /// # Panics
    /// When `data.len() != self.len()`.
    pub fn restore<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "restore length mismatch");
        self.inv.iter().map(|&s| data[s as usize]).collect()
    }

    /// Maps a stored-order selection back to original row ids: position
    /// `s` set in `sel` becomes original row `perm[s]`. The result is
    /// canonical (positions sorted before building).
    ///
    /// # Panics
    /// When `sel.len() != self.len()`.
    pub fn map_selection_to_original(&self, sel: &WahVec) -> WahVec {
        assert_eq!(sel.len(), self.len() as u64, "selection length mismatch");
        let mut ones: Vec<u64> = sel
            .iter_ones()
            .map(|s| self.perm[s as usize] as u64)
            .collect();
        ones.sort_unstable();
        WahVec::from_ones(&ones, sel.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bijection(p: &RowPermutation, n: usize) {
        assert_eq!(p.len(), n);
        let mut seen = vec![false; n];
        for &o in p.perm() {
            assert!(!seen[o as usize]);
            seen[o as usize] = true;
        }
        for i in 0..n {
            assert_eq!(p.perm()[p.inv()[i] as usize] as usize, i);
        }
    }

    #[test]
    fn names_and_tags_round_trip() {
        for o in RowOrder::ALL {
            assert_eq!(RowOrder::parse(o.name()), Some(o));
            assert_eq!(RowOrder::from_tag(o.tag()), Some(o));
        }
        assert_eq!(RowOrder::parse("nope"), None);
        assert_eq!(RowOrder::from_tag(200), None);
    }

    #[test]
    fn identity_and_degenerate_spatial_return_none() {
        let binner = Binner::distinct_ints(0, 9);
        let data: Vec<f64> = (0..24).map(|i| (i % 10) as f64).collect();
        assert!(RowOrder::Identity
            .permutation(&[4, 6], &binner, &data)
            .is_none());
        // 1-D and 1×1×N grids have no second axis to curve over
        assert!(RowOrder::ZOrder
            .permutation(&[24], &binner, &data)
            .is_none());
        assert!(RowOrder::Hilbert
            .permutation(&[1, 1, 24], &binner, &data)
            .is_none());
    }

    #[test]
    fn spatial_orders_are_bijections_on_ragged_grids() {
        let binner = Binner::distinct_ints(0, 9);
        for dims in [
            vec![3, 5],
            vec![7, 1, 9],
            vec![4, 4, 4],
            vec![2, 3, 5],
            vec![1, 6, 6],
        ] {
            let n: usize = dims.iter().product();
            let data: Vec<f64> = (0..n).map(|i| (i % 10) as f64).collect();
            for order in [RowOrder::ZOrder, RowOrder::Hilbert] {
                let p = order.permutation(&dims, &binner, &data).unwrap();
                check_bijection(&p, n);
            }
        }
    }

    #[test]
    fn hilbert_neighbors_are_adjacent_on_square_grid() {
        // On a 2^k × 2^k grid the Hilbert walk moves one cell at a time.
        let binner = Binner::distinct_ints(0, 1);
        let data = vec![0.0; 64];
        let p = RowOrder::Hilbert
            .permutation(&[8, 8], &binner, &data)
            .unwrap();
        for w in p.perm().windows(2) {
            let (a, b) = (w[0] as i64, w[1] as i64);
            let (ax, ay) = (a / 8, a % 8);
            let (bx, by) = (b / 8, b % 8);
            assert_eq!(
                (ax - bx).abs() + (ay - by).abs(),
                1,
                "hilbert step {a}→{b} is not a unit move"
            );
        }
    }

    #[test]
    fn data_orders_sort_rows_by_bin_stably() {
        let binner = Binner::distinct_ints(0, 3);
        let data = vec![3.0, 0.0, 2.0, 0.0, 1.0, 3.0, 2.0, 2.0];
        let p = RowOrder::HistogramSorted
            .permutation(&[], &binner, &data)
            .unwrap();
        check_bijection(&p, data.len());
        // 2 is the most frequent bin, so its rows come first, in original
        // order (stability), then ties broken by bin id: 0, 3, 1.
        assert_eq!(p.perm(), &[2, 6, 7, 1, 3, 0, 5, 4]);
        let p = RowOrder::GrayBin.permutation(&[], &binner, &data).unwrap();
        check_bijection(&p, data.len());
        // gray(0)=0, gray(1)=1, gray(2)=3, gray(3)=2: bins order 0,1,3,2
        assert_eq!(p.perm(), &[1, 3, 4, 0, 5, 2, 6, 7]);
    }

    #[test]
    fn reorder_restore_round_trip() {
        let binner = Binner::distinct_ints(0, 6);
        let data: Vec<f64> = (0..35).map(|i| ((i * 13) % 7) as f64).collect();
        for order in RowOrder::ALL {
            let Some(p) = order.permutation(&[5, 7], &binner, &data) else {
                continue;
            };
            let stored = p.reorder(&data);
            assert_eq!(p.restore(&stored), data);
            // segments: exactly the stored positions where the gather
            // order stops ascending
            let starts: Vec<u32> = (0..p.len())
                .filter(|&s| s == 0 || p.perm()[s] < p.perm()[s - 1])
                .map(|s| s as u32)
                .collect();
            assert_eq!(p.segments(), starts);
            assert!(starts.len() > 1, "a non-identity order has a descent");
            // the runs rebuild the whole structure, as the store's reader does
            let runs: Vec<(u32, u32)> = p.runs().collect();
            assert_eq!(RowPermutation::from_runs(&runs), p);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn overlapping_runs_are_not_a_permutation() {
        RowPermutation::from_runs(&[(2, 3), (0, 3)]);
    }

    /// The build this module shipped before the counting sort — a
    /// comparison sort on `(key, i)`, `bin_of` inside every comparison —
    /// kept as the oracle the counting sort must equal bit for bit.
    fn sort_perm(n: usize, key: impl Fn(usize) -> u64) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by_key(|&i| (key(i as usize), i));
        perm
    }

    #[test]
    fn counting_sort_equals_the_comparison_sort() {
        let binners = [
            Binner::fixed_width(-100.0, 100.0, 37),
            Binner::precision(-100.0, 100.0, 0),
            Binner::distinct_ints(-100, 100),
            Binner::from_edges(vec![-100.0, -20.0, -1.0, 0.5, 30.0, 100.0]),
        ];
        let noisy: Vec<f64> = (0..997)
            .map(|i| match i % 53 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 1e30,
                _ => ((i * 7919) % 2411) as f64 / 10.0 - 120.0,
            })
            .collect();
        let sorted: Vec<f64> = (0..500).map(|i| i as f64 * 0.4 - 100.0).collect();
        let datasets = [noisy, sorted, vec![4.2; 300], vec![f64::NAN; 9], vec![]];
        for binner in &binners {
            for data in &datasets {
                let bin = |i: usize| binner.bin_of(data[i]) as u64;
                let gray = sort_perm(data.len(), |i| bin(i) ^ (bin(i) >> 1));
                let mut counts = vec![0u64; binner.nbins()];
                (0..data.len()).for_each(|i| counts[bin(i) as usize] += 1);
                let mut by_freq: Vec<usize> = (0..counts.len()).collect();
                by_freq.sort_unstable_by_key(|&b| (std::cmp::Reverse(counts[b]), b));
                let mut rank = vec![0u64; counts.len()];
                for (r, &b) in by_freq.iter().enumerate() {
                    rank[b] = r as u64;
                }
                let hist = sort_perm(data.len(), |i| rank[bin(i) as usize]);
                for (order, oracle) in
                    [(RowOrder::GrayBin, gray), (RowOrder::HistogramSorted, hist)]
                {
                    let oracle = RowPermutation::from_gather(oracle);
                    let built = order.permutation(&[], binner, data);
                    // an identity result normalizes to `None`, as before
                    let expect = (!oracle.is_identity()).then_some(oracle);
                    assert_eq!(built, expect, "{} over {binner:?}", order.name());
                }
            }
        }
    }

    #[test]
    fn selection_maps_back_to_original_rows() {
        let binner = Binner::distinct_ints(0, 4);
        let data = vec![4.0, 1.0, 3.0, 0.0, 2.0, 1.0];
        let p = RowOrder::GrayBin.permutation(&[], &binner, &data).unwrap();
        // select stored positions of the rows whose value is 1.0
        let stored = p.reorder(&data);
        let ones: Vec<u64> = stored
            .iter()
            .enumerate()
            .filter(|(_, &v)| v == 1.0)
            .map(|(i, _)| i as u64)
            .collect();
        let sel = WahVec::from_ones(&ones, data.len() as u64);
        let mapped = p.map_selection_to_original(&sel);
        assert_eq!(mapped.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
    }
}
