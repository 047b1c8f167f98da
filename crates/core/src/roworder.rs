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
//! One order besides the ingest order is offered: [`RowOrder::GrayBin`]
//! stable-sorts rows by the Gray code of their *bin* id, so each bin's
//! bitmap degenerates to a handful of fills. It depends on the step's
//! values, so the permutation is persisted next to the index (see
//! `ibis-insitu`'s store).
//!
//! Queries over a reordered index stay transparent: value predicates are
//! order-invariant, and a position predicate becomes a few stretches of
//! stored rows — one binary search pair per ascending run of the gather
//! order ([`RowPermutation::segments`]); a stored-order selection maps
//! back to original row ids with
//! [`RowPermutation::map_selection_to_original`].

use crate::binning::Binner;
use crate::wah::WahVec;
use ibis_obs::LazyCounter;

static OBS_PERM_BUILT: LazyCounter = LazyCounter::new("reorder.perm.built");
static OBS_PERM_ROWS: LazyCounter = LazyCounter::new("reorder.perm.rows");

/// A row-reordering strategy for index generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowOrder {
    /// Row-major ingest order, unchanged. Never persists a permutation.
    #[default]
    Identity,
    /// Stable sort of rows by the Gray code of their bin id: adjacent
    /// sort keys differ in one bit, so consecutive bins share long runs.
    GrayBin,
}

impl RowOrder {
    /// Every order, in tag order — for sweeps and property tests.
    pub const ALL: [RowOrder; 2] = [RowOrder::Identity, RowOrder::GrayBin];

    /// Stable one-byte tag, the first byte of the store's row-order
    /// payload. Tags 1, 2 and 4 named orders that are no longer offered;
    /// they stay unassigned so a store that carries one is refused.
    pub fn tag(self) -> u8 {
        match self {
            RowOrder::Identity => 0,
            RowOrder::GrayBin => 3,
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
            RowOrder::GrayBin => "graybin",
        }
    }

    /// Parses a [`RowOrder::name`]; `None` for anything else.
    pub fn parse(s: &str) -> Option<RowOrder> {
        RowOrder::ALL.into_iter().find(|o| o.name() == s)
    }

    /// Builds this order's permutation for one step from the step's
    /// values and their binning.
    ///
    /// `_dims` is ignored: no order reads the grid shape. The parameter
    /// stays because the `ibis-e2e` harness spells this signature
    /// (ROADMAP item 2b).
    ///
    /// Returns `None` when the order *is* the identity and nothing needs
    /// applying or persisting: always for [`RowOrder::Identity`], and
    /// whenever the computed permutation comes out as the identity
    /// (already-sorted or constant data).
    pub fn permutation(
        self,
        _dims: &[usize],
        binner: &Binner,
        data: &[f64],
    ) -> Option<RowPermutation> {
        assert!(
            data.len() <= u32::MAX as usize,
            "RowOrder supports at most 2^32-1 rows"
        );
        let perm = match self {
            RowOrder::Identity => return None,
            RowOrder::GrayBin => gray_bin_perm(binner, data),
        };
        if perm.is_identity() {
            return None;
        }
        OBS_PERM_BUILT.inc();
        OBS_PERM_ROWS.add(perm.len() as u64);
        Some(perm)
    }
}

/// Stable sort of the rows by the Gray code of their bin, as a counting
/// sort over runs of equal bins: the runs give the histogram, the
/// histogram gives each bin's first stored position, and each run is
/// placed as one block — `perm[s..s+len] = i..i+len`, `inv[i..i+len] =
/// s..s+len`, both sequential fills. O(n + bins), and the rows of one bin
/// stay in ascending original order.
fn gray_bin_perm(binner: &Binner, data: &[f64]) -> RowPermutation {
    let ids = binner.bin_all(data);
    let runs = || ids.chunk_by(|a, b| a == b);
    let mut counts = vec![0u32; binner.nbins()];
    for run in runs() {
        counts[run[0] as usize] += run.len() as u32;
    }
    let mut bins: Vec<usize> = (0..counts.len()).collect();
    bins.sort_unstable_by_key(|&b| b ^ (b >> 1));
    let mut starts = vec![0u32; counts.len()];
    let mut start = 0;
    for &b in &bins {
        starts[b] = start;
        start += counts[b];
    }
    let (mut perm, mut inv) = (vec![0u32; ids.len()], vec![0u32; ids.len()]);
    let (mut next, mut original) = (starts.clone(), 0u32);
    for run in runs() {
        let (slot, len) = (&mut next[run[0] as usize], run.len());
        fill_ascending(&mut perm[*slot as usize..][..len], original);
        fill_ascending(&mut inv[original as usize..][..len], *slot);
        *slot += len as u32;
        original += len as u32;
    }
    // every bin's block ends where the next one in Gray order starts (the
    // last at `n`): the blocks tile `0..n`, so each stored position is
    // written once, and `perm` is a bijection
    let ends = bins.iter().skip(1).map(|&b| starts[b]);
    let ends = ends.chain([ids.len() as u32]);
    assert!(
        bins.iter().zip(ends).all(|(&b, end)| next[b] == end),
        "GrayBin blocks do not tile the rows"
    );
    // rows ascend within a block, so a maximal ascending run can start
    // only at a non-empty bin's first stored position
    let segments = bins.iter().filter(|&&b| counts[b] > 0).map(|&b| starts[b]);
    let segments = segments
        .filter(|&s| s == 0 || perm[s as usize] < perm[s as usize - 1])
        .collect();
    RowPermutation {
        perm,
        inv,
        segments,
    }
}

/// `out[k] = first + k`.
fn fill_ascending(out: &mut [u32], first: u32) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = first + k as u32;
    }
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
    /// Builds from an arbitrary gather order (`perm[stored] = original`),
    /// checking every row — strided gathers in tests and benches.
    ///
    /// # Panics
    /// When `perm` is not a permutation of `0..len`.
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
            fill_ascending(&mut inv[first as usize..][..len as usize], stored);
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
        // 1, 2 and 4 are retired, never reassigned
        for tag in [1, 2, 4, 200] {
            assert_eq!(RowOrder::from_tag(tag), None);
        }
        assert_eq!(RowOrder::GrayBin.tag(), 3, "stored blobs carry this byte");
    }

    #[test]
    fn data_orders_sort_rows_by_bin_stably() {
        let binner = Binner::distinct_ints(0, 3);
        let data = vec![3.0, 0.0, 2.0, 0.0, 1.0, 3.0, 2.0, 2.0];
        assert!(RowOrder::Identity
            .permutation(&[], &binner, &data)
            .is_none());
        let p = RowOrder::GrayBin.permutation(&[], &binner, &data).unwrap();
        check_bijection(&p, data.len());
        // gray(0)=0, gray(1)=1, gray(2)=3, gray(3)=2: bins order 0,1,3,2,
        // each bin's rows in original order (stability)
        assert_eq!(p.perm(), &[1, 3, 4, 0, 5, 2, 6, 7]);
    }

    #[test]
    fn reorder_restore_round_trip() {
        let binner = Binner::distinct_ints(0, 6);
        let data: Vec<f64> = (0..35).map(|i| ((i * 13) % 7) as f64).collect();
        // one run per bin, and a stride that scatters every row
        let sorted = RowOrder::GrayBin.permutation(&[], &binner, &data).unwrap();
        let strided = RowPermutation::from_gather((0..35).map(|s| s * 12 % 35).collect());
        for p in [sorted, strided] {
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
                let oracle = RowPermutation::from_gather(gray);
                let built = RowOrder::GrayBin.permutation(&[], binner, data);
                // an identity result normalizes to `None`, as before
                let expect = (!oracle.is_identity()).then_some(oracle);
                assert_eq!(built, expect, "graybin over {binner:?}");
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
