//! Correlation mining between two variables (Section 4, Algorithm 2).
//!
//! Finds value subsets (bin pairs) and spatial subsets (Z-order units) where
//! two variables are strongly related, using mutual information as the
//! indicator:
//!
//! 1. **Joint step** — the rows of every bin of `A` that lie in every bin
//!    of `B`: the whole joint table
//!    ([`joint_counts`](crate::histogram::joint_counts)).
//! 2. **Value pruning** — score each joint pair; pairs below threshold `T`
//!    are uncorrelated and never touched again.
//! 3. **Spatial step** — count each surviving pair inside each basic
//!    spatial unit (a contiguous Z-order range of rows) and keep units
//!    scoring at least `T'`.
//!
//! A spatial unit is a row range, so step 3 is one more walk of the
//! partition-label kernel ([`joint_counts_per_range`]) with the units as its
//! ranges, run only when a pair survives: it reads each bin once, where it
//! lies (WAH or Roaring), and each count it makes lands in its unit's
//! marginals and, for a surviving pair, in that pair's per-unit count. The
//! units split into contiguous groups across the rayon pool; integer sums
//! over disjoint rows make the result byte-identical at every width. Both
//! walks label rows, so both operands' bins must partition their rows, as
//! every index built from data does.
//!
//! The per-pair score is the mutual information between the two *indicator*
//! variables "value of A falls in bin j" / "value of B falls in bin k" —
//! always non-negative, computable from four counts, and identical whether
//! the counts come from bitmaps or a raw scan (tested bit-for-bit).
//!
//! The multi-level variant ([`mine_multilevel`]) evaluates coarse bin pairs
//! first and descends only into the children of pairs whose coarse score
//! passes `T` — the paper's efficiency optimization. It is a heuristic
//! filter (coarsening can mask a fine-grained correlation); the stats report
//! how much work it pruned.

use crate::histogram::{joint_counts, joint_counts_per_range};
use ibis_core::{Binner, BitmapIndex, MultiLevelIndex};
use rayon::prelude::*;
use std::ops::Range;

/// Thresholds and spatial granularity for a mining run.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// `T`: minimum indicator-MI (bits) for a value pair to survive pruning.
    pub value_threshold: f64,
    /// `T'`: minimum indicator-MI (bits) for a spatial unit to be reported.
    pub spatial_threshold: f64,
    /// Basic spatial unit size in elements (a Z-order block when the data
    /// was laid out with [`ibis_core::ZOrderLayout`]).
    pub unit_size: u64,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            value_threshold: 0.01,
            spatial_threshold: 0.05,
            unit_size: 256,
        }
    }
}

/// One mined high-correlation subset: a value pair restricted to a spatial
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedSubset {
    /// Bin of variable A (value subset of A).
    pub bin_a: usize,
    /// Bin of variable B.
    pub bin_b: usize,
    /// Spatial unit index (covers elements `[unit*unit_size, …)`).
    pub unit: usize,
    /// Indicator MI of the value pair over the whole domain.
    pub value_mi: f64,
    /// Indicator MI within the unit.
    pub spatial_mi: f64,
}

/// Result of a mining run, with work counters for the efficiency benches.
#[derive(Debug, Clone, Default)]
pub struct MiningResult {
    /// Surviving subsets, sorted by `spatial_mi` descending.
    pub subsets: Vec<MinedSubset>,
    /// Value pairs whose joint distribution was evaluated.
    pub pairs_evaluated: usize,
    /// Value pairs dropped by the `T` pruning step.
    pub pairs_pruned: usize,
    /// Spatial units scored in step 3.
    pub units_evaluated: usize,
}

/// Mutual information (bits) between the indicator variables "in bin j of A"
/// and "in bin k of B", from the four counts: total `n`, marginals `c_a`,
/// `c_b`, and joint `c_ab`. Always ≥ 0.
pub fn indicator_mi(n: u64, c_a: u64, c_b: u64, c_ab: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    // clamped and saturating: bins that overlap yet sum to the row count (a
    // corrupt but well-formed index) pass for a partition, and the label
    // walk can hand in counts no data has; they score, and never panic
    let (c_a, c_b) = (c_a.min(n), c_b.min(n));
    let c_ab = c_ab.min(c_a).min(c_b);
    // MI is symmetric; canonicalize the argument order so the float
    // summation order — and therefore the result — is bit-exactly
    // symmetric too.
    let (c_a, c_b) = (c_a.min(c_b), c_a.max(c_b));
    let nf = n as f64;
    let p = |c: u64| c as f64 / nf;
    let p11 = p(c_ab);
    let p10 = p(c_a - c_ab);
    let p01 = p(c_b - c_ab);
    let p00 = p((n + c_ab).saturating_sub(c_a + c_b));
    let pa1 = p(c_a);
    let pb1 = p(c_b);
    let term = |pxy: f64, px: f64, py: f64| {
        if pxy > 0.0 && px > 0.0 && py > 0.0 {
            pxy * (pxy / (px * py)).log2()
        } else {
            0.0
        }
    };
    (term(p11, pa1, pb1)
        + term(p10, pa1, 1.0 - pb1)
        + term(p01, 1.0 - pa1, pb1)
        + term(p00, 1.0 - pa1, 1.0 - pb1))
    .max(0.0)
}

/// Score of a joint value pair: zero when the pair never co-occurs (the
/// paper prunes on the joint bitvector's 1-bits — a pair with no shared
/// positions is uncorrelated by definition), otherwise the indicator MI.
pub fn joint_pair_score(n: u64, c_a: u64, c_b: u64, c_ab: u64) -> f64 {
    if c_ab == 0 {
        0.0
    } else {
        indicator_mi(n, c_a, c_b, c_ab)
    }
}

/// Length of spatial unit `u` given `unit_size` and total elements `n`.
fn unit_len(u: usize, unit_size: u64, n: u64) -> u64 {
    let start = u as u64 * unit_size;
    unit_size.min(n - start)
}

/// A value pair that survived pruning: its bin of `A`, its bin of `B` and
/// its indicator MI over the whole domain.
type Survivor = (usize, usize, f64);

impl MiningResult {
    /// Step 2 over the pairs of non-empty bins in `bins_a × bins_b`: each
    /// counted as evaluated and, scoring below `T` on `joint`, as pruned;
    /// the others join `survivors`.
    fn value_step(
        &mut self,
        (a, b, joint): (&BitmapIndex, &BitmapIndex, &[u64]),
        (bins_a, bins_b): (Range<usize>, Range<usize>),
        t: f64,
        survivors: &mut Vec<Survivor>,
    ) {
        let (n, nb) = (a.len(), b.nbins());
        for j in bins_a.filter(|&j| a.counts()[j] != 0) {
            for k in bins_b.clone().filter(|&k| b.counts()[k] != 0) {
                self.pairs_evaluated += 1;
                let value_mi = joint_pair_score(n, a.counts()[j], b.counts()[k], joint[j * nb + k]);
                match value_mi < t {
                    true => self.pairs_pruned += 1,
                    false => survivors.push((j, k, value_mi)),
                }
            }
        }
    }
}

/// Algorithm 2 on bitmap indices: the joint table from one label walk,
/// value pruning on it, and the survivors scored unit by unit on a second
/// walk (see the module docs). The result — subsets, ordering and work
/// counters — equals [`mine_full`]'s and is byte-identical at every pool
/// width (tested against a one-thread pool, which runs every drive inline).
///
/// # Panics
/// When the indices cover different element counts, `cfg.unit_size` is 0,
/// or an index's bins do not partition its rows (they overlap).
pub fn mine_index(a: &BitmapIndex, b: &BitmapIndex, cfg: &MiningConfig) -> MiningResult {
    assert_eq!(a.len(), b.len(), "variables must cover the same elements");
    assert!(cfg.unit_size > 0, "unit_size must be positive");
    let mut result = MiningResult::default();
    if a.is_empty() {
        return result;
    }
    let joint = joint_counts(a, b);
    let mut survivors = Vec::new();
    let bins = (0..a.nbins(), 0..b.nbins());
    result.value_step((a, b, &joint), bins, cfg.value_threshold, &mut survivors);
    spatial_step(a, b, &survivors, joint, cfg, &mut result);
    result
}

/// `0..count` (`count` ≥ 1) in contiguous groups, one per pool thread
/// (fewer when `count` is smaller), in order.
fn split(count: usize) -> Vec<Range<usize>> {
    let per = count.div_ceil(rayon::current_num_threads().clamp(1, count));
    (0..count)
        .step_by(per)
        .map(|s| s..(s + per).min(count))
        .collect()
}

/// Step 3: every surviving pair scored in every spatial unit; the subsets
/// at or above `T'` join `result`, sorted. `joint`, step 1's table, is
/// spent: it is reused as the walk's map from cell to surviving pair.
fn spatial_step(
    a: &BitmapIndex,
    b: &BitmapIndex,
    pairs: &[Survivor],
    joint: Vec<u64>,
    cfg: &MiningConfig,
    result: &mut MiningResult,
) {
    if pairs.is_empty() {
        return;
    }
    result.units_evaluated += pairs.len() * a.len().div_ceil(cfg.unit_size) as usize;
    result.subsets.extend(walk_units(a, b, pairs, joint, cfg));
    sort_subsets(&mut result.subsets);
}

/// Pair `(bin_a, bin_b, value_mi)` in `unit`, from the unit's rows in
/// `bin_a`, in `bin_b` and in both — a subset if it scores at least `T'`.
fn subset(
    (bin_a, bin_b, value_mi): Survivor,
    unit: usize,
    [c_a, c_b, c_ab]: [u64; 3],
    n: u64,
    cfg: &MiningConfig,
) -> Option<MinedSubset> {
    let spatial_mi = indicator_mi(unit_len(unit, cfg.unit_size, n), c_a, c_b, c_ab);
    (spatial_mi >= cfg.spatial_threshold).then_some(MinedSubset {
        bin_a,
        bin_b,
        unit,
        value_mi,
        spatial_mi,
    })
}

/// [`spatial_step`] on the label walk: one [`joint_counts_per_range`] per
/// group of contiguous units, the units its ranges, the groups split across
/// the pool. Each count lands in its unit's rows per bin and, for a
/// surviving pair, in the pair's; a unit is scored once the walk has moved
/// past it. (The `query.joint.*` counters count tables, so only step 1
/// ticks them, whatever the width.)
fn walk_units(
    a: &BitmapIndex,
    b: &BitmapIndex,
    pairs: &[Survivor],
    mut slot: Vec<u64>,
    cfg: &MiningConfig,
) -> Vec<MinedSubset> {
    let (n, na, nb) = (a.len(), a.nbins(), b.nbins());
    // cell `j * nb + k` -> its pair's index in `pairs`, if it survived
    slot.fill(u64::MAX);
    for (p, &(j, k, _)) in pairs.iter().enumerate() {
        slot[j * nb + k] = p as u64;
    }
    let groups: Vec<Vec<MinedSubset>> = split(n.div_ceil(cfg.unit_size) as usize)
        .into_par_iter()
        .map(|units| {
            let first = units.start;
            let rows = |u: usize| u as u64 * cfg.unit_size..((u as u64 + 1) * cfg.unit_size).min(n);
            let ranges: Vec<Range<u64>> = units.map(rows).collect();
            let (mut unit_a, mut unit_b, mut unit_ab) =
                (vec![0; na], vec![0; nb], vec![0; pairs.len()]);
            let (mut found, mut scored) = (Vec::new(), 0);
            let mut score = |unit: usize, a: &mut [u64], b: &mut [u64], ab: &mut [u64]| {
                for (&pair @ (j, k, _), &c_ab) in pairs.iter().zip(&*ab) {
                    found.extend(subset(pair, unit, [a[j], b[k], c_ab], n, cfg));
                }
                a.fill(0);
                b.fill(0);
                ab.fill(0);
            };
            joint_counts_per_range(a, b, 0..na, 0..nb, Some(&ranges), |i, j, k, c| {
                while scored < i {
                    score(first + scored, &mut unit_a, &mut unit_b, &mut unit_ab);
                    scored += 1;
                }
                unit_a[j] += c;
                unit_b[k] += c;
                if let Some(ab) = unit_ab.get_mut(slot[j * nb + k] as usize) {
                    *ab += c;
                }
            });
            for unit in scored..ranges.len() {
                score(first + unit, &mut unit_a, &mut unit_b, &mut unit_ab);
            }
            found
        })
        .collect();
    groups.concat()
}

/// The full-data comparator: identical semantics via raw scans — bin the
/// data, tally joint counts per pair and per unit, score with the same
/// kernel. Used as the baseline in Figure 14 and as the exactness oracle.
pub fn mine_full(
    a: &[f64],
    b: &[f64],
    binner_a: &Binner,
    binner_b: &Binner,
    cfg: &MiningConfig,
) -> MiningResult {
    assert_eq!(a.len(), b.len(), "variables must cover the same elements");
    assert!(cfg.unit_size > 0, "unit_size must be positive");
    let n = a.len() as u64;
    let mut result = MiningResult::default();
    if n == 0 {
        return result;
    }
    thread_local! {
        // mine_full runs once per step pair in the comparison benches;
        // binning scratch persists across calls on each thread.
        static ID_SCRATCH: std::cell::RefCell<(Vec<u32>, Vec<u32>)> = const {
            std::cell::RefCell::new((Vec::new(), Vec::new()))
        };
    }
    ID_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (ids_a, ids_b) = &mut *scratch;
        binner_a.bin_into(a, ids_a);
        binner_b.bin_into(b, ids_b);
        let (na, nb) = (binner_a.nbins(), binner_b.nbins());
        let nunits = (n as usize).div_ceil(cfg.unit_size as usize);
        // whole-domain joint + marginals
        let mut joint = vec![0u64; na * nb];
        let mut ca = vec![0u64; na];
        let mut cb = vec![0u64; nb];
        // per-unit marginals
        let mut unit_a = vec![0u64; nunits * na];
        let mut unit_b = vec![0u64; nunits * nb];
        for (i, (&ja, &kb)) in ids_a.iter().zip(ids_b.iter()).enumerate() {
            joint[ja as usize * nb + kb as usize] += 1;
            ca[ja as usize] += 1;
            cb[kb as usize] += 1;
            let u = i / cfg.unit_size as usize;
            unit_a[u * na + ja as usize] += 1;
            unit_b[u * nb + kb as usize] += 1;
        }
        for j in 0..na {
            if ca[j] == 0 {
                continue;
            }
            for k in 0..nb {
                if cb[k] == 0 {
                    continue;
                }
                result.pairs_evaluated += 1;
                let c_ab = joint[j * nb + k];
                let value_mi = joint_pair_score(n, ca[j], cb[k], c_ab);
                if value_mi < cfg.value_threshold {
                    result.pairs_pruned += 1;
                    continue;
                }
                // per-unit joint counts for this surviving pair
                let mut per_unit_ab = vec![0u64; nunits];
                for (i, (&ja, &kb)) in ids_a.iter().zip(ids_b.iter()).enumerate() {
                    if ja as usize == j && kb as usize == k {
                        per_unit_ab[i / cfg.unit_size as usize] += 1;
                    }
                }
                for (u, &c_ab_u) in per_unit_ab.iter().enumerate() {
                    result.units_evaluated += 1;
                    let nu = unit_len(u, cfg.unit_size, n);
                    let spatial_mi =
                        indicator_mi(nu, unit_a[u * na + j], unit_b[u * nb + k], c_ab_u);
                    if spatial_mi >= cfg.spatial_threshold {
                        result.subsets.push(MinedSubset {
                            bin_a: j,
                            bin_b: k,
                            unit: u,
                            value_mi,
                            spatial_mi,
                        });
                    }
                }
            }
        }
        sort_subsets(&mut result.subsets);
        result
    })
}

/// Multi-level statistics.
#[derive(Debug, Clone, Default)]
pub struct MultiLevelStats {
    /// Coarse pairs evaluated at the high level.
    pub high_pairs_evaluated: usize,
    /// Coarse pairs pruned (their children were never visited).
    pub high_pairs_pruned: usize,
    /// Fine pairs evaluated after descending.
    pub low_pairs_evaluated: usize,
}

/// Multi-level mining: score high-level pairs first, descend only into the
/// children of pairs passing `T` (Section 4.2, optimization 2), then the
/// spatial step of [`mine_index`] over the fine pairs that survive.
///
/// Both levels are read off the one fine joint table: a coarse pair's
/// count is the table's block under `children(hj) × children(hk)`, which,
/// bins partitioning rows, is `|H_a ∧ H_b|` exactly — no high bin is built.
///
/// # Panics
/// As [`mine_index`].
pub fn mine_multilevel(
    a: &MultiLevelIndex,
    b: &MultiLevelIndex,
    cfg: &MiningConfig,
) -> (MiningResult, MultiLevelStats) {
    let (low_a, low_b) = (a.low(), b.low());
    assert_eq!(
        low_a.len(),
        low_b.len(),
        "variables must cover the same elements"
    );
    assert!(cfg.unit_size > 0, "unit_size must be positive");
    let mut result = MiningResult::default();
    let mut stats = MultiLevelStats::default();
    if low_a.is_empty() {
        return (result, stats);
    }
    let joint = joint_counts(low_a, low_b);
    let (n, nb) = (low_a.len(), low_b.nbins());
    // the non-empty high bins, with their rows
    let high = |ml: &MultiLevelIndex| -> Vec<(usize, u64)> {
        let rows = |h| ml.children(h).map(|j| ml.low().counts()[j]).sum();
        (0..ml.low().nbins().div_ceil(ml.group()))
            .map(|h| (h, rows(h)))
            .filter(|&(_, c)| c != 0)
            .collect()
    };
    let (high_a, high_b) = (high(a), high(b));
    let mut survivors = Vec::new();
    for &(hj, c_hj) in &high_a {
        for &(hk, c_hk) in &high_b {
            stats.high_pairs_evaluated += 1;
            let c_hjk = (a.children(hj))
                .map(|j| joint[j * nb..][b.children(hk)].iter().sum::<u64>())
                .sum();
            if joint_pair_score(n, c_hj, c_hk, c_hjk) < cfg.value_threshold {
                stats.high_pairs_pruned += 1;
                continue;
            }
            let children = (a.children(hj), b.children(hk));
            let t = cfg.value_threshold;
            result.value_step((low_a, low_b, &joint), children, t, &mut survivors);
        }
    }
    stats.low_pairs_evaluated = result.pairs_evaluated;
    spatial_step(low_a, low_b, &survivors, joint, cfg, &mut result);
    (result, stats)
}

fn sort_subsets(subsets: &mut [MinedSubset]) {
    subsets.sort_by(|x, y| {
        y.spatial_mi
            .partial_cmp(&x.spatial_mi)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.bin_a.cmp(&y.bin_a))
            .then(x.bin_b.cmp(&y.bin_b))
            .then(x.unit.cmp(&y.unit))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indicator_mi_basics() {
        // perfectly dependent indicators: I = H(indicator) = 1 bit at p=1/2
        let mi = indicator_mi(100, 50, 50, 50);
        assert!((mi - 1.0).abs() < 1e-12, "{mi}");
        // independent: joint = product
        let mi = indicator_mi(100, 50, 40, 20);
        assert!(mi.abs() < 1e-12, "{mi}");
        // empty
        assert_eq!(indicator_mi(0, 0, 0, 0), 0.0);
        // anti-correlated is still informative
        assert!(indicator_mi(100, 50, 50, 0) > 0.9);
    }

    #[test]
    fn indicator_mi_nonnegative_everywhere() {
        for n in [1u64, 7, 100] {
            for ca in 0..=n {
                for cb in 0..=n {
                    for cab in (ca + cb).saturating_sub(n)..=ca.min(cb) {
                        let mi = indicator_mi(n, ca, cb, cab);
                        assert!(
                            mi >= 0.0 && mi.is_finite(),
                            "n={n} ca={ca} cb={cb} cab={cab}: {mi}"
                        );
                    }
                }
            }
        }
    }

    /// Data with correlation planted in the first half of the domain:
    /// there b = a; in the second half b is a shuffled pattern.
    fn planted(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| ((i * 7) % 8) as f64).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    ((i * 7) % 8) as f64 // identical to a: maximal correlation
                } else {
                    // hashed: statistically independent of a's 8-cycle
                    ((i.wrapping_mul(2654435761) >> 13) % 8) as f64
                }
            })
            .collect();
        (a, b)
    }

    fn binner() -> Binner {
        Binner::distinct_ints(0, 7)
    }

    fn cfg() -> MiningConfig {
        MiningConfig {
            value_threshold: 0.005,
            spatial_threshold: 0.2,
            unit_size: 128,
        }
    }

    #[test]
    fn parallel_and_serial_miners_identical() {
        let (a, b) = planted(4096);
        let ia = BitmapIndex::build(&a, binner());
        let ib = BitmapIndex::build(&b, binner());
        let at = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
            pool.build()
                .unwrap()
                .install(|| mine_index(&ia, &ib, &cfg()))
        };
        let (par, ser) = (at(4), at(1));
        assert_eq!(par.subsets, ser.subsets, "fan-out must not change results");
        assert_eq!(par.pairs_evaluated, ser.pairs_evaluated);
        assert_eq!(par.pairs_pruned, ser.pairs_pruned);
        assert_eq!(par.units_evaluated, ser.units_evaluated);
    }

    #[test]
    fn bitmap_and_full_miners_agree_exactly() {
        let (a, b) = planted(4096);
        let ia = BitmapIndex::build(&a, binner());
        let ib = BitmapIndex::build(&b, binner());
        let rb = mine_index(&ia, &ib, &cfg());
        let rf = mine_full(&a, &b, &binner(), &binner(), &cfg());
        assert_eq!(rb.subsets, rf.subsets, "miners must agree bit-for-bit");
        assert_eq!(rb.pairs_evaluated, rf.pairs_evaluated);
        assert_eq!(rb.pairs_pruned, rf.pairs_pruned);
        assert!(!rb.subsets.is_empty(), "planted correlation must be found");
    }

    #[test]
    fn finds_correlation_only_in_planted_half() {
        let (a, b) = planted(4096);
        let ia = BitmapIndex::build(&a, binner());
        let ib = BitmapIndex::build(&b, binner());
        let r = mine_index(&ia, &ib, &cfg());
        let half_units = 4096 / 128 / 2;
        assert!(!r.subsets.is_empty());
        for s in &r.subsets {
            assert!(
                s.unit < half_units,
                "unit {} is outside the planted half (mi {})",
                s.unit,
                s.spatial_mi
            );
        }
        // the diagonal (b == a) pairs should dominate
        let diagonal = r.subsets.iter().filter(|s| s.bin_a == s.bin_b).count();
        assert!(
            diagonal * 2 > r.subsets.len(),
            "diagonal pairs should dominate"
        );
    }

    #[test]
    fn pruning_reduces_spatial_work() {
        let (a, b) = planted(4096);
        let ia = BitmapIndex::build(&a, binner());
        let ib = BitmapIndex::build(&b, binner());
        let strict = mine_index(
            &ia,
            &ib,
            &MiningConfig {
                value_threshold: 0.05,
                ..cfg()
            },
        );
        let loose = mine_index(
            &ia,
            &ib,
            &MiningConfig {
                value_threshold: 0.0,
                ..cfg()
            },
        );
        assert!(strict.pairs_pruned > 0);
        assert_eq!(loose.pairs_pruned, 0);
        assert!(strict.units_evaluated < loose.units_evaluated);
    }

    #[test]
    fn multilevel_finds_planted_subsets_with_less_work() {
        let (a, b) = planted(8192);
        let mla = MultiLevelIndex::build(&a, binner(), 2);
        let mlb = MultiLevelIndex::build(&b, binner(), 2);
        let (ml_result, stats) = mine_multilevel(&mla, &mlb, &cfg());
        let flat = mine_index(mla.low(), mlb.low(), &cfg());
        // the planted strong subsets must survive the coarse pruning
        let strong: Vec<&MinedSubset> =
            flat.subsets.iter().filter(|s| s.spatial_mi > 0.5).collect();
        for s in &strong {
            assert!(
                ml_result.subsets.iter().any(|m| m == *s),
                "multilevel lost a strong subset: {s:?}"
            );
        }
        // and it must do less fine-grained work when anything was pruned
        assert!(stats.high_pairs_evaluated > 0);
        if stats.high_pairs_pruned > 0 {
            assert!(stats.low_pairs_evaluated < flat.pairs_evaluated);
        }
    }

    /// Overlapping bins: no row has one label to walk.
    #[test]
    #[should_panic(expected = "partition their rows")]
    fn mining_bins_that_are_no_partition_panics() {
        let (a, _) = planted(512);
        let ia = BitmapIndex::build(&a, binner());
        let mut bins: Vec<_> = ia.bins().cloned().collect();
        bins[0] = bins[0].or(&bins[1]);
        let overlapping = BitmapIndex::from_bins(binner(), bins);
        let _ = mine_index(&ia, &overlapping, &cfg());
    }

    #[test]
    fn results_sorted_by_spatial_mi() {
        let (a, b) = planted(4096);
        let ia = BitmapIndex::build(&a, binner());
        let ib = BitmapIndex::build(&b, binner());
        let r = mine_index(&ia, &ib, &cfg());
        for w in r.subsets.windows(2) {
            assert!(w[0].spatial_mi >= w[1].spatial_mi);
        }
    }

    #[test]
    fn empty_input() {
        let ia = BitmapIndex::build(&[], binner());
        let ib = BitmapIndex::build(&[], binner());
        let r = mine_index(&ia, &ib, &cfg());
        assert!(r.subsets.is_empty());
        assert_eq!(r.pairs_evaluated, 0);
        let r = mine_full(&[], &[], &binner(), &binner(), &cfg());
        assert!(r.subsets.is_empty());
    }

    #[test]
    fn no_correlation_no_results() {
        // independent uniform patterns over coprime periods
        let a: Vec<f64> = (0..4095).map(|i| (i % 5) as f64).collect();
        let b: Vec<f64> = (0..4095).map(|i| ((i / 5) % 7) as f64).collect();
        let ba = Binner::distinct_ints(0, 4);
        let bb = Binner::distinct_ints(0, 6);
        let ia = BitmapIndex::build(&a, ba);
        let ib = BitmapIndex::build(&b, bb);
        let r = mine_index(
            &ia,
            &ib,
            &MiningConfig {
                value_threshold: 0.02,
                spatial_threshold: 0.3,
                unit_size: 256,
            },
        );
        assert!(
            r.subsets.is_empty(),
            "found {} spurious subsets",
            r.subsets.len()
        );
        assert_eq!(r.pairs_pruned, r.pairs_evaluated);
    }
}
