//! Correlation mining between two variables (Section 4, Algorithm 2).
//!
//! Finds value subsets (bin pairs) and spatial subsets (Z-order units) where
//! two variables are strongly related, using mutual information as the
//! indicator:
//!
//! 1. **Joint step** — AND every bitvector of `A` with every bitvector of
//!    `B`, counting 1-bits.
//! 2. **Value pruning** — score each joint pair; pairs below threshold `T`
//!    are uncorrelated and never touched again.
//! 3. **Spatial step** — partition each surviving joint bitvector into basic
//!    spatial units (contiguous Z-order ranges) and keep units scoring at
//!    least `T'`.
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

use ibis_core::{Binner, BitmapIndex, MultiLevelIndex};
use rayon::prelude::*;

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
    debug_assert!(c_ab <= c_a && c_ab <= c_b && c_a <= n && c_b <= n);
    if n == 0 {
        return 0.0;
    }
    // MI is symmetric; canonicalize the argument order so the float
    // summation order — and therefore the result — is bit-exactly
    // symmetric too.
    let (c_a, c_b) = (c_a.min(c_b), c_a.max(c_b));
    let nf = n as f64;
    let p = |c: u64| c as f64 / nf;
    let p11 = p(c_ab);
    let p10 = p(c_a - c_ab);
    let p01 = p(c_b - c_ab);
    let p00 = p(n + c_ab - c_a - c_b);
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

/// Algorithm 2 on bitmap indices, with the spatial stage fanned out over
/// the rayon pool. Rows of the pair table are scored independently; each
/// row [`prepare`](ibis_core::WahVec::prepare)s its bitvector once so a
/// dense row pays the decode a single time across all its ANDs. Per-row
/// outputs are concatenated in row order, so the result — subsets, ordering
/// and work counters — is byte-identical at every pool width (tested
/// against a one-thread pool, which runs every drive inline).
pub fn mine_index(a: &BitmapIndex, b: &BitmapIndex, cfg: &MiningConfig) -> MiningResult {
    assert_eq!(a.len(), b.len(), "variables must cover the same elements");
    assert!(cfg.unit_size > 0, "unit_size must be positive");
    let n = a.len();
    let mut result = MiningResult::default();
    if n == 0 {
        return result;
    }
    // Step 1: the whole joint table, in one pass over the bitmaps.
    let joint = crate::histogram::joint_counts(a, b);
    let nb_bins = b.nbins();
    // Step 2: value pruning — pure float scoring of the joint table, cheap
    // and serial. Survivors are grouped by row for the spatial fan-out.
    let mut rows: Vec<(usize, Vec<(usize, f64)>)> = Vec::new();
    for j in 0..a.nbins() {
        let ca = a.counts()[j];
        if ca == 0 {
            continue;
        }
        let mut survivors = Vec::new();
        for k in 0..nb_bins {
            let cb = b.counts()[k];
            if cb == 0 {
                continue;
            }
            result.pairs_evaluated += 1;
            let value_mi = joint_pair_score(n, ca, cb, joint[j * nb_bins + k]);
            if value_mi < cfg.value_threshold {
                result.pairs_pruned += 1;
                continue;
            }
            survivors.push((k, value_mi));
        }
        if !survivors.is_empty() {
            rows.push((j, survivors));
        }
    }
    // Per-unit marginals of every B bin that appears in a surviving pair,
    // computed once up front (in parallel) and shared across rows.
    let mut needed_b: Vec<usize> = rows
        .iter()
        .flat_map(|(_, s)| s.iter().map(|&(k, _)| k))
        .collect();
    needed_b.sort_unstable();
    needed_b.dedup();
    let computed: Vec<Vec<u64>> = needed_b
        .par_iter()
        .map(|&k| b.bin(k).count_ones_per_unit(cfg.unit_size))
        .collect();
    let mut units_b: Vec<Option<Vec<u64>>> = vec![None; nb_bins];
    for (k, v) in needed_b.into_iter().zip(computed) {
        units_b[k] = Some(v);
    }
    // Step 3: spatial stage, one task per surviving row (fused AND +
    // per-unit popcount; the intersection is never materialized).
    let row_results: Vec<(usize, Vec<MinedSubset>)> = rows
        .into_par_iter()
        .map(|(j, survivors)| {
            let row = a.bin(j).prepare();
            let per_unit_a = a.bin(j).count_ones_per_unit(cfg.unit_size);
            let mut units_evaluated = 0usize;
            let mut subsets = Vec::new();
            for (k, value_mi) in survivors {
                let per_unit_ab = row.and_count_per_unit(b.bin(k), cfg.unit_size);
                let per_unit_b = units_b[k].as_ref().expect("marginal precomputed");
                for (u, &c_ab_u) in per_unit_ab.iter().enumerate() {
                    units_evaluated += 1;
                    let nu = unit_len(u, cfg.unit_size, n);
                    let spatial_mi = indicator_mi(nu, per_unit_a[u], per_unit_b[u], c_ab_u);
                    if spatial_mi >= cfg.spatial_threshold {
                        subsets.push(MinedSubset {
                            bin_a: j,
                            bin_b: k,
                            unit: u,
                            value_mi,
                            spatial_mi,
                        });
                    }
                }
            }
            (units_evaluated, subsets)
        })
        .collect();
    for (units_evaluated, subsets) in row_results {
        result.units_evaluated += units_evaluated;
        result.subsets.extend(subsets);
    }
    sort_subsets(&mut result.subsets);
    result
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
/// children of pairs passing `T` (Section 4.2, optimization 2).
pub fn mine_multilevel(
    a: &MultiLevelIndex,
    b: &MultiLevelIndex,
    cfg: &MiningConfig,
) -> (MiningResult, MultiLevelStats) {
    assert_eq!(
        a.low().len(),
        b.low().len(),
        "variables must cover the same elements"
    );
    let n = a.low().len();
    let mut result = MiningResult::default();
    let mut stats = MultiLevelStats::default();
    if n == 0 {
        return (result, stats);
    }
    let mut units_a: Vec<Option<Vec<u64>>> = vec![None; a.low().nbins()];
    let mut units_b: Vec<Option<Vec<u64>>> = vec![None; b.low().nbins()];
    for hj in 0..a.high().nbins() {
        if a.high().counts()[hj] == 0 {
            continue;
        }
        // Coarse row decoded (if dense) once, shared across all hk ANDs.
        let high_row = a.high().bin(hj).prepare();
        for hk in 0..b.high().nbins() {
            if b.high().counts()[hk] == 0 {
                continue;
            }
            stats.high_pairs_evaluated += 1;
            let c_hjk = high_row.and_count(b.high().bin(hk));
            let high_mi = joint_pair_score(n, a.high().counts()[hj], b.high().counts()[hk], c_hjk);
            if high_mi < cfg.value_threshold {
                stats.high_pairs_pruned += 1;
                continue;
            }
            for j in a.children(hj) {
                let ca = a.low().counts()[j];
                if ca == 0 {
                    continue;
                }
                // Decoded (if dense) once per row, shared by all its ANDs.
                let row = a.low().bin(j).prepare();
                for k in b.children(hk) {
                    let cb = b.low().counts()[k];
                    if cb == 0 {
                        continue;
                    }
                    stats.low_pairs_evaluated += 1;
                    result.pairs_evaluated += 1;
                    let c_ab = row.and_count(b.low().bin(k));
                    let value_mi = joint_pair_score(n, ca, cb, c_ab);
                    if value_mi < cfg.value_threshold {
                        result.pairs_pruned += 1;
                        continue;
                    }
                    let per_unit_ab = row.and_count_per_unit(b.low().bin(k), cfg.unit_size);
                    let per_unit_a = units_a[j]
                        .get_or_insert_with(|| a.low().bin(j).count_ones_per_unit(cfg.unit_size));
                    let per_unit_b = units_b[k]
                        .get_or_insert_with(|| b.low().bin(k).count_ones_per_unit(cfg.unit_size));
                    for (u, &c_ab_u) in per_unit_ab.iter().enumerate() {
                        result.units_evaluated += 1;
                        let nu = unit_len(u, cfg.unit_size, n);
                        let spatial_mi = indicator_mi(nu, per_unit_a[u], per_unit_b[u], c_ab_u);
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
        }
    }
    sort_subsets(&mut result.subsets);
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
