//! Lossy **superset** bitmaps — FPR-bounded approximation with guaranteed
//! one-sided error, in the style of tree-encoded bitmaps' lossy
//! compression experiments.
//!
//! The pass absorbs *interior* 0-runs (0-runs flanked by 1-runs on both
//! sides) shorter than a threshold into the surrounding 1-fills. Only
//! `0 → 1` flips ever happen, so the result is a strict superset of the
//! exact bitmap: `exact & lossy == exact` and `exact | lossy == lossy`
//! hold bit-for-bit, which is what lets a query engine use the lossy
//! vector as a cheap pre-filter and refine with the exact bitmap only on
//! the rows the filter admits.
//!
//! The threshold is *derived from* a target false-positive rate rather
//! than given directly: with `budget = ⌊fpr × zeros(exact)⌋`, the pass
//! histograms the interior 0-run lengths and picks the largest threshold
//! `t` such that flipping every interior 0-run shorter than `t` stays
//! within the budget. The measured FPR (`bits_dropped / zeros`) is
//! therefore always ≤ the requested bound — the bound is a guarantee,
//! not a tendency. Absorbing short 0-runs lengthens the adjacent 1-fills
//! exactly as the sorting literature predicts compression wins from
//! longer runs, which is where the size reduction comes from.

use crate::binning::Binner;
use crate::codec::CodecVec;
use crate::index::BitmapIndex;
use crate::runs::Run;
use crate::wah::WahVec;
use crate::WahBuilder;
use ibis_obs::LazyCounter;
use std::borrow::Cow;
use std::ops::Range;

// Lossy-pass metrics (family `lossy`, see DESIGN.md §6l). No-ops without
// the `obs` feature.
static OBS_BITS_DROPPED: LazyCounter = LazyCounter::new("lossy.pass.bits_dropped");
static OBS_RUNS_ABSORBED: LazyCounter = LazyCounter::new("lossy.pass.runs_absorbed");

/// Smallest supported target false-positive rate.
pub const FPR_MIN: f64 = 1e-4;
/// Largest supported target false-positive rate.
pub const FPR_MAX: f64 = 1e-1;

/// Validates a requested FPR: finite and within `[FPR_MIN, FPR_MAX]`
/// (zero is also accepted and makes the pass an exact no-op).
pub fn valid_fpr(fpr: f64) -> bool {
    fpr == 0.0 || (fpr.is_finite() && (FPR_MIN..=FPR_MAX).contains(&fpr))
}

/// What one lossy pass did to one bitvector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossyStats {
    /// The derived threshold: interior 0-runs strictly shorter than this
    /// were flipped (0 means nothing was flipped).
    pub threshold_bits: u64,
    /// Total 0-bits flipped to 1.
    pub bits_dropped: u64,
    /// Interior 0-runs absorbed.
    pub runs_absorbed: u64,
    /// 0-bits in the *exact* input (the FPR denominator).
    pub zeros: u64,
}

impl LossyStats {
    /// The realized false-positive rate, `bits_dropped / zeros`
    /// (0 when the input had no zeros). Always ≤ the requested bound.
    pub fn measured_fpr(&self) -> f64 {
        if self.zeros == 0 {
            0.0
        } else {
            self.bits_dropped as f64 / self.zeros as f64
        }
    }

    /// Accumulates another vector's stats (threshold becomes the max —
    /// the summary quantity for a per-bin index pass).
    pub fn merge(&mut self, other: &LossyStats) {
        self.threshold_bits = self.threshold_bits.max(other.threshold_bits);
        self.bits_dropped += other.bits_dropped;
        self.runs_absorbed += other.runs_absorbed;
        self.zeros += other.zeros;
    }
}

/// Maximal same-bit runs of a vector, at bit granularity (adjacent WAH
/// runs of the same bit merged, literal words decomposed).
fn maximal_runs(v: &WahVec) -> Vec<(bool, u64)> {
    let mut out: Vec<(bool, u64)> = Vec::new();
    let mut push = |bit: bool, n: u64| {
        if n == 0 {
            return;
        }
        match out.last_mut() {
            Some((b, len)) if *b == bit => *len += n,
            _ => out.push((bit, n)),
        }
    };
    for run in v.runs() {
        match run {
            Run::Fill(bit, n) => push(bit, n),
            Run::Literal(payload, nbits) => {
                let nbits = nbits as u32;
                let mut j = 0u32;
                while j < nbits {
                    let rest = payload >> j;
                    let bit = rest & 1 == 1;
                    let same = if bit {
                        (!rest).trailing_zeros()
                    } else if rest == 0 {
                        nbits - j
                    } else {
                        rest.trailing_zeros()
                    }
                    .min(nbits - j);
                    push(bit, same as u64);
                    j += same;
                }
            }
        }
    }
    out
}

/// Derives the largest flip threshold affordable under `budget` flipped
/// bits: sorts the interior 0-run lengths and walks them ascending,
/// admitting a length class only when *all* runs of that length fit —
/// threshold semantics, not greedy cherry-picking, so equal-length runs
/// are always treated alike. Returns `(threshold_bits, bits_flipped)`.
fn derive_threshold(mut interior_zero_lens: Vec<u64>, budget: u64) -> (u64, u64) {
    interior_zero_lens.sort_unstable();
    let mut threshold = 0u64;
    let mut flipped = 0u64;
    let mut i = 0usize;
    while i < interior_zero_lens.len() {
        let len = interior_zero_lens[i];
        let mut j = i;
        let mut class_bits = 0u64;
        while j < interior_zero_lens.len() && interior_zero_lens[j] == len {
            class_bits += len;
            j += 1;
        }
        if flipped + class_bits > budget {
            break;
        }
        flipped += class_bits;
        threshold = len + 1;
        i = j;
    }
    (threshold, flipped)
}

impl WahVec {
    /// The lossy superset of this vector at target false-positive rate
    /// `fpr`: interior 0-runs shorter than a budget-derived threshold are
    /// absorbed into the surrounding 1-fills. The result satisfies
    /// `self & result == self` (superset) and
    /// `result.count_ones() - self.count_ones() ≤ fpr × zeros(self)`
    /// (measured FPR ≤ requested), both by construction.
    ///
    /// # Panics
    /// Panics when `fpr` is not 0 or within
    /// [`FPR_MIN`]`..=`[`FPR_MAX`].
    pub fn lossy_superset(&self, fpr: f64) -> (WahVec, LossyStats) {
        assert!(
            valid_fpr(fpr),
            "lossy fpr {fpr} outside [{FPR_MIN}, {FPR_MAX}]"
        );
        let zeros = self.len() - self.count_ones();
        let budget = (fpr * zeros as f64).floor() as u64;
        let runs = maximal_runs(self);
        let interior: Vec<u64> = runs
            .iter()
            .enumerate()
            .filter(|&(i, &(bit, _))| !bit && i > 0 && i + 1 < runs.len())
            .map(|(_, &(_, n))| n)
            .collect();
        let (threshold, _) = derive_threshold(interior, budget);
        let mut stats = LossyStats {
            threshold_bits: threshold,
            zeros,
            ..LossyStats::default()
        };
        if threshold == 0 {
            return (self.clone(), stats);
        }
        let mut b = WahBuilder::new();
        let last = runs.len().saturating_sub(1);
        for (i, &(bit, n)) in runs.iter().enumerate() {
            let flip = !bit && i > 0 && i < last && n < threshold;
            if flip {
                stats.bits_dropped += n;
                stats.runs_absorbed += 1;
            }
            b.append_run(bit || flip, n);
        }
        OBS_BITS_DROPPED.add(stats.bits_dropped);
        OBS_RUNS_ABSORBED.add(stats.runs_absorbed);
        debug_assert!(stats.bits_dropped <= budget);
        (b.finish(), stats)
    }
}

impl BitmapIndex {
    /// The per-bin lossy superset of this index at target FPR `fpr`: each
    /// bin is passed through [`WahVec::lossy_superset`] with its own
    /// budget, so every bin — and therefore any OR of bins, i.e. any
    /// range-query selection — is a superset of its exact counterpart
    /// with measured FPR ≤ `fpr`.
    ///
    /// The returned index's cached counts are the *lossy* ones (consistent
    /// with its own bitmaps). A lossy index no longer partitions rows
    /// across bins ([`BitmapIndex::partitions`]), so it is a filter and
    /// nothing more: an emptiness probe may read it, every statistic
    /// refuses it, and the range planner never plans a complement on it.
    pub fn lossy(&self, fpr: f64) -> (BitmapIndex, LossyStats) {
        self.lossy_rows(0..self.len(), fpr)
    }

    /// [`BitmapIndex::lossy`] of the half-open `rows` alone (a shard's
    /// companion; row `rows.start` becomes row 0). Each bin's WAH form of
    /// those rows is made from its held form and dropped once passed: not
    /// cached, and no codec is picked for it. Panics as `slice_rows` does.
    pub fn lossy_rows(&self, rows: Range<u64>, fpr: f64) -> (BitmapIndex, LossyStats) {
        let whole = rows == (0..self.len());
        let mut stats = LossyStats::default();
        let bins: Vec<WahVec> = (0..self.nbins())
            .map(|b| {
                let wah = match self.stored_bin(b) {
                    CodecVec::Wah(v) if whole => Cow::Borrowed(v),
                    CodecVec::Wah(v) => Cow::Owned(v.slice(rows.clone())),
                    CodecVec::Roaring(r) => Cow::Owned(r.slice(rows.clone()).to_wah()),
                };
                let (lossy, s) = wah.lossy_superset(fpr);
                stats.merge(&s);
                lossy
            })
            .collect();
        (BitmapIndex::from_bins(self.binner().clone(), bins), stats)
    }
}

/// Builds the lossy index for `data` directly (build + per-bin pass);
/// convenience for callers that never need the exact index in memory.
pub fn build_lossy_index(data: &[f64], binner: Binner, fpr: f64) -> (BitmapIndex, LossyStats) {
    BitmapIndex::build(data, binner).lossy(fpr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vec_of(bits: &[bool]) -> WahVec {
        WahVec::from_bits(bits.iter().copied())
    }

    #[test]
    fn exact_and_lossy_is_exact() {
        let patterns: Vec<Vec<bool>> = vec![
            (0..500).map(|i| !(40..45).contains(&(i % 50))).collect(),
            (0..1000).map(|i| (i / 3) % 7 != 0).collect(),
            (0..310).map(|i| i % 2 == 0).collect(),
            vec![true; 100],
            vec![false; 100],
        ];
        for bits in patterns {
            let exact = vec_of(&bits);
            for fpr in [0.0, 1e-4, 1e-3, 1e-2, 1e-1] {
                let (lossy, stats) = exact.lossy_superset(fpr);
                lossy.check_canonical().unwrap();
                assert_eq!(exact.and(&lossy), exact, "fpr {fpr}");
                assert_eq!(exact.or(&lossy), lossy, "fpr {fpr}");
                assert!(stats.measured_fpr() <= fpr, "fpr {fpr}: {stats:?}");
                assert_eq!(lossy.count_ones(), exact.count_ones() + stats.bits_dropped);
            }
        }
    }

    #[test]
    fn zero_fpr_is_identity() {
        let v = vec_of(&(0..400).map(|i| i % 9 < 2).collect::<Vec<_>>());
        let (lossy, stats) = v.lossy_superset(0.0);
        assert_eq!(lossy, v);
        assert_eq!(stats.bits_dropped, 0);
        assert_eq!(stats.threshold_bits, 0);
    }

    #[test]
    fn absorbs_short_gaps_and_shrinks() {
        // Long 1-runs separated by single-bit 0 gaps, plus one huge
        // interior 0-run: the long run funds the budget (it dominates the
        // zeros) but exceeds every affordable threshold, so exactly the
        // single-bit gaps are absorbed and the gap region collapses
        // toward one fill.
        let mut bits = vec![true; 1000];
        for _ in 0..20 {
            bits.push(false);
            bits.extend(vec![true; 99]);
        }
        bits.extend(vec![false; 5000]);
        bits.extend(vec![true; 100]);
        let exact = vec_of(&bits);
        let (lossy, stats) = exact.lossy_superset(0.1);
        assert_eq!(stats.bits_dropped, 20, "the 20 single-bit gaps");
        assert!(stats.threshold_bits >= 2);
        assert!(!lossy.get(4000), "the long 0-run survives");
        assert!(
            lossy.words().len() * 2 < exact.words().len(),
            "lossy {} vs exact {} words",
            lossy.words().len(),
            exact.words().len()
        );
        assert_eq!(exact.and(&lossy), exact);
        assert!(stats.measured_fpr() <= 0.1);
    }

    #[test]
    fn leading_and_trailing_zero_runs_survive() {
        // 0-runs touching either end are not interior: never flipped,
        // whatever the budget.
        let mut bits = vec![false; 10];
        bits.extend([true; 50]);
        bits.push(false);
        bits.extend([true; 50]);
        bits.extend([false; 10]);
        let exact = vec_of(&bits);
        let (lossy, stats) = exact.lossy_superset(0.1);
        assert!(!lossy.get(0));
        assert!(!lossy.get(lossy.len() - 1));
        assert_eq!(stats.bits_dropped, 1, "only the interior gap flips");
        assert!(lossy.get(60));
    }

    #[test]
    fn budget_respected_exactly() {
        // 9 interior gaps of 1 bit each among ~90 zeros; fpr=0.05 gives a
        // budget of ⌊0.05 × zeros⌋ flips — never exceeded.
        let mut bits = Vec::new();
        for _ in 0..10 {
            bits.extend(vec![true; 10]);
            bits.push(false);
        }
        bits.extend(vec![false; 80]);
        let exact = vec_of(&bits);
        let zeros = exact.len() - exact.count_ones();
        for fpr in [1e-4, 1e-3, 1e-2, 5e-2, 1e-1] {
            let (lossy, stats) = exact.lossy_superset(fpr);
            let budget = (fpr * zeros as f64).floor() as u64;
            assert!(stats.bits_dropped <= budget, "fpr {fpr}");
            assert_eq!(lossy.count_ones() - exact.count_ones(), stats.bits_dropped);
        }
    }

    #[test]
    fn threshold_treats_equal_lengths_alike() {
        // Two gaps of length 2 but budget for only one: neither flips
        // (threshold semantics — no cherry-picking within a length class).
        let mut bits = vec![true; 20];
        bits.extend([false, false]);
        bits.extend(vec![true; 20]);
        bits.extend([false, false]);
        bits.extend(vec![true; 20]);
        bits.extend(vec![false; 33]); // pad zeros so the budget is 3 bits
        let exact = vec_of(&bits);
        let zeros = exact.len() - exact.count_ones();
        let fpr = 3.2 / zeros as f64; // budget = 3 < 2+2
        let fpr = fpr.min(FPR_MAX);
        let (lossy, stats) = exact.lossy_superset(fpr);
        assert_eq!(stats.bits_dropped, 0);
        assert_eq!(lossy, exact);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_fpr() {
        let _ = WahVec::ones(100).lossy_superset(0.5);
    }

    #[test]
    fn index_lossy_is_per_bin_superset() {
        let data: Vec<f64> = (0..5000)
            .map(|i| ((i / 37) % 16) as f64 + if i % 97 == 0 { 1.0 } else { 0.0 })
            .collect();
        let binner = Binner::fixed_width(0.0, 17.0, 17);
        let exact = BitmapIndex::build(&data, binner.clone());
        let (lossy, stats) = exact.lossy(1e-2);
        // a lossy index doesn't partition rows, so check_consistent's
        // partition clause doesn't apply — check the rest directly
        assert_eq!(lossy.len(), exact.len());
        for b in 0..lossy.nbins() {
            lossy.bin(b).check_canonical().unwrap();
            assert_eq!(lossy.counts()[b], lossy.bin(b).count_ones());
        }
        assert!(
            lossy.counts().iter().sum::<u64>() >= exact.len(),
            "supersets can only grow the counts"
        );
        assert!(stats.measured_fpr() <= 1e-2);
        for b in 0..exact.nbins() {
            let e = exact.bin(b);
            let l = lossy.bin(b);
            assert_eq!(e.and(l), *e, "bin {b}");
        }
        // any range selection over the lossy index is a superset of the
        // exact selection
        for (lo, hi) in [(0.0, 17.0), (2.0, 5.0), (0.5, 16.5), (7.0, 7.5)] {
            let es = exact.query_range(lo, hi);
            let ls = lossy.query_range(lo, hi);
            assert_eq!(es.and(&ls), es, "[{lo},{hi})");
        }
    }

    #[test]
    fn build_lossy_index_matches_two_step() {
        let data: Vec<f64> = (0..800).map(|i| ((i / 11) % 9) as f64).collect();
        let binner = Binner::fixed_width(0.0, 9.0, 9);
        let (a, sa) = build_lossy_index(&data, binner.clone(), 1e-2);
        let (b, sb) = BitmapIndex::build(&data, binner).lossy(1e-2);
        assert_eq!(sa, sb);
        for i in 0..a.nbins() {
            assert_eq!(a.bin(i), b.bin(i));
        }
    }

    #[test]
    fn derive_threshold_edge_cases() {
        assert_eq!(derive_threshold(vec![], 100), (0, 0));
        assert_eq!(derive_threshold(vec![5], 4), (0, 0));
        assert_eq!(derive_threshold(vec![5], 5), (6, 5));
        assert_eq!(derive_threshold(vec![1, 1, 3], 2), (2, 2));
        assert_eq!(derive_threshold(vec![1, 1, 3], 5), (4, 5));
        // all runs of a class or none
        assert_eq!(derive_threshold(vec![2, 2], 3), (0, 0));
        assert_eq!(derive_threshold(vec![2, 2], 4), (3, 4));
    }
}
