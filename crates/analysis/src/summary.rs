//! Time-step summaries: the unit the online (in-situ) analysis operates on.
//!
//! The *full data* method keeps each step's raw arrays in memory; the
//! *bitmaps* method keeps only the compressed indices (Figure 3). Both
//! support the same correlation metrics — with identical results under the
//! same binning — but at very different memory and compute cost, which is
//! the paper's whole argument.

use crate::emd::{
    emd_counts_full, emd_counts_full_aligned, emd_counts_index, emd_counts_index_aligned,
    emd_spatial_full, emd_spatial_full_aligned, emd_spatial_index, emd_spatial_index_aligned,
};
use crate::entropy::{
    conditional_entropy_full, conditional_entropy_index, shannon_entropy_from_counts,
    shannon_entropy_full, shannon_entropy_index,
};
use ibis_core::{Binner, BitmapIndex};
use ibis_obs::LazyCounter;

static OBS_STEP_METRIC_EVALS: LazyCounter = LazyCounter::new("analysis.metric.step_evals");

/// The correlation metric used to compare two time-steps (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `H(candidate | selected)` — conditional entropy (Heat3D experiments).
    ConditionalEntropy,
    /// Count-based Earth Mover's Distance.
    Emd,
    /// Spatial (XOR-based) Earth Mover's Distance (LULESH experiments).
    EmdSpatial,
}

/// Summary of one variable of one time-step.
#[derive(Debug, Clone)]
pub enum VarSummary {
    /// The raw array (full-data method) plus the binning scale used for
    /// metric computation.
    Full {
        /// The retained raw values.
        data: Vec<f64>,
        /// Binning scale used when computing metrics.
        binner: Binner,
    },
    /// The compressed bitmap index (bitmaps method); the raw array has been
    /// discarded.
    Bitmap(BitmapIndex),
}

impl VarSummary {
    /// Summarizes `data` as raw data (full-data method).
    pub fn full(data: Vec<f64>, binner: Binner) -> Self {
        VarSummary::Full { data, binner }
    }

    /// Summarizes `data` as a bitmap index and drops the data.
    pub fn bitmap(data: &[f64], binner: Binner) -> Self {
        VarSummary::Bitmap(BitmapIndex::build(data, binner))
    }

    /// Bytes this summary keeps resident — raw array vs compressed bitmaps
    /// (the Figure 11 quantity).
    pub fn size_bytes(&self) -> usize {
        match self {
            VarSummary::Full { data, .. } => data.len() * 8,
            VarSummary::Bitmap(idx) => idx.size_bytes(),
        }
    }

    /// Shannon entropy of this variable (the importance measure).
    pub fn entropy(&self) -> f64 {
        match self {
            VarSummary::Full { data, binner } => shannon_entropy_full(data, binner),
            VarSummary::Bitmap(idx) => shannon_entropy_index(idx),
        }
    }

    /// The value histogram under the summary's binning.
    pub fn counts(&self) -> Vec<u64> {
        match self {
            VarSummary::Full { data, binner } => crate::histogram::histogram(data, binner),
            VarSummary::Bitmap(idx) => idx.counts().to_vec(),
        }
    }

    /// Dissimilarity of `self` (the candidate) from `other` (the previously
    /// selected step): larger means more new information. Both summaries
    /// must be of the same kind.
    ///
    /// # Panics
    /// Panics when mixing a full summary with a bitmap summary — a run uses
    /// one method throughout, as in the paper — and, for conditional
    /// entropy, on bitmap summaries whose bins do not partition their rows
    /// ([`crate::histogram::joint_counts`]).
    pub fn metric(&self, other: &VarSummary, metric: Metric) -> f64 {
        match (self, other) {
            (
                VarSummary::Full {
                    data: a,
                    binner: ba,
                },
                VarSummary::Full {
                    data: b,
                    binner: bb,
                },
            ) => match metric {
                Metric::ConditionalEntropy => conditional_entropy_full(a, b, ba, bb),
                Metric::Emd if ba == bb => emd_counts_full(a, b, ba),
                Metric::Emd => emd_counts_full_aligned(a, b, ba, bb)
                    .expect("EMD needs a shared binning lattice"),
                Metric::EmdSpatial if ba == bb => emd_spatial_full(a, b, ba),
                Metric::EmdSpatial => emd_spatial_full_aligned(a, b, ba, bb)
                    .expect("EMD needs a shared binning lattice"),
            },
            (VarSummary::Bitmap(a), VarSummary::Bitmap(b)) => match metric {
                Metric::ConditionalEntropy => conditional_entropy_index(a, b),
                Metric::Emd if a.binner() == b.binner() => emd_counts_index(a, b),
                Metric::Emd => {
                    emd_counts_index_aligned(a, b).expect("EMD needs a shared binning lattice")
                }
                Metric::EmdSpatial if a.binner() == b.binner() => emd_spatial_index(a, b),
                Metric::EmdSpatial => {
                    emd_spatial_index_aligned(a, b).expect("EMD needs a shared binning lattice")
                }
            },
            _ => panic!("cannot mix full-data and bitmap summaries in one metric"),
        }
    }
}

/// Summary of one complete time-step (all its variables).
#[derive(Debug, Clone)]
pub struct StepSummary {
    /// Time-step number.
    pub step: usize,
    /// One summary per output variable (Heat3D: 1; mini-LULESH: 12).
    pub vars: Vec<VarSummary>,
}

impl StepSummary {
    /// Resident bytes across all variables.
    pub fn size_bytes(&self) -> usize {
        self.vars.iter().map(VarSummary::size_bytes).sum()
    }

    /// Total entropy across variables (importance of the step).
    pub fn entropy(&self) -> f64 {
        self.vars.iter().map(VarSummary::entropy).sum()
    }

    /// Dissimilarity from another step: per-variable metrics summed (the
    /// paper analyses all 12 LULESH arrays together).
    pub fn metric(&self, other: &StepSummary, metric: Metric) -> f64 {
        OBS_STEP_METRIC_EVALS.inc();
        assert_eq!(
            self.vars.len(),
            other.vars.len(),
            "steps have different variables"
        );
        self.vars
            .iter()
            .zip(&other.vars)
            .map(|(a, b)| a.metric(b, metric))
            .sum()
    }
}

/// Entropy straight from a precomputed histogram (shared helper).
pub fn entropy_of_counts(counts: &[u64]) -> f64 {
    shannon_entropy_from_counts(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.05 + phase).sin() * 10.0)
            .collect()
    }

    fn binner() -> Binner {
        Binner::fixed_width(-11.0, 11.0, 22)
    }

    #[test]
    fn bitmap_summary_is_smaller() {
        let data = wave(50_000, 0.0);
        let full = VarSummary::full(data.clone(), binner());
        let bm = VarSummary::bitmap(&data, binner());
        assert!(
            bm.size_bytes() * 2 < full.size_bytes(),
            "bitmap {} vs full {}",
            bm.size_bytes(),
            full.size_bytes()
        );
    }

    #[test]
    fn metrics_agree_between_kinds() {
        let a = wave(5000, 0.0);
        let b = wave(5000, 1.0);
        let fa = VarSummary::full(a.clone(), binner());
        let fb = VarSummary::full(b.clone(), binner());
        let ba = VarSummary::bitmap(&a, binner());
        let bb = VarSummary::bitmap(&b, binner());
        for m in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(fa.metric(&fb, m), ba.metric(&bb, m), "{m:?}");
        }
        assert_eq!(fa.entropy(), ba.entropy());
        assert_eq!(fa.counts(), ba.counts());
    }

    #[test]
    #[should_panic(expected = "cannot mix")]
    fn mixed_kinds_panic() {
        let a = wave(100, 0.0);
        let f = VarSummary::full(a.clone(), binner());
        let b = VarSummary::bitmap(&a, binner());
        let _ = f.metric(&b, Metric::Emd);
    }

    #[test]
    fn multi_var_metric_sums() {
        let a1 = wave(1000, 0.0);
        let a2 = wave(1000, 0.5);
        let b1 = wave(1000, 1.0);
        let b2 = wave(1000, 1.5);
        let sa = StepSummary {
            step: 0,
            vars: vec![
                VarSummary::bitmap(&a1, binner()),
                VarSummary::bitmap(&a2, binner()),
            ],
        };
        let sb = StepSummary {
            step: 1,
            vars: vec![
                VarSummary::bitmap(&b1, binner()),
                VarSummary::bitmap(&b2, binner()),
            ],
        };
        let total = sa.metric(&sb, Metric::Emd);
        let v0 = sa.vars[0].metric(&sb.vars[0], Metric::Emd);
        let v1 = sa.vars[1].metric(&sb.vars[1], Metric::Emd);
        assert_eq!(total, v0 + v1);
    }

    #[test]
    fn metrics_with_per_step_binners_still_agree_between_kinds() {
        // per-step anchored binners: different nbins, same lattice
        let a = wave(3000, 0.0);
        let b: Vec<f64> = wave(3000, 1.0).iter().map(|v| v * 1.5 + 4.0).collect();
        let ba = ibis_core::Binner::fit_precision_anchored(&a, 1);
        let bb = ibis_core::Binner::fit_precision_anchored(&b, 1);
        assert_ne!(ba.nbins(), bb.nbins());
        let fa = VarSummary::full(a.clone(), ba.clone());
        let fb = VarSummary::full(b.clone(), bb.clone());
        let bma = VarSummary::bitmap(&a, ba);
        let bmb = VarSummary::bitmap(&b, bb);
        for m in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(fa.metric(&fb, m), bma.metric(&bmb, m), "{m:?}");
        }
    }

    #[test]
    fn self_metric_is_zero_for_emd() {
        let a = wave(500, 0.3);
        let s = VarSummary::bitmap(&a, binner());
        assert_eq!(s.metric(&s, Metric::Emd), 0.0);
        assert_eq!(s.metric(&s, Metric::EmdSpatial), 0.0);
        assert!(s.metric(&s, Metric::ConditionalEntropy).abs() < 1e-10);
    }
}
