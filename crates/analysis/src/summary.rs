//! Time-step summaries: the unit the online (in-situ) analysis operates on.
//!
//! The *full data* method keeps each step's raw arrays in memory; the
//! *bitmaps* method keeps only the compressed indices (Figure 3). The two
//! differ only in how they produce the integers a metric reads, one
//! additive [`CorrelationPartial`] ([`VarSummary::partial`]); each metric
//! is one finisher over it ([`Metric::finish`]). So both methods give
//! identical results under the same binning, at very different memory and
//! compute cost, which is the paper's whole argument.

use crate::emd;
use crate::entropy::{conditional_entropy_from_counts, shannon_entropy_from_counts};
use crate::histogram::{histogram, joint_counts, joint_histogram};
use crate::query::CorrelationPartial;
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

impl Metric {
    /// The metric from the integers [`VarSummary::partial`] gives it (or a
    /// merge of such partials): a pure, fixed-order function of them, so
    /// equal counts give the same float bit for bit.
    ///
    /// # Panics
    /// For an EMD whose binners share no lattice, or a partial counted
    /// under other binnings.
    pub fn finish(self, binner_a: &Binner, binner_b: &Binner, p: &CorrelationPartial) -> f64 {
        match self {
            Metric::ConditionalEntropy => {
                conditional_entropy_from_counts(&p.joint, binner_a.nbins(), binner_b.nbins())
            }
            _ => emd::finish(self == Metric::EmdSpatial, binner_a, binner_b, p),
        }
    }
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
        shannon_entropy_from_counts(&self.counts())
    }

    /// The value histogram under the summary's binning.
    pub fn counts(&self) -> Vec<u64> {
        match self {
            VarSummary::Full { data, binner } => histogram(data, binner),
            VarSummary::Bitmap(idx) => idx.counts().to_vec(),
        }
    }

    /// What `metric` reads of `self` (variable A) against `other`, the
    /// other fields left empty: the joint table for conditional entropy
    /// (the label walk, or one scan of full data); both per-bin counts for
    /// count EMD, and for spatial EMD the diagonal too (one `and_count`
    /// per matched bin pair, or the same single scan). No EMD builds a
    /// joint table.
    ///
    /// # Panics
    /// When mixing a full summary with a bitmap summary (a run uses one
    /// method throughout, as in the paper), as [`joint_counts`] for
    /// conditional entropy, and for a spatial EMD of different lengths or
    /// binners on different lattices.
    pub fn partial(&self, other: &VarSummary, metric: Metric) -> CorrelationPartial {
        use VarSummary::{Bitmap, Full};
        let mut p = CorrelationPartial::zero(0, 0);
        match (self, other) {
            (Full { data: x, binner: a }, Full { data: y, binner: b }) => match metric {
                Metric::ConditionalEntropy => p.joint = joint_histogram(x, y, a, b),
                Metric::Emd => (p.counts_a, p.counts_b) = (histogram(x, a), histogram(y, b)),
                Metric::EmdSpatial => p = emd::scan_spatial(x, y, a, b),
            },
            (Bitmap(a), Bitmap(b)) if metric == Metric::ConditionalEntropy => {
                p.joint = joint_counts(a, b)
            }
            (Bitmap(a), Bitmap(b)) => {
                (p.counts_a, p.counts_b) = (a.counts().to_vec(), b.counts().to_vec());
                if metric == Metric::EmdSpatial {
                    p.diagonal = emd::diagonal(a, b);
                }
            }
            _ => panic!("cannot mix full-data and bitmap summaries in one metric"),
        }
        p
    }

    /// Dissimilarity of `self` (the candidate) from `other` (the previously
    /// selected step): larger means more new information.
    ///
    /// # Panics
    /// As [`VarSummary::partial`] and [`Metric::finish`].
    pub fn metric(&self, other: &VarSummary, metric: Metric) -> f64 {
        metric.finish(self.binner(), other.binner(), &self.partial(other, metric))
    }

    fn binner(&self) -> &Binner {
        match self {
            VarSummary::Full { binner, .. } => binner,
            VarSummary::Bitmap(idx) => idx.binner(),
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
    fn partials_hold_only_what_their_metric_reads() {
        let (a, b) = (wave(2000, 0.0), wave(2000, 1.0));
        let shape = |p: &CorrelationPartial| {
            let lens = [p.joint.len(), p.counts_a.len(), p.counts_b.len()];
            (p.selected, lens, p.diagonal.len())
        };
        for bitmap in [false, true] {
            let summary = |d: &[f64]| match bitmap {
                true => VarSummary::bitmap(d, binner()),
                false => VarSummary::full(d.to_vec(), binner()),
            };
            let (sa, sb) = (summary(&a), summary(&b));
            let ce = sa.partial(&sb, Metric::ConditionalEntropy);
            assert_eq!(shape(&ce), (0, [22 * 22, 0, 0], 0));
            assert_eq!(ce.joint.iter().sum::<u64>(), 2000);
            let emd = sa.partial(&sb, Metric::Emd);
            assert_eq!(shape(&emd), (0, [0, 22, 22], 0));
            let spatial = sa.partial(&sb, Metric::EmdSpatial);
            assert_eq!(shape(&spatial), (0, [0, 22, 22], 22));
            // the diagonal is the joint table's
            let diag: Vec<u64> = (0..22).map(|j| ce.joint[j * 22 + j]).collect();
            assert_eq!(spatial.diagonal, diag);
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
