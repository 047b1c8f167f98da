//! The in-situ sampling baseline (Section 5.5): reduce data by keeping a
//! subset of elements, then analyse the sample.
//!
//! Sampling is cheap to produce and shrinks every later stage, but — unlike
//! bitmaps — it *loses information*: metrics computed on a sample differ
//! from the full-data values, and the paper quantifies that loss with CFPs
//! of per-pair metric differences (Figures 16 and 17). This module provides
//! the samplers and the loss measurements.

use crate::cfp::Cfp;
use crate::summary::{Metric, StepSummary, VarSummary};
use ibis_core::Binner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How elements are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMethod {
    /// Every `k`-th element (systematic sampling) — deterministic, cheap,
    /// preserves coarse spatial structure.
    Stride,
    /// Uniform random subset drawn with the given seed.
    Random(u64),
}

/// Down-samples `data` to (approximately) `percent`% of its elements.
///
/// # Panics
/// Panics unless `0 < percent <= 100`.
pub fn sample(data: &[f64], percent: f64, method: SamplingMethod) -> Vec<f64> {
    assert!(
        percent > 0.0 && percent <= 100.0,
        "percent must be in (0, 100]"
    );
    let keep = ((data.len() as f64 * percent / 100.0).round() as usize)
        .max(1)
        .min(data.len());
    if keep == data.len() {
        return data.to_vec();
    }
    match method {
        SamplingMethod::Stride => {
            // pick indices i*len/keep — exactly `keep` elements, evenly spread
            (0..keep).map(|i| data[i * data.len() / keep]).collect()
        }
        SamplingMethod::Random(seed) => {
            // partial Fisher-Yates over an index vector
            let mut rng = StdRng::seed_from_u64(seed);
            let mut idx: Vec<usize> = (0..data.len()).collect();
            for i in 0..keep {
                let j = rng.gen_range(i..idx.len());
                idx.swap(i, j);
            }
            let mut picked = idx[..keep].to_vec();
            picked.sort_unstable();
            picked.into_iter().map(|i| data[i]).collect()
        }
    }
}

/// Builds the sampled summary of a step: each variable down-sampled and kept
/// as raw (sampled) data, analysed with the full-data metric path.
pub fn sampled_summary(
    step: usize,
    fields: &[(Vec<f64>, Binner)],
    percent: f64,
    method: SamplingMethod,
) -> StepSummary {
    StepSummary {
        step,
        vars: fields
            .iter()
            .map(|(data, binner)| VarSummary::full(sample(data, percent, method), binner.clone()))
            .collect(),
    }
}

/// Per-pair absolute metric differences between full-data steps and their
/// sampled counterparts — the Figure 16 measurement. Returns one value per
/// ordered step pair `(i, j)`, `i < j`.
pub fn pairwise_metric_loss(
    full: &[StepSummary],
    sampled: &[StepSummary],
    metric: Metric,
) -> Vec<f64> {
    assert_eq!(full.len(), sampled.len(), "step counts differ");
    let mut out = Vec::new();
    for i in 0..full.len() {
        for j in i + 1..full.len() {
            let orig = full[j].metric(&full[i], metric);
            let samp = sampled[j].metric(&sampled[i], metric);
            out.push((orig - samp).abs());
        }
    }
    out
}

/// Per-pair *relative* loss `|orig − sample| / orig` (pairs with `orig == 0`
/// are skipped) — the paper's "average information loss" percentages.
pub fn pairwise_relative_loss(
    full: &[StepSummary],
    sampled: &[StepSummary],
    metric: Metric,
) -> Vec<f64> {
    assert_eq!(full.len(), sampled.len(), "step counts differ");
    let mut out = Vec::new();
    for i in 0..full.len() {
        for j in i + 1..full.len() {
            let orig = full[j].metric(&full[i], metric);
            if orig.abs() < 1e-12 {
                continue;
            }
            let samp = sampled[j].metric(&sampled[i], metric);
            out.push(((orig - samp) / orig).abs());
        }
    }
    out
}

/// CFP of the absolute per-pair losses at a given sampling level.
pub fn loss_cfp(full: &[StepSummary], sampled: &[StepSummary], metric: Metric) -> Cfp {
    Cfp::from_values(pairwise_metric_loss(full, sampled, metric))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(n: usize) -> Vec<(Vec<f64>, Binner)> {
        (0..n)
            .map(|s| {
                let data: Vec<f64> = (0..3000)
                    .map(|i| (i as f64 * 0.01 + s as f64 * 0.5).sin() * 8.0)
                    .collect();
                (data, Binner::fixed_width(-9.0, 9.0, 18))
            })
            .collect()
    }

    fn full_summaries(fields: &[(Vec<f64>, Binner)]) -> Vec<StepSummary> {
        fields
            .iter()
            .enumerate()
            .map(|(s, (d, b))| StepSummary {
                step: s,
                vars: vec![VarSummary::full(d.clone(), b.clone())],
            })
            .collect()
    }

    #[test]
    fn sample_sizes() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(sample(&data, 30.0, SamplingMethod::Stride).len(), 300);
        assert_eq!(sample(&data, 1.0, SamplingMethod::Random(7)).len(), 10);
        assert_eq!(sample(&data, 100.0, SamplingMethod::Stride).len(), 1000);
        // never empty
        assert_eq!(sample(&data[..3], 1.0, SamplingMethod::Stride).len(), 1);
    }

    #[test]
    fn stride_sample_is_deterministic_and_spread() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = sample(&data, 10.0, SamplingMethod::Stride);
        assert_eq!(
            s,
            vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]
        );
    }

    #[test]
    fn random_sample_reproducible_by_seed() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sin()).collect();
        let a = sample(&data, 20.0, SamplingMethod::Random(42));
        let b = sample(&data, 20.0, SamplingMethod::Random(42));
        let c = sample(&data, 20.0, SamplingMethod::Random(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "percent must be")]
    fn rejects_zero_percent() {
        let _ = sample(&[1.0], 0.0, SamplingMethod::Stride);
    }

    #[test]
    fn sampling_loses_information_and_more_so_at_lower_levels() {
        // The Figure 16 effect: smaller sample ⇒ larger loss.
        let fields = steps(6);
        let full = full_summaries(&fields);
        let mut means = Vec::new();
        for pct in [50.0, 15.0, 2.0] {
            let sampled: Vec<StepSummary> = (0..fields.len())
                .map(|s| sampled_summary(s, &fields[s..s + 1], pct, SamplingMethod::Stride))
                .collect();
            let losses = pairwise_relative_loss(&full, &sampled, Metric::ConditionalEntropy);
            assert!(!losses.is_empty());
            means.push(losses.iter().sum::<f64>() / losses.len() as f64);
        }
        assert!(
            means[0] < means[2],
            "50% loss {} should be below 2% loss {}",
            means[0],
            means[2]
        );
        assert!(means[0] > 0.0, "sampling must lose something");
    }

    #[test]
    fn full_sample_has_zero_loss() {
        let fields = steps(4);
        let full = full_summaries(&fields);
        let sampled: Vec<StepSummary> = (0..fields.len())
            .map(|s| sampled_summary(s, &fields[s..s + 1], 100.0, SamplingMethod::Stride))
            .collect();
        let losses = pairwise_metric_loss(&full, &sampled, Metric::ConditionalEntropy);
        assert!(losses.iter().all(|&l| l == 0.0));
        let cfp = loss_cfp(&full, &sampled, Metric::ConditionalEntropy);
        assert_eq!(cfp.mean(), 0.0);
    }
}
