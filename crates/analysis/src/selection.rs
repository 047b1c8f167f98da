//! Importance-driven time-steps selection (Section 3): pick `K` of `N`
//! time-steps that best represent the evolution of the phenomenon.
//!
//! The greedy algorithm of Wang et al. (as implemented by the paper):
//! partition the steps into intervals, and in each interval keep the step
//! with minimum correlation to (maximum dissimilarity from) the previously
//! selected step. Two partitioners are provided — fixed-length and
//! information-volume — plus the dynamic-programming selector of Tong et
//! al. as the extension the paper mentions but does not implement.

use crate::summary::{Metric, StepSummary};
use ibis_obs::{LazyCounter, LazyHistogram};
use rayon::prelude::*;
use std::ops::Range;

static OBS_SELECT_RUNS: LazyCounter = LazyCounter::new("analysis.select.runs");
static OBS_SELECT_NS: LazyHistogram =
    LazyHistogram::new("analysis.select.ns", ibis_obs::TIME_NS_BOUNDS);

/// How to slice the time axis into intervals (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Every interval holds the same number of steps (the paper's
    /// evaluation setting).
    FixedLength,
    /// Intervals hold equal accumulated importance (Shannon entropy).
    InfoVolume,
}

/// The outcome of a selection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Selected step indices in increasing order; always starts with 0.
    pub selected: Vec<usize>,
}

/// Splits indices `1..n` into `parts` non-empty contiguous intervals with
/// (approximately) equal `weights` totals; `weights[i]` is the importance of
/// step `i` (entry 0 is ignored — step 0 is always selected on its own).
pub fn weighted_intervals(weights: &[f64], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    assert!(
        parts >= 1 && parts <= n.saturating_sub(1),
        "cannot cut {n} steps into {parts} parts"
    );
    let total: f64 = weights[1..].iter().sum();
    let target = total / parts as f64;
    let mut out = Vec::with_capacity(parts);
    let mut start = 1usize;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate().skip(1) {
        acc += w;
        let remaining_intervals = parts - out.len();
        let remaining_steps = n - i - 1;
        // close the interval when the quota is met, but keep enough steps
        // for the remaining intervals and never exceed the interval budget
        let must_close = remaining_steps < remaining_intervals;
        if (acc >= target && out.len() + 1 < parts) || must_close {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0.0;
            if out.len() == parts {
                break;
            }
        }
    }
    if out.len() < parts {
        out.push(start..n);
    }
    debug_assert_eq!(out.len(), parts);
    out
}

/// Equal-length split of indices `1..n` into `parts` intervals.
pub fn fixed_intervals(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(
        parts >= 1 && parts <= n.saturating_sub(1),
        "cannot cut {n} steps into {parts} parts"
    );
    let m = n - 1; // steps 1..n
    let base = m / parts;
    let extra = m % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 1usize;
    for p in 0..parts {
        let take = base + usize::from(p < extra);
        out.push(start..start + take);
        start += take;
    }
    out
}

/// Greedy selection (Figure 3): step 0 seeds the chain; each interval
/// contributes the step with the largest `metric(candidate, previous)`.
///
/// Candidate metrics within an interval are independent, so they are
/// evaluated on the rayon pool and collected in interval order; the argmax
/// then runs serially over that ordered table with the same last-maximum
/// tie-breaking as [`Iterator::max_by`], so the selected set is
/// byte-identical at every pool width (tested against a one-thread pool).
///
/// Returns `k` indices in increasing order.
///
/// # Panics
/// Panics if `k` is 0 or exceeds the step count.
pub fn select_greedy(
    steps: &[StepSummary],
    k: usize,
    metric: Metric,
    partitioning: Partitioning,
) -> Selection {
    OBS_SELECT_RUNS.inc();
    let _span = OBS_SELECT_NS.span();
    let n = steps.len();
    assert!(k >= 1 && k <= n, "cannot select {k} of {n} steps");
    let mut selected = vec![0usize];
    if k == 1 || n == 1 {
        return Selection { selected };
    }
    let intervals = partition(steps, k, partitioning);
    let mut prev = 0usize;
    for interval in intervals {
        let scores: Vec<f64> = interval
            .clone()
            .into_par_iter()
            .map(|i| steps[i].metric(&steps[prev], metric))
            .collect();
        let best = interval.start + argmax_last(&scores);
        selected.push(best);
        prev = best;
    }
    Selection { selected }
}

/// Shared interval computation for the greedy selectors.
fn partition(steps: &[StepSummary], k: usize, partitioning: Partitioning) -> Vec<Range<usize>> {
    let n = steps.len();
    match partitioning {
        Partitioning::FixedLength => fixed_intervals(n, k - 1),
        Partitioning::InfoVolume => {
            let weights: Vec<f64> = steps.iter().map(StepSummary::entropy).collect();
            weighted_intervals(&weights, k - 1)
        }
    }
}

/// Index of the maximum score, taking the **last** of equal maxima —
/// exactly [`Iterator::max_by`]'s tie-breaking (incomparable pairs compare
/// equal).
fn argmax_last(scores: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, s) in scores.iter().enumerate().skip(1) {
        if scores[best]
            .partial_cmp(s)
            .unwrap_or(std::cmp::Ordering::Equal)
            != std::cmp::Ordering::Greater
        {
            best = i;
        }
    }
    best
}

/// Dynamic-programming selection (Tong et al.): maximizes the *total*
/// dissimilarity along the selected chain instead of greedily maximizing
/// each link. O(n²·k) metric evaluations — the efficiency cost the paper
/// cites for preferring the greedy method; bitmaps make each evaluation
/// cheap enough to afford it.
pub fn select_dp(steps: &[StepSummary], k: usize, metric: Metric) -> Selection {
    OBS_SELECT_RUNS.inc();
    let _span = OBS_SELECT_NS.span();
    let n = steps.len();
    assert!(k >= 1 && k <= n, "cannot select {k} of {n} steps");
    if k == 1 {
        return Selection { selected: vec![0] };
    }
    // pairwise dissimilarity cache: pair[i][p] = metric(steps[i], steps[p]).
    // Rows are independent, so the O(n²) metric evaluations — the dominant
    // cost — run on the rayon pool; the ordered collect keeps the table
    // (and therefore the DP) identical to a serial fill.
    let pair: Vec<Vec<f64>> = (0..n)
        .into_par_iter()
        .map(|i| (0..i).map(|p| steps[i].metric(&steps[p], metric)).collect())
        .collect();
    const NEG: f64 = f64::NEG_INFINITY;
    // dp[j][i]: best chain value selecting j+1 steps, first = 0, last = i
    let mut dp = vec![vec![NEG; n]; k];
    let mut from = vec![vec![usize::MAX; n]; k];
    dp[0][0] = 0.0;
    for j in 1..k {
        for i in j..n {
            for p in (j - 1)..i {
                if dp[j - 1][p] > NEG {
                    let cand = dp[j - 1][p] + pair[i][p];
                    if cand > dp[j][i] {
                        dp[j][i] = cand;
                        from[j][i] = p;
                    }
                }
            }
        }
    }
    let mut last = (k - 1..n)
        .max_by(|&a, &b| dp[k - 1][a].partial_cmp(&dp[k - 1][b]).unwrap())
        .expect("non-empty range");
    let mut selected = Vec::with_capacity(k);
    for j in (0..k).rev() {
        selected.push(last);
        if j > 0 {
            last = from[j][last];
        }
    }
    selected.reverse();
    Selection { selected }
}

/// Total chain dissimilarity of a selection (the DP objective) — useful for
/// comparing selectors.
pub fn chain_score(steps: &[StepSummary], selected: &[usize], metric: Metric) -> f64 {
    selected
        .windows(2)
        .map(|w| steps[w[1]].metric(&steps[w[0]], metric))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::VarSummary;
    use ibis_core::Binner;

    fn binner() -> Binner {
        Binner::fixed_width(-1.1, 1.1, 16)
    }

    /// Steps drifting smoothly except for abrupt regime changes at given
    /// steps — a good selector must land near the changes.
    fn make_steps(n: usize, bitmap: bool) -> Vec<StepSummary> {
        (0..n)
            .map(|s| {
                let phase = if s < n / 2 { 0.0 } else { 2.0 };
                let data: Vec<f64> = (0..600)
                    .map(|i| ((i as f64 * 0.03) + phase + s as f64 * 0.01).sin())
                    .collect();
                let var = if bitmap {
                    VarSummary::bitmap(&data, binner())
                } else {
                    VarSummary::full(data, binner())
                };
                StepSummary {
                    step: s,
                    vars: vec![var],
                }
            })
            .collect()
    }

    #[test]
    fn fixed_intervals_cover_1_to_n() {
        for (n, parts) in [(10usize, 3usize), (101, 24), (5, 4), (2, 1)] {
            let iv = fixed_intervals(n, parts);
            assert_eq!(iv.len(), parts);
            assert_eq!(iv[0].start, 1);
            assert_eq!(iv.last().unwrap().end, n);
            for w in iv.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert!(!w[0].is_empty());
            }
        }
    }

    #[test]
    fn weighted_intervals_balance_mass() {
        let mut weights = vec![1.0; 21];
        // pile importance onto the early steps
        for w in weights.iter_mut().take(6) {
            *w = 10.0;
        }
        let iv = weighted_intervals(&weights, 4);
        assert_eq!(iv.len(), 4);
        assert_eq!(iv[0].start, 1);
        assert_eq!(iv.last().unwrap().end, 21);
        // the first interval should be short (high density of importance)
        assert!(iv[0].len() < iv.last().unwrap().len());
        for r in &iv {
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn weighted_intervals_all_equal_weights_look_fixed() {
        let weights = vec![1.0; 13];
        let iv = weighted_intervals(&weights, 3);
        let lens: Vec<usize> = iv.iter().map(|r| r.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 12);
        assert!(lens.iter().all(|&l| l == 4), "{lens:?}");
    }

    #[test]
    fn greedy_selects_k_increasing_starting_at_zero() {
        let steps = make_steps(20, true);
        for k in [1usize, 2, 5, 10, 20] {
            let sel = select_greedy(&steps, k, Metric::Emd, Partitioning::FixedLength);
            assert_eq!(sel.selected.len(), k);
            assert_eq!(sel.selected[0], 0);
            assert!(sel.selected.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn greedy_bitmap_equals_greedy_full() {
        // The paper's exactness claim carried to the selection level: the
        // two methods pick the identical step set.
        let full = make_steps(16, false);
        let bm = make_steps(16, true);
        for metric in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
            for part in [Partitioning::FixedLength, Partitioning::InfoVolume] {
                let a = select_greedy(&full, 5, metric, part);
                let b = select_greedy(&bm, 5, metric, part);
                assert_eq!(a, b, "{metric:?} {part:?}");
            }
        }
    }

    #[test]
    fn greedy_prefers_regime_change() {
        // With one extra pick beyond the seed, the selector should cross
        // into the second regime (max dissimilarity from step 0).
        let steps = make_steps(20, true);
        let sel = select_greedy(&steps, 2, Metric::EmdSpatial, Partitioning::FixedLength);
        assert!(
            sel.selected[1] >= 10,
            "picked {} — should be in the changed regime",
            sel.selected[1]
        );
    }

    #[test]
    fn parallel_and_serial_selectors_identical() {
        let steps = make_steps(18, true);
        let pool = |threads| rayon::ThreadPoolBuilder::new().num_threads(threads).build();
        let (wide, one) = (pool(4).unwrap(), pool(1).unwrap());
        for metric in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
            for part in [Partitioning::FixedLength, Partitioning::InfoVolume] {
                for k in [2usize, 5, 9] {
                    let greedy = || select_greedy(&steps, k, metric, part);
                    assert_eq!(
                        wide.install(greedy),
                        one.install(greedy),
                        "{metric:?} {part:?} k={k}"
                    );
                }
            }
            let dp = || select_dp(&steps, 5, metric);
            assert_eq!(wide.install(dp), one.install(dp), "{metric:?} dp");
        }
    }

    #[test]
    fn dp_at_least_as_good_as_greedy() {
        let steps = make_steps(12, true);
        let metric = Metric::Emd;
        let greedy = select_greedy(&steps, 4, metric, Partitioning::FixedLength);
        let dp = select_dp(&steps, 4, metric);
        assert_eq!(dp.selected.len(), 4);
        assert_eq!(dp.selected[0], 0);
        let gs = chain_score(&steps, &greedy.selected, metric);
        let ds = chain_score(&steps, &dp.selected, metric);
        assert!(ds >= gs - 1e-9, "dp {ds} must be >= greedy {gs}");
    }

    #[test]
    fn select_all_steps() {
        let steps = make_steps(6, true);
        let sel = select_greedy(&steps, 6, Metric::Emd, Partitioning::FixedLength);
        assert_eq!(sel.selected, vec![0, 1, 2, 3, 4, 5]);
        let dp = select_dp(&steps, 6, Metric::Emd);
        assert_eq!(dp.selected, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn rejects_k_zero() {
        let steps = make_steps(3, true);
        let _ = select_greedy(&steps, 0, Metric::Emd, Partitioning::FixedLength);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn rejects_k_too_large() {
        let steps = make_steps(3, true);
        let _ = select_dp(&steps, 4, Metric::Emd);
    }
}
