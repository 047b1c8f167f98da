//! Order statistics over durations.
//!
//! Every series the harness reduces is a *duration* (lower is better);
//! rates are derived from the reduced duration afterwards, so one set of
//! rules covers all metrics. The reported timings are [`floor`]s; the
//! probe-gated median is the noise record printed next to them.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (any order).
///
/// # Panics
/// Panics on an empty slice — every caller has at least one round.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest of identical fixed-work repeats — the undisturbed duration,
/// since interference from outside the program only ever adds time.
pub fn floor(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// How a gated statistic was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gated {
    /// The reduced value.
    pub value: f64,
    /// Rounds that passed the contention gate.
    pub clean: usize,
    /// Whether too few rounds were clean and the best-quartile fallback
    /// over *all* rounds was used instead.
    pub fallback: bool,
}

/// Fewest clean rounds a median is taken over; below this the fallback
/// applies.
pub const MIN_CLEAN: usize = 6;

/// The gated statistic of one series: the median over clean rounds, or —
/// with fewer than [`MIN_CLEAN`] of them — the best quartile over all
/// rounds (contention only ever slows a round down, so the fast quartile
/// is the closest stand-in for an undisturbed one).
pub fn gated_median(durations: &[f64], clean: &[bool]) -> Gated {
    let kept = clean_only(durations, clean);
    if kept.len() >= MIN_CLEAN {
        Gated {
            value: median(&kept),
            clean: kept.len(),
            fallback: false,
        }
    } else {
        Gated {
            value: quantile(durations, 0.25),
            clean: kept.len(),
            fallback: true,
        }
    }
}

fn clean_only(durations: &[f64], clean: &[bool]) -> Vec<f64> {
    durations
        .iter()
        .zip(clean)
        .filter(|(_, &c)| c)
        .map(|(&d, _)| d)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    /// A two-mode series: `slow_share` of the rounds run 1.5× slower and
    /// the gate flags exactly those. The gated statistic must stay within
    /// 3 % of the undisturbed duration for any slow share from 30 % to
    /// 70 %, while the plain median flips modes.
    #[test]
    fn gated_median_ignores_the_slow_mode() {
        for (seed, slow_share) in [(1u64, 0.3), (2, 0.5), (3, 0.7)] {
            let mut rng = Rng::new(seed);
            let rounds = 24;
            let mut durations = Vec::new();
            let mut clean = Vec::new();
            for r in 0..rounds {
                let slow = (r as f64 + 0.5) / rounds as f64 > 1.0 - slow_share;
                let jitter = 1.0 + 0.02 * (rng.unit() - 0.5);
                durations.push(0.2 * jitter * if slow { 1.5 } else { 1.0 });
                clean.push(!slow);
            }
            let g = gated_median(&durations, &clean);
            assert!(!g.fallback, "slow share {slow_share}");
            assert!(
                (g.value / 0.2 - 1.0).abs() < 0.03,
                "slow share {slow_share}: gated {}",
                g.value
            );
            if slow_share > 0.5 {
                assert!(median(&durations) > 0.2 * 1.4, "plain median should flip");
            }
        }
    }

    #[test]
    fn fallback_takes_the_best_quartile() {
        // Only two clean rounds: fall back to the fast quartile of all.
        let durations = [1.5, 1.5, 1.0, 1.5, 1.0, 1.5, 1.5, 1.0];
        let clean = [false, false, true, false, true, false, false, false];
        let g = gated_median(&durations, &clean);
        assert!(g.fallback);
        assert_eq!(g.clean, 2);
        assert!((g.value - 1.0).abs() < 0.13);
    }
}
