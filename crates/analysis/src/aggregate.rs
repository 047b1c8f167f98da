//! Approximate aggregation over bitmaps — the prior-work capability the
//! paper builds on ("we demonstrated that approximate data aggregation …
//! can be supported using bitmaps", Section 2.2).
//!
//! After the raw data is discarded, only the binning survives; aggregates
//! are therefore computed from bin counts with each element approximated by
//! its bin's midpoint. Every estimate comes with a *hard error bound*
//! derived from the bin widths: the true value of an element differs from
//! its bin midpoint by at most half the bin width, so sums/means carry a
//! guaranteed interval.

use crate::entropy::JointCells;
use ibis_core::{Binner, BitmapIndex};

/// An aggregate estimate with its guaranteed absolute error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Midpoint-based estimate.
    pub value: f64,
    /// The true value lies within `value ± bound`.
    pub bound: f64,
}

impl Estimate {
    /// `true` if `x` falls inside the guaranteed interval.
    pub fn contains(&self, x: f64) -> bool {
        (x - self.value).abs() <= self.bound + 1e-9
    }
}

/// Number of indexed elements (exact — no binning error).
pub fn count(index: &BitmapIndex) -> u64 {
    index.len()
}

/// Approximate sum of the indexed variable.
pub fn sum(index: &BitmapIndex) -> Estimate {
    sum_from_bin_counts(index.binner(), index.counts())
}

/// The sum finisher: per-bin selection counts to a bounded estimate. Pure
/// in the integer counts and the binning scale, so per-shard counts summed
/// at a coordinator and fed through this produce the exact float sequence
/// an unsharded sum over the same selection computes.
pub fn sum_from_bin_counts(binner: &Binner, counts: &[u64]) -> Estimate {
    let mut value = 0.0;
    let mut bound = 0.0;
    for (b, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let (lo, hi) = binner.bin_range(b);
        value += c as f64 * (lo + hi) / 2.0;
        bound += c as f64 * (hi - lo) / 2.0;
    }
    Estimate { value, bound }
}

/// Approximate mean of the indexed variable; `None` for an empty index.
pub fn mean(index: &BitmapIndex) -> Option<Estimate> {
    mean_from_sum(sum(index), index.len())
}

/// The mean finisher: a sum estimate over `n` selected elements. `None`
/// when nothing is selected.
pub fn mean_from_sum(sum: Estimate, n: u64) -> Option<Estimate> {
    (n > 0).then(|| Estimate {
        value: sum.value / n as f64,
        bound: sum.bound / n as f64,
    })
}

/// Approximate minimum: the low edge of the first non-empty bin (the true
/// minimum lies inside that bin).
pub fn min(index: &BitmapIndex) -> Option<Estimate> {
    let b = index.counts().iter().position(|&c| c > 0)?;
    let (lo, hi) = index.binner().bin_range(b);
    Some(Estimate {
        value: (lo + hi) / 2.0,
        bound: (hi - lo) / 2.0,
    })
}

/// Approximate maximum: the high edge of the last non-empty bin.
pub fn max(index: &BitmapIndex) -> Option<Estimate> {
    let b = index.counts().iter().rposition(|&c| c > 0)?;
    let (lo, hi) = index.binner().bin_range(b);
    Some(Estimate {
        value: (lo + hi) / 2.0,
        bound: (hi - lo) / 2.0,
    })
}

/// Approximate variance (population), from bin midpoints. The bound is
/// first-order: midpoint displacement of up to `w/2` shifts each squared
/// deviation by at most `w · (|dev| + w/4)`.
pub fn variance(index: &BitmapIndex) -> Option<Estimate> {
    let n = index.len();
    if n == 0 {
        return None;
    }
    let m = mean(index)?.value;
    let mut var = 0.0;
    let mut bound = 0.0;
    for (b, &c) in index.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        let (lo, hi) = index.binner().bin_range(b);
        let mid = (lo + hi) / 2.0;
        let w = hi - lo;
        let dev = mid - m;
        var += c as f64 * dev * dev;
        bound += c as f64 * (w * dev.abs() + w * w / 4.0);
    }
    Some(Estimate {
        value: var / n as f64,
        bound: bound / n as f64,
    })
}

/// Approximate Pearson correlation of two indexed variables, from the
/// joint bin counts with midpoint values. Returns `None` when either
/// variable is (approximately) constant.
pub fn pearson(a: &BitmapIndex, b: &BitmapIndex) -> Option<f64> {
    let joint = crate::histogram::joint_counts(a, b);
    pearson_from_joint_counts(a.binner(), b.binner(), &joint, a.len())
}

/// The Pearson finisher: joint `(bin_a, bin_b)` counts to an approximate
/// correlation with bin-midpoint values. Pure in the integer counts, the
/// two binning scales, and `n`, with a fixed accumulation order — so a
/// coordinator summing per-shard joint tables reproduces the unsharded
/// correlation float for float.
pub fn pearson_from_joint_counts(
    binner_a: &Binner,
    binner_b: &Binner,
    joint: &[u64],
    n: u64,
) -> Option<f64> {
    let cells = JointCells::scan(joint, binner_a.nbins(), binner_b.nbins());
    pearson_from_cells(binner_a, binner_b, &cells, n)
}

/// [`pearson_from_joint_counts`] over a table already scanned: one term per
/// non-zero cell, in row-major order.
pub(crate) fn pearson_from_cells(
    binner_a: &Binner,
    binner_b: &Binner,
    cells: &JointCells,
    n: u64,
) -> Option<f64> {
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mid = |binner: &Binner, bin: usize| {
        let (lo, hi) = binner.bin_range(bin);
        (lo + hi) / 2.0
    };
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(j, k, c) in &cells.cells {
        let (c, x, y) = (c as f64, mid(binner_a, j), mid(binner_b, k));
        sx += c * x;
        sy += c * y;
        sxx += c * x * x;
        syy += c * y * y;
        sxy += c * x * y;
    }
    let cov = sxy / nf - (sx / nf) * (sy / nf);
    let vx = sxx / nf - (sx / nf).powi(2);
    let vy = syy / nf - (sy / nf).powi(2);
    if vx <= 1e-12 || vy <= 1e-12 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::Binner;

    fn linear_data(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / 10.0).collect()
    }

    #[test]
    fn count_is_exact() {
        let data = linear_data(777);
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 80.0, 40));
        assert_eq!(count(&idx), 777);
    }

    #[test]
    fn sum_and_mean_bounds_hold() {
        let data = linear_data(1000);
        let true_sum: f64 = data.iter().sum();
        let true_mean = true_sum / 1000.0;
        for nbins in [5usize, 50, 500] {
            let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 100.0, nbins));
            let s = sum(&idx);
            assert!(s.contains(true_sum), "nbins={nbins}: {s:?} vs {true_sum}");
            let m = mean(&idx).unwrap();
            assert!(m.contains(true_mean), "nbins={nbins}: {m:?} vs {true_mean}");
        }
    }

    #[test]
    fn finer_bins_tighter_bounds() {
        let data = linear_data(1000);
        let coarse = sum(&BitmapIndex::build(
            &data,
            Binner::fixed_width(0.0, 100.0, 5),
        ));
        let fine = sum(&BitmapIndex::build(
            &data,
            Binner::fixed_width(0.0, 100.0, 200),
        ));
        assert!(fine.bound < coarse.bound / 10.0);
    }

    #[test]
    fn min_max_bracket_truth() {
        let data = vec![3.7, 9.2, 5.5, 4.1];
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 10.0, 20));
        assert!(min(&idx).unwrap().contains(3.7));
        assert!(max(&idx).unwrap().contains(9.2));
        let empty = BitmapIndex::build(&[], Binner::fixed_width(0.0, 1.0, 2));
        assert!(min(&empty).is_none());
        assert!(max(&empty).is_none());
        assert!(mean(&empty).is_none());
    }

    #[test]
    fn variance_bound_holds() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 17) % 90) as f64 / 3.0).collect();
        let m = data.iter().sum::<f64>() / 500.0;
        let true_var = data.iter().map(|v| (v - m).powi(2)).sum::<f64>() / 500.0;
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 30.0, 60));
        let v = variance(&idx).unwrap();
        assert!(v.contains(true_var), "{v:?} vs {true_var}");
    }

    #[test]
    fn pearson_tracks_true_correlation() {
        let a: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.01).sin() * 10.0).collect();
        let pos: Vec<f64> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        let neg: Vec<f64> = a.iter().map(|v| -v * 0.5).collect();
        let ba = Binner::fit(&a, 64);
        let ia = BitmapIndex::build(&a, ba);
        let ip = BitmapIndex::build(&pos, Binner::fit(&pos, 64));
        let inn = BitmapIndex::build(&neg, Binner::fit(&neg, 64));
        assert!(pearson(&ia, &ip).unwrap() > 0.99);
        assert!(pearson(&ia, &inn).unwrap() < -0.99);
    }

    #[test]
    fn pearson_constant_is_none() {
        let a = vec![1.0; 100];
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ia = BitmapIndex::build(&a, Binner::fixed_width(0.0, 2.0, 4));
        let ib = BitmapIndex::build(&b, Binner::fixed_width(0.0, 100.0, 10));
        assert!(pearson(&ia, &ib).is_none());
    }
}
