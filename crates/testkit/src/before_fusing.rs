//! The three joint finishers of `entropy.rs` / `aggregate.rs` as they
//! stood before the fused pass, and the two marginal sums they took off
//! the table, verbatim: `prop_metrics.rs` holds the fused pass to
//! them bit for bit, and the [`Model`](crate::Model) finishes a scanned
//! joint table's conditional entropy with them. Each walks the whole
//! table, the conditional entropy twice.

use ibis_analysis::entropy::shannon_entropy_from_counts;
use ibis_core::Binner;

pub fn marginal_a(joint: &[u64], na: usize, nb: usize) -> Vec<u64> {
    assert_eq!(joint.len(), na * nb);
    (0..na)
        .map(|j| joint[j * nb..(j + 1) * nb].iter().sum())
        .collect()
}

pub fn marginal_b(joint: &[u64], na: usize, nb: usize) -> Vec<u64> {
    assert_eq!(joint.len(), na * nb);
    (0..nb)
        .map(|k| (0..na).map(|j| joint[j * nb + k]).sum())
        .collect()
}

pub fn mutual_information_from_counts(joint: &[u64], na: usize, nb: usize) -> f64 {
    let total: u64 = joint.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let pa = marginal_a(joint, na, nb);
    let pb = marginal_b(joint, na, nb);
    let n = total as f64;
    let mut mi = 0.0;
    for j in 0..na {
        if pa[j] == 0 {
            continue;
        }
        for k in 0..nb {
            let c = joint[j * nb + k];
            if c > 0 {
                let pjk = c as f64 / n;
                let pj = pa[j] as f64 / n;
                let pk = pb[k] as f64 / n;
                mi += pjk * (pjk / (pj * pk)).log2();
            }
        }
    }
    mi.max(0.0) // guard tiny negative rounding
}

pub fn conditional_entropy_from_counts(joint: &[u64], na: usize, nb: usize) -> f64 {
    let pa = marginal_a(joint, na, nb);
    shannon_entropy_from_counts(&pa) - mutual_information_from_counts(joint, na, nb)
}

pub fn pearson_from_joint_counts(
    binner_a: &Binner,
    binner_b: &Binner,
    joint: &[u64],
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
    let nb = binner_b.nbins();
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for j in 0..binner_a.nbins() {
        for k in 0..nb {
            let c = joint[j * nb + k] as f64;
            if c == 0.0 {
                continue;
            }
            let (x, y) = (mid(binner_a, j), mid(binner_b, k));
            sx += c * x;
            sy += c * y;
            sxx += c * x * x;
            syy += c * y * y;
            sxy += c * x * y;
        }
    }
    let cov = sxy / nf - (sx / nf) * (sy / nf);
    let vx = sxx / nf - (sx / nf).powi(2);
    let vy = syy / nf - (sy / nf).powi(2);
    if vx <= 1e-12 || vy <= 1e-12 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}
