//! Information-theoretic metrics (Section 3.1, Equations 4–6): Shannon's
//! entropy, mutual information and conditional entropy, as finishers over
//! counts.
//!
//! Each is a pure function of a histogram or a joint table. Bitmaps give
//! those counts from cached bin popcounts and the one-pass label walk
//! ([`crate::histogram::joint_counts`]), full data from a scan
//! ([`crate::histogram::histogram`], [`crate::histogram::joint_histogram`]),
//! and the same counts through the same finisher are the same float: the
//! bitmap method is exact under the same binning. `VarSummary::metric` and
//! `correlation_query` are the entry points that produce the counts.

/// Shannon entropy (bits) of a count vector — Equation 4.
pub fn shannon_entropy_from_counts(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / n;
            h -= p * p.log2();
        }
    }
    h
}

/// The non-zero cells `(bin_a, bin_b, count)` of a flattened joint count
/// table, in row-major order, with its marginals: what every joint
/// finisher reads, collected in one scan. The marginals come from the
/// table itself, so the three distributions are always consistent.
pub(crate) struct JointCells {
    pub(crate) cells: Vec<(usize, usize, u64)>,
    pub(crate) pa: Vec<u64>,
    pub(crate) pb: Vec<u64>,
}

impl JointCells {
    pub(crate) fn scan(joint: &[u64], na: usize, nb: usize) -> Self {
        assert_eq!(joint.len(), na * nb);
        let (mut cells, mut pa, mut pb) = (Vec::new(), vec![0u64; na], vec![0u64; nb]);
        for (i, &c) in joint.iter().enumerate().filter(|(_, &c)| c != 0) {
            cells.push((i / nb, i % nb, c));
            pa[i / nb] += c;
            pb[i % nb] += c;
        }
        JointCells { cells, pa, pb }
    }

    /// Equation 5, one term per non-zero cell: the row-major order and the
    /// per-cell expression are what make the float repeat bit for bit.
    pub(crate) fn mutual_information(&self) -> f64 {
        let n = self.pa.iter().sum::<u64>() as f64;
        let mut mi = 0.0;
        for &(j, k, c) in &self.cells {
            let pjk = c as f64 / n;
            let (pj, pk) = (self.pa[j] as f64 / n, self.pb[k] as f64 / n);
            mi += pjk * (pjk / (pj * pk)).log2();
        }
        mi.max(0.0) // guard tiny negative rounding
    }
}

/// Mutual information (bits) from a flattened joint count table —
/// Equation 5; `0.0` for an empty table.
pub fn mutual_information_from_counts(joint: &[u64], na: usize, nb: usize) -> f64 {
    JointCells::scan(joint, na, nb).mutual_information()
}

/// Conditional entropy `H(A|B) = H(A) − I(A;B)` from counts — Equation 6.
pub fn conditional_entropy_from_counts(joint: &[u64], na: usize, nb: usize) -> f64 {
    let cells = JointCells::scan(joint, na, nb);
    shannon_entropy_from_counts(&cells.pa) - cells.mutual_information()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::{histogram, joint_counts, joint_histogram};
    use ibis_core::{Binner, BitmapIndex};

    fn h(data: &[f64], b: &Binner) -> f64 {
        shannon_entropy_from_counts(&histogram(data, b))
    }

    fn mi(a: &[f64], b: &[f64], ba: &Binner, bb: &Binner) -> f64 {
        mutual_information_from_counts(&joint_histogram(a, b, ba, bb), ba.nbins(), bb.nbins())
    }

    fn ce(a: &[f64], b: &[f64], ba: &Binner, bb: &Binner) -> f64 {
        conditional_entropy_from_counts(&joint_histogram(a, b, ba, bb), ba.nbins(), bb.nbins())
    }

    #[test]
    fn entropy_of_uniform_and_constant() {
        assert_eq!(shannon_entropy_from_counts(&[0, 0, 0]), 0.0);
        assert_eq!(shannon_entropy_from_counts(&[100]), 0.0);
        let h = shannon_entropy_from_counts(&[25, 25, 25, 25]);
        assert!(
            (h - 2.0).abs() < 1e-12,
            "uniform over 4 bins = 2 bits, got {h}"
        );
        // Constant data has low entropy, random data high (the paper's prose).
        let skewed = shannon_entropy_from_counts(&[97, 1, 1, 1]);
        assert!(skewed < h);
    }

    #[test]
    fn mi_of_identical_equals_entropy() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 10) as f64).collect();
        let b = Binner::distinct_ints(0, 9);
        let (h, mi) = (h(&data, &b), mi(&data, &data, &b, &b));
        assert!((mi - h).abs() < 1e-10, "I(A;A) = H(A): {mi} vs {h}");
        // ...and H(A|A) = 0.
        assert!(ce(&data, &data, &b, &b).abs() < 1e-10);
    }

    #[test]
    fn mi_of_independent_is_near_zero() {
        // Construct exactly independent variables: all (j, k) combinations
        // appear equally often.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for j in 0..4 {
            for k in 0..4 {
                for _ in 0..10 {
                    a.push(j as f64);
                    b.push(k as f64);
                }
            }
        }
        let binner = Binner::distinct_ints(0, 3);
        let mi = mi(&a, &b, &binner, &binner);
        assert!(
            mi.abs() < 1e-12,
            "independent vars must have zero MI, got {mi}"
        );
    }

    #[test]
    fn mi_symmetry() {
        let a: Vec<f64> = (0..500).map(|i| ((i * 3) % 17) as f64).collect();
        let b: Vec<f64> = (0..500).map(|i| ((i * 11 + 2) % 13) as f64).collect();
        let ba = Binner::distinct_ints(0, 16);
        let bb = Binner::distinct_ints(0, 12);
        assert!((mi(&a, &b, &ba, &bb) - mi(&b, &a, &bb, &ba)).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_bounds() {
        let a: Vec<f64> = (0..800).map(|i| ((i / 7) % 12) as f64).collect();
        let b: Vec<f64> = (0..800).map(|i| ((i / 13) % 9) as f64).collect();
        let ba = Binner::distinct_ints(0, 11);
        let bb = Binner::distinct_ints(0, 8);
        let (h, ce) = (h(&a, &ba), ce(&a, &b, &ba, &bb));
        assert!(
            ce >= -1e-12 && ce <= h + 1e-12,
            "0 <= H(A|B) <= H(A): {ce} vs {h}"
        );
    }

    #[test]
    fn bitmap_path_is_exact() {
        // The paper's central claim: same binning scale ⇒ identical counts,
        // so identical results through the one finisher.
        let a: Vec<f64> = (0..3000).map(|i| (i as f64 * 0.01).sin() * 40.0).collect();
        let b: Vec<f64> = (0..3000)
            .map(|i| (i as f64 * 0.013).cos() * 35.0 + 5.0)
            .collect();
        let ba = Binner::fixed_width(-41.0, 41.0, 30);
        let bb = Binner::fixed_width(-36.0, 41.0, 24);
        let ia = BitmapIndex::build(&a, ba.clone());
        let ib = BitmapIndex::build(&b, bb.clone());
        assert_eq!(ia.counts(), histogram(&a, &ba));
        assert_eq!(joint_counts(&ia, &ib), joint_histogram(&a, &b, &ba, &bb));
    }

    #[test]
    fn entropy_increases_with_spread() {
        let narrow: Vec<f64> = vec![5.0; 100];
        let wide: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b = Binner::fixed_width(0.0, 100.0, 20);
        assert!(h(&wide, &b) > h(&narrow, &b));
    }
}
