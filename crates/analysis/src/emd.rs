//! Earth Mover's Distance (Section 3.1 Equation 3, Section 3.2 and
//! Figure 4) between the value distributions of two time-steps, in two
//! variants, each a finisher over per-bin integers:
//!
//! * **Count-based** — the signed cumulative form (the classic 1-D EMD):
//!   the running sum of `count_A(j) − count_B(j)` is the mass that must
//!   flow past bin boundary `j`, and the EMD sums its absolute values.
//! * **Spatial** — per bin, the *positions* whose membership differs
//!   between the steps, accumulated as the paper's CFP sum. That count is
//!   `|A_j ⊕ B_j| = |A_j| + |B_j| − 2·|A_j ∧ B_j|`: the per-bin counts and
//!   the *diagonal*, one intersection count per matched bin pair — on
//!   bitmaps an `and_count` on the stored codecs, so no Roaring bin is
//!   transcoded (the paper's Figure 4 kernel is the XOR popcount; the
//!   identity gives the same counts).
//!
//! Per-step precision binning gives each step its own bin range on a
//! shared lattice, so both variants compare two steps in the union of
//! their ranges; a shared binning is its offset-0 case
//! ([`Binner::alignment_offset`]).

use crate::query::CorrelationPartial;
use ibis_core::{Binner, BitmapIndex};
use rayon::prelude::*;
use std::ops::Range;

/// Count-based EMD from per-bin counts (shared scoring kernel).
pub fn emd_from_counts(counts_a: &[u64], counts_b: &[u64]) -> f64 {
    assert_eq!(
        counts_a.len(),
        counts_b.len(),
        "EMD needs the same binning scale"
    );
    let mut cfp = 0i64;
    let mut emd = 0u64;
    for (&ca, &cb) in counts_a.iter().zip(counts_b) {
        cfp += ca as i64 - cb as i64;
        emd += cfp.unsigned_abs();
    }
    emd as f64
}

/// Spatial EMD from per-bin position-difference counts (shared kernel):
/// Equation 3's cumulative-sum-of-CFP form, with `Diff(j)` = number of
/// positions whose bin-`j` membership differs.
pub fn emd_spatial_from_diffs(diffs: &[u64]) -> f64 {
    let mut cfp = 0u64;
    let mut emd = 0u64;
    for &d in diffs {
        cfp += d;
        emd += cfp;
    }
    emd as f64
}

/// Two binners' bins placed in the union of their ranges on the lattice
/// they share: `a`'s bin `j` at union position `j + off_a`, `b`'s bin `k`
/// at `k + off_b`; `matched` the union positions both of them cover.
struct Lattice {
    off_a: usize,
    off_b: usize,
    len: usize,
    matched: Range<usize>,
}

impl Lattice {
    /// # Panics
    /// When the binners do not share a lattice.
    fn of(a: &Binner, b: &Binner) -> Self {
        // b's low edge, in bins, relative to a's
        let off = a
            .alignment_offset(b)
            .expect("EMD needs a shared binning lattice");
        let (lo, na, nb) = (off.min(0), a.nbins(), b.nbins());
        let (off_a, off_b) = ((-lo) as usize, (off - lo) as usize);
        let (start, end) = (off_a.max(off_b), (off_a + na).min(off_b + nb));
        Lattice {
            off_a,
            off_b,
            len: (off_a + na).max(off_b + nb),
            matched: start..end.max(start), // empty for disjoint ranges
        }
    }

    /// `counts` placed at `off` in the union space.
    fn widen(&self, counts: &[u64], off: usize) -> Vec<u64> {
        let mut union = vec![0u64; self.len];
        union[off..off + counts.len()].copy_from_slice(counts);
        union
    }
}

/// The diagonal of two indices: one `and_count` on the stored codecs per
/// matched bin pair, the pairs on the rayon pool, collected in bin order.
pub(crate) fn diagonal(a: &BitmapIndex, b: &BitmapIndex) -> Vec<u64> {
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal element counts");
    let l = Lattice::of(a.binner(), b.binner());
    let pair = |g: usize| {
        a.stored_bin(g - l.off_a)
            .and_count(b.stored_bin(g - l.off_b))
    };
    l.matched.clone().into_par_iter().map(pair).collect()
}

/// A spatial EMD partial of two raw arrays: the per-bin counts and the
/// diagonal in one pass over the rows.
pub(crate) fn scan_spatial(a: &[f64], b: &[f64], ba: &Binner, bb: &Binner) -> CorrelationPartial {
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal-length arrays");
    let l = Lattice::of(ba, bb);
    let mut p = CorrelationPartial::zero(0, 0);
    p.counts_a = vec![0; ba.nbins()];
    p.counts_b = vec![0; bb.nbins()];
    p.diagonal = vec![0; l.matched.len()];
    for (&x, &y) in a.iter().zip(b) {
        let (j, k) = (ba.bin_of(x) as usize, bb.bin_of(y) as usize);
        p.counts_a[j] += 1;
        p.counts_b[k] += 1;
        if j + l.off_a == k + l.off_b {
            p.diagonal[j + l.off_a - l.matched.start] += 1;
        }
    }
    p
}

/// The EMD finisher over a partial's per-bin counts (and, for the spatial
/// variant, its diagonal), in the union space of the two binners.
///
/// # Panics
/// When the binners do not share a lattice, or the partial was counted
/// under other binnings.
pub(crate) fn finish(spatial: bool, ba: &Binner, bb: &Binner, p: &CorrelationPartial) -> f64 {
    let l = Lattice::of(ba, bb);
    // count EMD reads no diagonal
    let diagonal = if spatial {
        l.matched.len()
    } else {
        p.diagonal.len()
    };
    let shape = [p.counts_a.len(), p.counts_b.len(), p.diagonal.len()];
    let binnings = [ba.nbins(), bb.nbins(), diagonal];
    assert_eq!(shape, binnings, "EMD partial counted under other binnings");
    let (ua, ub) = (l.widen(&p.counts_a, l.off_a), l.widen(&p.counts_b, l.off_b));
    if !spatial {
        return emd_from_counts(&ua, &ub);
    }
    let mut diffs: Vec<u64> = ua.iter().zip(&ub).map(|(x, y)| x + y).collect();
    for (d, c) in diffs[l.matched].iter_mut().zip(&p.diagonal) {
        *d -= 2 * c;
    }
    emd_spatial_from_diffs(&diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::{Metric, VarSummary};
    use std::panic::AssertUnwindSafe;

    fn emd(a: &[f64], b: &[f64], binner: &Binner, metric: Metric) -> f64 {
        let (fa, fb) = (
            VarSummary::full(a.to_vec(), binner.clone()),
            VarSummary::full(b.to_vec(), binner.clone()),
        );
        fa.metric(&fb, metric)
    }

    #[test]
    fn identical_steps_have_zero_emd() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 7) % 20) as f64).collect();
        let b = Binner::distinct_ints(0, 19);
        let bm = VarSummary::bitmap(&data, b.clone());
        for m in [Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(emd(&data, &data, &b, m), 0.0);
            assert_eq!(bm.metric(&bm, m), 0.0);
        }
    }

    #[test]
    fn one_bin_shift_moves_one_unit() {
        // one element moves one bin to the right: EMD = 1
        let a = [0.0, 1.0, 2.0];
        let b = [0.0, 1.0, 3.0];
        let binner = Binner::distinct_ints(0, 3);
        assert_eq!(
            emd_from_counts(
                &crate::histogram::histogram(&a, &binner),
                &crate::histogram::histogram(&b, &binner),
            ),
            1.0
        );
    }

    #[test]
    fn emd_scales_with_distance_moved() {
        // moving mass 3 bins costs 3x moving it 1 bin
        let base = [0.0f64; 10];
        let near: Vec<f64> = vec![1.0; 10];
        let far: Vec<f64> = vec![3.0; 10];
        let binner = Binner::distinct_ints(0, 3);
        assert_eq!(emd(&base, &near, &binner, Metric::Emd), 10.0);
        assert_eq!(emd(&base, &far, &binner, Metric::Emd), 30.0);
    }

    #[test]
    fn count_emd_is_symmetric() {
        let a: Vec<f64> = (0..300).map(|i| ((i * 3) % 11) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| ((i * 5) % 11) as f64).collect();
        let binner = Binner::distinct_ints(0, 10);
        for m in [Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(emd(&a, &b, &binner, m), emd(&b, &a, &binner, m));
        }
    }

    #[test]
    fn spatial_detects_rearrangement_count_does_not() {
        // Same histogram, different positions: count EMD = 0 but spatial > 0
        // — the reason the paper has the second method.
        let a = [0.0, 0.0, 1.0, 1.0];
        let b = [1.0, 1.0, 0.0, 0.0];
        let binner = Binner::distinct_ints(0, 1);
        assert_eq!(emd(&a, &b, &binner, Metric::Emd), 0.0);
        assert!(emd(&a, &b, &binner, Metric::EmdSpatial) > 0.0);
    }

    #[test]
    fn bitmap_paths_are_exact() {
        let a: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.002).sin() * 20.0).collect();
        let b: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.002 + 0.4).sin() * 20.0)
            .collect();
        let binner = Binner::fixed_width(-21.0, 21.0, 40);
        let (ia, ib) = (
            BitmapIndex::build(&a, binner.clone()),
            BitmapIndex::build(&b, binner.clone()),
        );
        // the bitmap producer counts what the one-pass scan counts
        let p = scan_spatial(&a, &b, &binner, &binner);
        assert_eq!(
            (ia.counts(), ib.counts()),
            (&p.counts_a[..], &p.counts_b[..])
        );
        assert_eq!(diagonal(&ia, &ib), p.diagonal);
        let (sa, sb) = (VarSummary::Bitmap(ia), VarSummary::Bitmap(ib));
        for m in [Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(sa.metric(&sb, m), emd(&a, &b, &binner, m), "{m:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shared binning lattice")]
    fn different_binners_rejected() {
        let a = VarSummary::bitmap(&[1.0], Binner::fixed_width(0.0, 2.0, 2));
        let b = VarSummary::bitmap(&[1.0], Binner::fixed_width(0.0, 2.0, 4));
        let _ = a.metric(&b, Metric::Emd);
    }

    #[test]
    fn aligned_emd_reduces_to_plain_when_binners_match() {
        // a shared binning is the offset-0 union: the counts as they are
        let binner = Binner::fixed_width(0.0, 10.0, 20);
        let l = Lattice::of(&binner, &binner);
        assert_eq!((l.off_a, l.off_b, l.len, l.matched), (0, 0, 20, 0..20));
        // b starts 3 bins above a and ends 2 above it
        let b = Binner::fixed_width(1.5, 11.0, 19);
        let l = Lattice::of(&binner, &b);
        assert_eq!((l.off_a, l.off_b, l.len, l.matched), (0, 3, 22, 3..20));
        let l = Lattice::of(&b, &binner);
        assert_eq!((l.off_a, l.off_b, l.len, l.matched), (3, 0, 22, 3..20));
        // disjoint ranges match no bin
        let far = Binner::fixed_width(20.0, 21.0, 2);
        let l = Lattice::of(&binner, &far);
        assert_eq!((l.len, l.matched.len()), (42, 0));
    }

    #[test]
    fn aligned_emd_per_step_binners_exact() {
        // two "time-steps" with different value ranges, per-step anchored
        // precision binning — the paper's Heat3D configuration
        let a: Vec<f64> = (0..600)
            .map(|i| 3.0 + (i as f64 * 0.01).sin() * 2.0)
            .collect();
        let b: Vec<f64> = (0..600)
            .map(|i| 5.5 + (i as f64 * 0.013).cos() * 3.0)
            .collect();
        let ba = Binner::fit_precision_anchored(&a, 1);
        let bb = Binner::fit_precision_anchored(&b, 1);
        assert_ne!(ba.nbins(), bb.nbins(), "per-step bin counts should differ");
        let (ia, ib) = (
            BitmapIndex::build(&a, ba.clone()),
            BitmapIndex::build(&b, bb.clone()),
        );
        // bitmap counts == full-data counts, exactly
        assert_eq!(diagonal(&ia, &ib), scan_spatial(&a, &b, &ba, &bb).diagonal);
        let (sa, sb) = (VarSummary::Bitmap(ia), VarSummary::Bitmap(ib));
        let (fa, fb) = (VarSummary::full(a, ba), VarSummary::full(b, bb));
        for m in [Metric::Emd, Metric::EmdSpatial] {
            assert_eq!(sa.metric(&sb, m), fa.metric(&fb, m), "{m:?}");
            // and both are symmetric
            assert_eq!(sa.metric(&sb, m), sb.metric(&sa, m), "{m:?}");
        }
    }

    #[test]
    fn aligned_emd_rejects_different_lattices() {
        let a = VarSummary::bitmap(&[1.0], Binner::fixed_width(0.0, 2.0, 2));
        let b = VarSummary::bitmap(&[1.0], Binner::fixed_width(0.0, 2.0, 3));
        for m in [Metric::Emd, Metric::EmdSpatial] {
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| a.metric(&b, m)));
            assert!(run.is_err(), "{m:?}");
        }
    }

    #[test]
    fn aligned_emd_disjoint_ranges() {
        // completely disjoint value ranges: every element differs
        let a = vec![1.05; 62];
        let b = vec![9.05; 62];
        let ba = Binner::fit_precision_anchored(&a, 1);
        let bb = Binner::fit_precision_anchored(&b, 1);
        let (ia, ib) = (VarSummary::bitmap(&a, ba), VarSummary::bitmap(&b, bb));
        // spatial: each of the 62 positions differs in both bins
        assert!(ia.metric(&ib, Metric::EmdSpatial) > 0.0);
        // all 62 elements must travel 80 lattice cells: EMD = 62 * 80
        assert_eq!(ia.metric(&ib, Metric::Emd), 62.0 * 80.0);
    }

    #[test]
    fn spatial_diffs_relate_to_xor() {
        // Each bin's diff is its XOR popcount, and each differing position
        // contributes to exactly two bins' diffs.
        let a = [0.0, 1.0, 2.0, 2.0];
        let b = [1.0, 1.0, 2.0, 0.0];
        let binner = Binner::distinct_ints(0, 2);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        let diag = diagonal(&ia, &ib);
        let diffs: Vec<u64> = (0..3)
            .map(|j| ia.counts()[j] + ib.counts()[j] - 2 * diag[j])
            .collect();
        for (j, &d) in diffs.iter().enumerate() {
            let (x, y) = (ia.bin(j).to_bools(), ib.bin(j).to_bools());
            assert_eq!(d, x.iter().zip(&y).filter(|(p, q)| p != q).count() as u64);
        }
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        assert_eq!(diffs.iter().sum::<u64>(), 2 * differing);
    }
}
