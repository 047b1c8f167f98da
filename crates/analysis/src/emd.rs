//! Earth Mover's Distance (Section 3.1 Equation 3, Section 3.2 and
//! Figure 4): the distance between the value distributions of two
//! time-steps, in two variants.
//!
//! * **Count-based** — per bin, compare element counts between the two
//!   steps. We use the signed cumulative form (the classic 1-D EMD): the
//!   running sum of `count_A(j) − count_B(j)` is the mass that must flow
//!   past bin boundary `j`, and the EMD is the sum of its absolute values.
//!   From bitmaps this needs only the cached bin popcounts.
//! * **Spatial** — per bin, count *positions* whose membership differs
//!   between the two steps ("for each bin pair … find if there is a match at
//!   the same position"), then accumulate the paper's CFP sum. From bitmaps
//!   this is the cardinality identity `|A_j ⊕ B_j| = |A_j| + |B_j| −
//!   2·|A_j ∧ B_j|`: the cached bin counts plus one intersection count per
//!   bin pair, on each bin's stored codec ([`CodecVec::and_count`]), so a
//!   Roaring-held bin is never transcoded. The paper's Figure 4 kernel is
//!   the XOR popcount; the identity gives the same counts.
//!
//! Both variants are pure functions of per-bin integers, so the bitmap and
//! full-data paths agree exactly under the same binning.
//!
//! [`CodecVec::and_count`]: ibis_core::CodecVec::and_count

use ibis_core::{Binner, BitmapIndex};
use rayon::prelude::*;

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

/// Count-based EMD of two raw arrays under a shared binning scale.
pub fn emd_counts_full(a: &[f64], b: &[f64], binner: &Binner) -> f64 {
    let ha = crate::histogram::histogram(a, binner);
    let hb = crate::histogram::histogram(b, binner);
    emd_from_counts(&ha, &hb)
}

/// Count-based EMD of two indexed time-steps: read straight off the cached
/// bin counts — zero bitwise work.
///
/// # Panics
/// Panics if the indices were built with different binning scales.
pub fn emd_counts_index(a: &BitmapIndex, b: &BitmapIndex) -> f64 {
    assert_eq!(a.binner(), b.binner(), "EMD needs the same binning scale");
    emd_from_counts(a.counts(), b.counts())
}

/// Spatial EMD of two raw arrays: per bin, count positions in exactly one of
/// the two steps' bins (a full scan per pair — the cost the bitmap path
/// avoids).
pub fn emd_spatial_full(a: &[f64], b: &[f64], binner: &Binner) -> f64 {
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal-length arrays");
    let mut diffs = vec![0u64; binner.nbins()];
    for (&x, &y) in a.iter().zip(b) {
        let bx = binner.bin_of(x);
        let by = binner.bin_of(y);
        if bx != by {
            // position is in bin bx of A but not of B, and vice versa
            diffs[bx as usize] += 1;
            diffs[by as usize] += 1;
        }
    }
    emd_spatial_from_diffs(&diffs)
}

/// Spatial EMD of two indexed time-steps: per bin pair, the positions in
/// exactly one of the two bins, `|A_j| + |B_j| − 2·|A_j ∧ B_j|` — the
/// cached counts and one intersection count on the bins' stored codecs.
/// The identity holds for any two bit sets (lossy supersets and
/// overlapping bins included). The per-bin counts are independent and run
/// on the rayon pool; the diffs are exact `u64` counts collected in bin
/// order, so the cumulative sum (and the result) is identical to a serial
/// evaluation.
pub fn emd_spatial_index(a: &BitmapIndex, b: &BitmapIndex) -> f64 {
    assert_eq!(a.binner(), b.binner(), "EMD needs the same binning scale");
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal element counts");
    let diffs: Vec<u64> = (0..a.nbins())
        .into_par_iter()
        .map(|j| bin_diff(a, j, b, j))
        .collect();
    emd_spatial_from_diffs(&diffs)
}

/// `|a_j ⊕ b_k|` from the cached counts and the stored bins' `and_count`.
fn bin_diff(a: &BitmapIndex, j: usize, b: &BitmapIndex, k: usize) -> u64 {
    a.counts()[j] + b.counts()[k] - 2 * a.stored_bin(j).and_count(b.stored_bin(k))
}

// ---------------------------------------------------------------------------
// Lattice-aligned variants: the paper's per-step precision binning gives each
// time-step its own bin *range* (64–206 bitvectors in their Heat3D runs) on a
// shared bin lattice; EMD between two such steps maps both sides into the
// union bin space first.
// ---------------------------------------------------------------------------

/// Maps two lattice-aligned binners into a union bin space: returns
/// `(offset_a, offset_b, union_len)` such that `a` bin `j` sits at union
/// position `j + offset_a` and `b` bin `k` at `k + offset_b`. `None` when
/// the binners do not share a lattice.
fn union_space(a: &Binner, b: &Binner) -> Option<(usize, usize, usize)> {
    let off = a.alignment_offset(b)?; // b's low edge, in bins, relative to a's
    let a_start = 0i64;
    let b_start = off;
    let lo = a_start.min(b_start);
    let hi = (a.nbins() as i64).max(off + b.nbins() as i64);
    Some((
        (a_start - lo) as usize,
        (b_start - lo) as usize,
        (hi - lo) as usize,
    ))
}

/// Count-based EMD between indices whose binners share a lattice but may
/// cover different ranges. Equals [`emd_counts_index`] when the binners are
/// identical; `None` when the lattices differ.
pub fn emd_counts_index_aligned(a: &BitmapIndex, b: &BitmapIndex) -> Option<f64> {
    let (oa, ob, len) = union_space(a.binner(), b.binner())?;
    let mut ca = vec![0u64; len];
    let mut cb = vec![0u64; len];
    ca[oa..oa + a.nbins()].copy_from_slice(a.counts());
    cb[ob..ob + b.nbins()].copy_from_slice(b.counts());
    Some(emd_from_counts(&ca, &cb))
}

/// Spatial EMD between lattice-aligned indices: per union bin, the
/// positions in exactly one of the corresponding bins (counted as in
/// [`emd_spatial_index`]), with a bin absent from one side contributing
/// all of the other side's members.
pub fn emd_spatial_index_aligned(a: &BitmapIndex, b: &BitmapIndex) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal element counts");
    let (oa, ob, len) = union_space(a.binner(), b.binner())?;
    let diffs: Vec<u64> = (0..len)
        .into_par_iter()
        .map(|g| {
            let ja = g.checked_sub(oa).filter(|&j| j < a.nbins());
            let kb = g.checked_sub(ob).filter(|&k| k < b.nbins());
            match (ja, kb) {
                (Some(j), Some(k)) => bin_diff(a, j, b, k),
                (Some(j), None) => a.counts()[j],
                (None, Some(k)) => b.counts()[k],
                (None, None) => 0,
            }
        })
        .collect();
    Some(emd_spatial_from_diffs(&diffs))
}

/// Full-data comparator for [`emd_counts_index_aligned`] (exactness oracle).
pub fn emd_counts_full_aligned(
    a: &[f64],
    b: &[f64],
    binner_a: &Binner,
    binner_b: &Binner,
) -> Option<f64> {
    let (oa, ob, len) = union_space(binner_a, binner_b)?;
    let mut ca = vec![0u64; len];
    let mut cb = vec![0u64; len];
    for &v in a {
        ca[binner_a.bin_of(v) as usize + oa] += 1;
    }
    for &v in b {
        cb[binner_b.bin_of(v) as usize + ob] += 1;
    }
    Some(emd_from_counts(&ca, &cb))
}

/// Full-data comparator for [`emd_spatial_index_aligned`].
pub fn emd_spatial_full_aligned(
    a: &[f64],
    b: &[f64],
    binner_a: &Binner,
    binner_b: &Binner,
) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "spatial EMD needs equal-length arrays");
    let (oa, ob, len) = union_space(binner_a, binner_b)?;
    let mut diffs = vec![0u64; len];
    for (&x, &y) in a.iter().zip(b) {
        let ga = binner_a.bin_of(x) as usize + oa;
        let gb = binner_b.bin_of(y) as usize + ob;
        if ga != gb {
            diffs[ga] += 1;
            diffs[gb] += 1;
        }
    }
    Some(emd_spatial_from_diffs(&diffs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_steps_have_zero_emd() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 7) % 20) as f64).collect();
        let b = Binner::distinct_ints(0, 19);
        assert_eq!(emd_counts_full(&data, &data, &b), 0.0);
        assert_eq!(emd_spatial_full(&data, &data, &b), 0.0);
        let idx = BitmapIndex::build(&data, b);
        assert_eq!(emd_counts_index(&idx, &idx), 0.0);
        assert_eq!(emd_spatial_index(&idx, &idx), 0.0);
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
        let e_near = emd_counts_full(&base, &near, &binner);
        let e_far = emd_counts_full(&base, &far, &binner);
        assert_eq!(e_near, 10.0);
        assert_eq!(e_far, 30.0);
    }

    #[test]
    fn count_emd_is_symmetric() {
        let a: Vec<f64> = (0..300).map(|i| ((i * 3) % 11) as f64).collect();
        let b: Vec<f64> = (0..300).map(|i| ((i * 5) % 11) as f64).collect();
        let binner = Binner::distinct_ints(0, 10);
        assert_eq!(
            emd_counts_full(&a, &b, &binner),
            emd_counts_full(&b, &a, &binner)
        );
        assert_eq!(
            emd_spatial_full(&a, &b, &binner),
            emd_spatial_full(&b, &a, &binner)
        );
    }

    #[test]
    fn spatial_detects_rearrangement_count_does_not() {
        // Same histogram, different positions: count EMD = 0 but spatial > 0
        // — the reason the paper has the second method.
        let a = [0.0, 0.0, 1.0, 1.0];
        let b = [1.0, 1.0, 0.0, 0.0];
        let binner = Binner::distinct_ints(0, 1);
        assert_eq!(emd_counts_full(&a, &b, &binner), 0.0);
        assert!(emd_spatial_full(&a, &b, &binner) > 0.0);
    }

    #[test]
    fn bitmap_paths_are_exact() {
        let a: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.002).sin() * 20.0).collect();
        let b: Vec<f64> = (0..5000)
            .map(|i| (i as f64 * 0.002 + 0.4).sin() * 20.0)
            .collect();
        let binner = Binner::fixed_width(-21.0, 21.0, 40);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        assert_eq!(emd_counts_index(&ia, &ib), emd_counts_full(&a, &b, &binner));
        assert_eq!(
            emd_spatial_index(&ia, &ib),
            emd_spatial_full(&a, &b, &binner)
        );
    }

    #[test]
    #[should_panic(expected = "same binning scale")]
    fn different_binners_rejected() {
        let a = BitmapIndex::build(&[1.0], Binner::fixed_width(0.0, 2.0, 2));
        let b = BitmapIndex::build(&[1.0], Binner::fixed_width(0.0, 2.0, 4));
        let _ = emd_counts_index(&a, &b);
    }

    #[test]
    fn aligned_emd_reduces_to_plain_when_binners_match() {
        let a: Vec<f64> = (0..400).map(|i| ((i * 3) % 30) as f64 / 3.0).collect();
        let b: Vec<f64> = (0..400).map(|i| ((i * 7) % 30) as f64 / 3.0).collect();
        let binner = Binner::fixed_width(0.0, 10.0, 20);
        let ia = BitmapIndex::build(&a, binner.clone());
        let ib = BitmapIndex::build(&b, binner.clone());
        assert_eq!(
            emd_counts_index_aligned(&ia, &ib),
            Some(emd_counts_index(&ia, &ib))
        );
        assert_eq!(
            emd_spatial_index_aligned(&ia, &ib),
            Some(emd_spatial_index(&ia, &ib))
        );
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
        let ia = BitmapIndex::build(&a, ba.clone());
        let ib = BitmapIndex::build(&b, bb.clone());
        // bitmap path == full-data path, exactly
        assert_eq!(
            emd_counts_index_aligned(&ia, &ib).unwrap(),
            emd_counts_full_aligned(&a, &b, &ba, &bb).unwrap()
        );
        assert_eq!(
            emd_spatial_index_aligned(&ia, &ib).unwrap(),
            emd_spatial_full_aligned(&a, &b, &ba, &bb).unwrap()
        );
        // and both are symmetric
        assert_eq!(
            emd_counts_index_aligned(&ia, &ib),
            emd_counts_index_aligned(&ib, &ia)
        );
        assert_eq!(
            emd_spatial_index_aligned(&ia, &ib),
            emd_spatial_index_aligned(&ib, &ia)
        );
    }

    #[test]
    fn aligned_emd_rejects_different_lattices() {
        let a = BitmapIndex::build(&[1.0], Binner::fixed_width(0.0, 2.0, 2));
        let b = BitmapIndex::build(&[1.0], Binner::fixed_width(0.0, 2.0, 3));
        assert_eq!(emd_counts_index_aligned(&a, &b), None);
        assert_eq!(emd_spatial_index_aligned(&a, &b), None);
    }

    #[test]
    fn aligned_emd_disjoint_ranges() {
        // completely disjoint value ranges: every element differs
        let a = vec![1.05; 62];
        let b = vec![9.05; 62];
        let ba = Binner::fit_precision_anchored(&a, 1);
        let bb = Binner::fit_precision_anchored(&b, 1);
        let ia = BitmapIndex::build(&a, ba);
        let ib = BitmapIndex::build(&b, bb);
        // spatial: each of the 62 positions differs in both bins
        let d = emd_spatial_index_aligned(&ia, &ib).unwrap();
        assert!(d > 0.0);
        let c = emd_counts_index_aligned(&ia, &ib).unwrap();
        // all 62 elements must travel 80 lattice cells: EMD = 62 * 80
        assert_eq!(c, 62.0 * 80.0);
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
        let diffs: Vec<u64> = (0..3).map(|j| bin_diff(&ia, j, &ib, j)).collect();
        for (j, &d) in diffs.iter().enumerate() {
            let (x, y) = (ia.bin(j).to_bools(), ib.bin(j).to_bools());
            assert_eq!(d, x.iter().zip(&y).filter(|(p, q)| p != q).count() as u64);
        }
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
        assert_eq!(diffs.iter().sum::<u64>(), 2 * differing);
    }
}
