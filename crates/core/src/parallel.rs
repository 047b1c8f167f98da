//! Parallel in-situ bitmap generation (Section 2.3, Figure 2).
//!
//! The time-step's data is logically partitioned into sub-blocks — one per
//! core assigned to bitmap generation — each core runs Algorithm 1 on its
//! sub-block independently, and the per-bin results are concatenated.
//! Sub-block boundaries are rounded to 31-row segment multiples, so each
//! core sees the segments the serial build sees. A core's rows land in the
//! 64Ki-row chunks they have in the whole step: the concatenation appends
//! each chunk's container, and a chunk two or more sub-blocks share becomes
//! the canonical container of their disjoint parts. Each bin then picks its
//! codec over the whole step, exactly as the serial build does.

use crate::binning::Binner;
use crate::builder::{build_reusing_scratch, MultiCodecBuilder};
use crate::index::BitmapIndex;
use crate::roaring::RoaringVec;
use crate::wah::SEG_BITS;
use rayon::prelude::*;
use std::ops::Range;

/// Splits `n` elements into at most `parts` chunks whose sizes (except the
/// last) are multiples of 31. Returns chunk lengths.
pub fn aligned_partition(n: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0, "need at least one part");
    if n == 0 {
        return vec![];
    }
    let seg = SEG_BITS as usize;
    let base = n.div_ceil(parts); // target chunk size
    let chunk = base.div_ceil(seg) * seg; // round up to segment multiple
    let mut out = Vec::new();
    let mut rem = n;
    while rem > 0 {
        let take = chunk.min(rem);
        out.push(take);
        rem -= take;
    }
    out
}

/// Runs `feed` over the sub-blocks `aligned_partition` cuts `n` rows into,
/// in parallel, and concatenates each bin's containers in block order.
fn build_blocks(
    binner: Binner,
    n: usize,
    feed: impl Fn(&mut MultiCodecBuilder, &Binner, Range<usize>) + Sync,
) -> BitmapIndex {
    let sizes = aligned_partition(n, rayon::current_num_threads()).into_iter();
    let blocks: Vec<Range<usize>> = sizes
        .scan(0, |at, s| {
            *at += s;
            Some(*at - s..*at)
        })
        .collect();
    let partials: Vec<Vec<RoaringVec>> = blocks
        .into_par_iter()
        .map(|rows| {
            build_reusing_scratch(binner.nbins(), |mb| {
                mb.start_at(rows.start as u64);
                feed(mb, &binner, rows)
            })
        })
        .collect();
    let mut partials: Vec<_> = partials.into_iter().map(Vec::into_iter).collect();
    let bins = (0..binner.nbins())
        .map(|_| RoaringVec::concat(partials.iter_mut().filter_map(Iterator::next)))
        .collect();
    BitmapIndex::from_built(binner, bins)
}

/// Builds a [`BitmapIndex`] in parallel on the current rayon pool: each
/// worker compresses one 31-aligned sub-block with Algorithm 1, then
/// per-bin results are concatenated.
///
/// Produces output identical to [`BitmapIndex::build`].
pub fn build_index_parallel(data: &[f64], binner: Binner) -> BitmapIndex {
    build_blocks(binner, data.len(), |mb, b, rows| {
        mb.extend_binned(b, &data[rows])
    })
}

/// [`build_index_parallel`] over the reordered stream `data[perm[i]]`:
/// the *stored* order is partitioned into 31-aligned sub-blocks, each
/// worker gathers and compresses its slice of the permutation, and per-bin
/// results concatenate exactly as in the identity-order build.
///
/// Produces output identical to [`BitmapIndex::build_permuted`].
///
/// # Panics
/// When `perm.len() != data.len()`.
pub fn build_index_parallel_permuted(
    data: &[f64],
    binner: Binner,
    perm: &crate::roworder::RowPermutation,
) -> BitmapIndex {
    assert_eq!(perm.len(), data.len(), "permutation length mismatch");
    build_blocks(binner, data.len(), |mb, b, rows| {
        mb.extend_binned_gather(b, data, &perm.perm()[rows])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodecVec;

    #[test]
    fn partition_covers_everything() {
        for n in [0usize, 1, 30, 31, 32, 100, 1000, 12345] {
            for parts in [1usize, 2, 3, 7, 16] {
                let sizes = aligned_partition(n, parts);
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} parts={parts}");
                for (i, &s) in sizes.iter().enumerate() {
                    if i + 1 < sizes.len() {
                        assert_eq!(s % 31, 0, "non-final chunk must be 31-aligned");
                    }
                    assert!(s > 0);
                }
            }
        }
    }

    #[test]
    fn partition_respects_part_budget() {
        let sizes = aligned_partition(1000, 4);
        assert!(sizes.len() <= 4 + 1, "got {} chunks", sizes.len());
    }

    #[test]
    fn parallel_build_is_bit_identical() {
        // three 64Ki-row chunks: seams fall inside chunks at every width,
        // and at 16 several sub-blocks share one chunk
        let data: Vec<f64> = (0..200_000)
            .map(|i| ((i as f64 * 0.013).sin() * 50.0).round() / 10.0)
            .collect();
        let binner = Binner::fit_precision(&data, 1);
        let seq = BitmapIndex::build(&data, binner.clone());
        for width in [2, 3, 7, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap();
            let par = pool.install(|| build_index_parallel(&data, binner.clone()));
            assert_eq!(seq.nbins(), par.nbins());
            for b in 0..seq.nbins() {
                assert_eq!(seq.bin(b), par.bin(b), "width {width}: bin {b} differs");
                let (s, p) = (seq.stored_bin(b), par.stored_bin(b));
                assert_eq!(s.id(), p.id(), "width {width}: bin {b}");
                if let (CodecVec::Roaring(s), CodecVec::Roaring(p)) = (s, p) {
                    assert_eq!(s.serialize(), p.serialize(), "width {width}: bin {b}");
                }
            }
            par.check_consistent().unwrap();
        }
    }

    #[test]
    fn parallel_build_small_inputs() {
        for n in [0usize, 1, 30, 31, 62] {
            let data: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
            let binner = Binner::distinct_ints(0, 4);
            let seq = BitmapIndex::build(&data, binner.clone());
            let par = build_index_parallel(&data, binner);
            for b in 0..5 {
                assert_eq!(seq.bin(b), par.bin(b), "n={n} bin {b}");
            }
        }
    }

    #[test]
    fn parallel_build_inside_sized_pool() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let data: Vec<f64> = (0..5000).map(|i| ((i / 100) % 8) as f64).collect();
        let binner = Binner::distinct_ints(0, 7);
        let par = pool.install(|| build_index_parallel(&data, binner.clone()));
        let seq = BitmapIndex::build(&data, binner);
        for b in 0..8 {
            assert_eq!(seq.bin(b), par.bin(b));
        }
    }
}
