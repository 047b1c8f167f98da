//! Multi-level bitmap indices (Figure 1's high-level indices).
//!
//! The high level groups `group` consecutive low bins per high bin; a high
//! bitvector is the OR of its children. The correlation miner prunes at the
//! high level first (Section 4.2, optimization 2) — from the fine joint
//! table's block sums, which need no high bin built. What is kept here is
//! that grouping; a caller that does need a high bin ORs its children
//! ([`BitmapIndex::or_bins`] over [`MultiLevelIndex::children`]).

use crate::binning::Binner;
use crate::index::BitmapIndex;

/// A two-level bitmap index over one array: the low level and how its bins
/// group into high bins.
#[derive(Debug, Clone)]
pub struct MultiLevelIndex {
    low: BitmapIndex,
    group: usize,
}

impl MultiLevelIndex {
    /// Builds the low level with Algorithm 1 (via the fused bin+compress
    /// fast path of [`BitmapIndex::build`]) and groups it `group` low bins
    /// to a high bin (no second data scan).
    pub fn build(data: &[f64], binner: Binner, group: usize) -> Self {
        let low = BitmapIndex::build(data, binner);
        Self::from_low(low, group)
    }

    /// Groups an existing low-level index, `group` low bins to a high bin.
    pub fn from_low(low: BitmapIndex, group: usize) -> Self {
        assert!(group >= 1, "group must be at least 1");
        MultiLevelIndex { low, group }
    }

    /// The low (fine) level.
    pub fn low(&self) -> &BitmapIndex {
        &self.low
    }

    /// Low bins grouped under each high bin.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The low-bin range belonging to high bin `h`.
    pub fn children(&self, h: usize) -> std::ops::Range<usize> {
        let nbins = self.low.nbins();
        assert!(h < nbins.div_ceil(self.group), "high bin {h} out of range");
        let lo = h * self.group;
        lo..(lo + self.group).min(nbins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wah::WahVec;

    /// The number of high bins.
    fn nhigh(ml: &MultiLevelIndex) -> usize {
        ml.low().nbins().div_ceil(ml.group())
    }

    /// High bin `h`: the OR of its children.
    fn high(ml: &MultiLevelIndex, h: usize) -> WahVec {
        ml.low().or_bins(ml.children(h))
    }

    /// Each high bin is exactly the rows the coarsened binner puts in it.
    fn assert_high_level_is_the_coarse_binning(ml: &MultiLevelIndex, data: &[f64]) {
        let coarse = ml.low().binner().coarsen(ml.group());
        for h in 0..nhigh(ml) {
            let want = data.iter().map(|&v| coarse.bin_of(v) as usize == h);
            assert_eq!(high(ml, h), WahVec::from_bits(want), "high bin {h}");
        }
    }

    #[test]
    fn figure1_high_level() {
        // Figure 1: values 1..4, high level groups [1,2] and [3,4].
        let data = [4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0, 1.0];
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(1, 4), 2);
        assert_eq!(nhigh(&ml), 2);
        let i0: Vec<bool> = "01110001".chars().map(|c| c == '1').collect();
        let i1: Vec<bool> = "10001110".chars().map(|c| c == '1').collect();
        assert_eq!(high(&ml, 0).to_bools(), i0);
        assert_eq!(high(&ml, 1).to_bools(), i1);
        assert_high_level_is_the_coarse_binning(&ml, &data);
        ml.low().check_consistent().unwrap();
    }

    #[test]
    fn ragged_last_group() {
        let data: Vec<f64> = (0..700).map(|i| (i % 7) as f64).collect();
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(0, 6), 3);
        assert_eq!(nhigh(&ml), 3); // groups {0,1,2} {3,4,5} {6}
        assert_eq!(ml.children(2), 6..7);
        assert_eq!(high(&ml, 2).count_ones(), 100);
        assert_high_level_is_the_coarse_binning(&ml, &data);
    }

    #[test]
    fn high_counts_sum_children() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 17) % 90) as f64 / 9.0).collect();
        let ml = MultiLevelIndex::build(&data, Binner::fixed_width(0.0, 10.0, 20), 4);
        for h in 0..nhigh(&ml) {
            let want: u64 = ml.children(h).map(|b| ml.low().counts()[b]).sum();
            assert_eq!(high(&ml, h).count_ones(), want, "high bin {h}");
        }
    }

    #[test]
    fn high_binner_agrees_with_grouping() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let ml = MultiLevelIndex::build(&data, Binner::fixed_width(0.0, 10.0, 10), 3);
        let coarse = ml.low().binner().coarsen(ml.group());
        for &v in &data {
            let low_bin = ml.low().binner().bin_of(v) as usize;
            let coarse_bin = coarse.bin_of(v) as usize;
            assert!(ml.children(coarse_bin).contains(&low_bin), "v={v}");
        }
        assert_high_level_is_the_coarse_binning(&ml, &data);
    }

    #[test]
    fn group_one_levels_identical() {
        let data = [1.0, 2.0, 3.0, 1.0];
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(1, 3), 1);
        assert_eq!(nhigh(&ml), ml.low().nbins());
        for b in 0..3 {
            assert_eq!(&high(&ml, b), ml.low().bin(b));
        }
    }
}
