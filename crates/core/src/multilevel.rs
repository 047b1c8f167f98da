//! Multi-level bitmap indices (Figure 1's high-level indices).
//!
//! The high level groups `group` consecutive low bins per high bin; a high
//! bitvector is the OR of its children. The planner covers a wide value
//! range with a few high bins, and the correlation miner prunes at the high
//! level first (Section 4.2, optimization 2) — from the fine joint table's
//! block sums, which need no high bin built.

use crate::binning::Binner;
use crate::index::BitmapIndex;
use crate::wah::WahVec;
use ibis_obs::LazyCounter;
use std::sync::OnceLock;

// High bins built because a plan could use them (a no-op without `obs`).
static OBS_HIGH_BUILT: LazyCounter = LazyCounter::new("query.cache.high_bins_built");

/// A two-level bitmap index over one array.
///
/// The high level grows with use: deriving all of it costs an OR over
/// every low bin, which a plan that names a handful of them should not
/// pay. [`MultiLevelIndex::high_bin`] builds the one bin asked for, once,
/// from its children in whatever form they are held
/// ([`BitmapIndex::or_bins`]: no transcode).
#[derive(Debug, Clone)]
pub struct MultiLevelIndex {
    low: BitmapIndex,
    group: usize,
    grown: Vec<OnceLock<WahVec>>,
}

impl MultiLevelIndex {
    /// Builds the low level with Algorithm 1 (via the fused bin+compress
    /// fast path of [`BitmapIndex::build`]) and puts a high level over it;
    /// a high bin is the OR of its `group` low bitvectors (no second data
    /// scan).
    pub fn build(data: &[f64], binner: Binner, group: usize) -> Self {
        let low = BitmapIndex::build(data, binner);
        Self::from_low(low, group)
    }

    /// Puts a high level over an existing low-level index, `group` low bins
    /// to a high bin. None of it is built yet.
    pub fn from_low(low: BitmapIndex, group: usize) -> Self {
        assert!(group >= 1, "group must be at least 1");
        let grown = vec![OnceLock::new(); low.nbins().div_ceil(group)];
        MultiLevelIndex { low, group, grown }
    }

    /// The low (fine) level.
    pub fn low(&self) -> &BitmapIndex {
        &self.low
    }

    /// High bin `h`: the OR of its children, built the first time it is
    /// asked for.
    pub fn high_bin(&self, h: usize) -> &WahVec {
        self.grown[h].get_or_init(|| {
            OBS_HIGH_BUILT.inc();
            self.low.or_bins(self.children(h))
        })
    }

    /// Low bins grouped under each high bin.
    pub fn group(&self) -> usize {
        self.group
    }

    /// The low-bin range belonging to high bin `h`.
    pub fn children(&self, h: usize) -> std::ops::Range<usize> {
        assert!(h < self.grown.len(), "high bin {h} out of range");
        let lo = h * self.group;
        lo..(lo + self.group).min(self.low.nbins())
    }

    /// Bytes held right now across both levels: the low level as it
    /// stands ([`BitmapIndex::resident_bytes`]) and what has been built of
    /// the high one — it grows as the index is used.
    pub fn resident_bytes(&self) -> usize {
        let grown = self.grown.iter().filter_map(OnceLock::get);
        self.low.resident_bytes() + grown.map(WahVec::size_bytes).sum::<usize>()
    }

    /// Verifies that the low level is internally consistent and each high
    /// bitvector equals the OR of its children.
    pub fn check_consistent(&self) -> Result<(), String> {
        self.low
            .check_consistent()
            .map_err(|e| format!("low: {e}"))?;
        for h in 0..self.grown.len() {
            let children = self.children(h);
            let or = WahVec::or_many(children.clone().map(|b| self.low.bin(b)));
            if &or != self.high_bin(h) {
                return Err(format!("high bin {h} != OR of low bins {children:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of high bins.
    fn nhigh(ml: &MultiLevelIndex) -> usize {
        ml.low().nbins().div_ceil(ml.group())
    }

    #[test]
    fn figure1_high_level() {
        // Figure 1: values 1..4, high level groups [1,2] and [3,4].
        let data = [4.0, 1.0, 2.0, 2.0, 3.0, 4.0, 3.0, 1.0];
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(1, 4), 2);
        assert_eq!(nhigh(&ml), 2);
        let i0: Vec<bool> = "01110001".chars().map(|c| c == '1').collect();
        let i1: Vec<bool> = "10001110".chars().map(|c| c == '1').collect();
        assert_eq!(ml.high_bin(0).to_bools(), i0);
        assert_eq!(ml.high_bin(1).to_bools(), i1);
        ml.check_consistent().unwrap();
    }

    #[test]
    fn ragged_last_group() {
        let data: Vec<f64> = (0..700).map(|i| (i % 7) as f64).collect();
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(0, 6), 3);
        assert_eq!(nhigh(&ml), 3); // groups {0,1,2} {3,4,5} {6}
        assert_eq!(ml.children(2), 6..7);
        assert_eq!(ml.high_bin(2).count_ones(), 100);
        ml.check_consistent().unwrap();
    }

    #[test]
    fn high_counts_sum_children() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 17) % 90) as f64 / 9.0).collect();
        let ml = MultiLevelIndex::build(&data, Binner::fixed_width(0.0, 10.0, 20), 4);
        for h in 0..nhigh(&ml) {
            let want: u64 = ml.children(h).map(|b| ml.low().counts()[b]).sum();
            assert_eq!(ml.high_bin(h).count_ones(), want, "high bin {h}");
        }
    }

    #[test]
    fn high_binner_agrees_with_grouping() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 100.0).collect();
        let ml = MultiLevelIndex::build(&data, Binner::fixed_width(0.0, 10.0, 10), 3);
        let coarse = ml.low().binner().coarsen(ml.group());
        for &v in &data {
            let low_bin = ml.low().binner().bin_of(v) as usize;
            let high_bin = coarse.bin_of(v) as usize;
            assert!(ml.children(high_bin).contains(&low_bin), "v={v}");
        }
    }

    #[test]
    fn group_one_levels_identical() {
        let data = [1.0, 2.0, 3.0, 1.0];
        let ml = MultiLevelIndex::build(&data, Binner::distinct_ints(1, 3), 1);
        assert_eq!(nhigh(&ml), ml.low().nbins());
        for b in 0..3 {
            assert_eq!(ml.high_bin(b), ml.low().bin(b));
        }
    }
}
