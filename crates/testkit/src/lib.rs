//! Test support for the workspace's suites: the one reference model every
//! exactness oracle reads, a per-test temporary directory, and the crash
//! states of a recorded run ([`crash`]).
//!
//! The [`Model`] answers by scanning raw values in original row order. It
//! knows nothing of bitmaps, codecs, row layouts, shards or lossy
//! companions — a row order moves every run boundary, so an oracle that
//! knew the layout would share its mistakes. What it reads of the library
//! is the [`Binner`] that defines a bin (`bin_of`, `bin_range`,
//! `alignment_offset`) and the pure finishers over integer counts:
//! [`finish_correlation`], `emd_from_counts`, `emd_spatial_from_diffs`, and
//! for conditional entropy the pre-fusion finisher in [`before_fusing`]. It
//! builds no `BitmapIndex` or `VarSummary`.

pub mod before_fusing;
pub mod crash;

use ibis_analysis::emd::{emd_from_counts, emd_spatial_from_diffs};
use ibis_analysis::{
    finish_correlation, CorrelationAnswer, CorrelationPartial, Metric, QueryError, SubsetQuery,
};
use ibis_core::Binner;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One variable of one step: the binner that defines its bins and the bin
/// of each raw value, in original row order.
#[derive(Clone, Debug)]
pub struct Column {
    binner: Binner,
    bins: Vec<usize>,
}

impl Column {
    pub fn new(values: &[f64], binner: Binner) -> Column {
        let bins = values.iter().map(|&v| binner.bin_of(v) as usize).collect();
        Column { binner, bins }
    }

    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    pub fn rows(&self) -> u64 {
        self.bins.len() as u64
    }

    /// Rows per bin.
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.binner.nbins()];
        self.bins.iter().for_each(|&bin| counts[bin] += 1);
        counts
    }

    /// Row-by-row admission under `q`: the region names original rows; a
    /// value is admitted when its bin's range intersects `[lo, hi)`.
    pub fn admitted(&self, q: &SubsetQuery) -> Result<Vec<bool>, QueryError> {
        let n = self.rows();
        let region = match &q.position_range {
            Some(r) if r.start > r.end || r.end > n => {
                return Err(QueryError::RegionOutOfRange {
                    start: r.start,
                    end: r.end,
                    len: n,
                })
            }
            Some(r) => r.clone(),
            None => 0..n,
        };
        let bins = match q.value_range {
            Some((lo, hi)) if lo.is_nan() || hi.is_nan() => {
                return Err(QueryError::NanBound { lo, hi })
            }
            Some((lo, hi)) if hi > lo => {
                let b0 = self.binner.bin_of(lo) as usize;
                let mut b1 = self.binner.bin_of(hi) as usize;
                // hi is exclusive: a bin starting at hi is not touched
                if b1 > b0 && self.binner.bin_range(b1).0 >= hi {
                    b1 -= 1;
                }
                Some(b0..=b1)
            }
            Some(_) => None, // inverted or empty interval selects nothing
            None => Some(0..=usize::MAX),
        };
        Ok((0u64..)
            .zip(&self.bins)
            .map(|(row, bin)| {
                region.contains(&row) && bins.as_ref().is_some_and(|b| b.contains(bin))
            })
            .collect())
    }

    /// How many rows `q` admits.
    pub fn count(&self, q: &SubsetQuery) -> Result<u64, QueryError> {
        Ok(self.admitted(q)?.into_iter().filter(|&a| a).count() as u64)
    }

    /// The partial a scan of `rows` fills: each row's pair of bins, `self`
    /// on the table's rows and `other` on its columns.
    pub fn partial(
        &self,
        other: &Column,
        rows: impl IntoIterator<Item = usize>,
    ) -> CorrelationPartial {
        let nb = other.binner.nbins();
        let mut p = CorrelationPartial::zero(self.binner.nbins(), nb);
        for row in rows {
            let (ja, jb) = (self.bins[row], other.bins[row]);
            p.selected += 1;
            p.joint[ja * nb + jb] += 1;
            p.counts_a[ja] += 1;
            p.counts_b[jb] += 1;
        }
        p
    }

    /// The joint table of every row.
    pub fn joint(&self, other: &Column) -> Vec<u64> {
        self.partial(other, 0..self.bins.len()).joint
    }

    /// The correlation answer over the rows both queries admit: the
    /// scanned partial through [`finish_correlation`] (the construction
    /// `benchmark/src/oracle.rs` uses).
    pub fn correlation(
        &self,
        other: &Column,
        q: &SubsetQuery,
        q_other: &SubsetQuery,
    ) -> Result<CorrelationAnswer, QueryError> {
        if self.rows() != other.rows() {
            return Err(QueryError::LengthMismatch {
                len_a: self.rows(),
                len_b: other.rows(),
            });
        }
        let (in_a, in_b) = (self.admitted(q)?, other.admitted(q_other)?);
        let rows = (0..self.bins.len()).filter(|&row| in_a[row] && in_b[row]);
        let p = self.partial(other, rows);
        Ok(finish_correlation(&self.binner, &other.binner, &p))
    }

    /// `metric` from `self` to `other` by a scan of the raw rows, in the
    /// union of the two binners' ranges on their lattice: conditional
    /// entropy by the pre-fusion finisher over the scanned joint table,
    /// count EMD over the two scanned histograms, spatial EMD over the
    /// positions whose union bin differs (each counted in both of its
    /// bins).
    pub fn metric(&self, other: &Column, metric: Metric) -> f64 {
        let (ba, bb) = (&self.binner, &other.binner);
        if metric == Metric::ConditionalEntropy {
            let joint = self.joint(other);
            return before_fusing::conditional_entropy_from_counts(&joint, ba.nbins(), bb.nbins());
        }
        let off = ba.alignment_offset(bb).expect("binners of one lattice");
        let lo = off.min(0);
        let len = ((ba.nbins() as i64).max(off + bb.nbins() as i64) - lo) as usize;
        let union_a = |bin: usize| (bin as i64 - lo) as usize;
        let union_b = |bin: usize| (bin as i64 + off - lo) as usize;
        let mut counts = [vec![0u64; len], vec![0u64; len]];
        let mut diffs = vec![0u64; len];
        self.bins.iter().for_each(|&x| counts[0][union_a(x)] += 1);
        other.bins.iter().for_each(|&y| counts[1][union_b(y)] += 1);
        for (&x, &y) in self.bins.iter().zip(&other.bins) {
            let (ga, gb) = (union_a(x), union_b(y));
            if ga != gb {
                diffs[ga] += 1;
                diffs[gb] += 1;
            }
        }
        match metric {
            Metric::Emd => emd_from_counts(&counts[0], &counts[1]),
            _ => emd_spatial_from_diffs(&diffs),
        }
    }
}

/// The raw data a store was fed: one [`Column`] per (step, variable).
#[derive(Clone, Debug, Default)]
pub struct Model {
    columns: BTreeMap<(usize, String), Column>,
}

impl Model {
    pub fn new() -> Model {
        Model::default()
    }

    /// `self` with `variable` of `step` holding `values` under `binner`.
    pub fn with(mut self, step: usize, variable: &str, binner: Binner, values: &[f64]) -> Model {
        let column = Column::new(values, binner);
        self.columns.insert((step, variable.to_string()), column);
        self
    }

    /// The variables of `step`, by name.
    pub fn variables(&self, step: usize) -> Vec<&str> {
        let keys = self.columns.keys().filter(|(s, _)| *s == step);
        keys.map(|(_, var)| var.as_str()).collect()
    }

    /// # Panics
    /// When the model holds no `variable` for `step`: a test asked about
    /// data it never fed.
    pub fn column(&self, step: usize, variable: &str) -> &Column {
        self.columns
            .get(&(step, variable.to_string()))
            .unwrap_or_else(|| panic!("the model holds no step {step} {variable:?}"))
    }
}

/// A scratch directory unique to this process, its test and this value —
/// `<temp>/ibis-<pid>-<n>-<name>` — so concurrent test runs and tests of
/// one binary never share one. It is not created (writers create their
/// own directories); whatever is there when the value drops is removed.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = format!("ibis-{}-{n}-{name}", std::process::id());
        let path = std::env::temp_dir().join(dir);
        std::fs::remove_dir_all(&path).ok();
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_bin_granular_and_validates_like_the_engine() {
        // bins [0, 1), [1, 2), [2, 3), [3, 4)
        let col = Column::new(&[0.5, 1.5, 2.5, 3.5, 1.0], Binner::fixed_width(0.0, 4.0, 4));
        let count = |q: SubsetQuery| col.count(&q);
        // a bound inside a bin admits the whole bin; hi is exclusive
        assert_eq!(count(SubsetQuery::value(1.2, 2.0)), Ok(2));
        assert_eq!(count(SubsetQuery::value(1.2, 2.1)), Ok(3));
        assert_eq!(count(SubsetQuery::value(3.0, 1.0)), Ok(0));
        assert_eq!(count(SubsetQuery::value(2.0, 2.0)), Ok(0));
        assert_eq!(count(SubsetQuery::all().with_region(1..3)), Ok(2));
        assert!(matches!(
            count(SubsetQuery::value(f64::NAN, 1.0)),
            Err(QueryError::NanBound { .. })
        ));
        #[allow(clippy::reversed_empty_ranges)]
        for bad in [0..6, 3..2] {
            assert!(matches!(
                count(SubsetQuery::region(bad)),
                Err(QueryError::RegionOutOfRange { len: 5, .. })
            ));
        }
    }

    #[test]
    fn partial_counts_rows_into_their_bin_pairs() {
        let binner = Binner::fixed_width(0.0, 2.0, 2);
        let a = Column::new(&[0.5, 1.5, 1.5], binner.clone());
        let b = Column::new(&[1.5, 1.5, 0.5], binner);
        let p = a.partial(&b, [0, 1, 2]);
        assert_eq!((p.selected, &p.joint), (3, &vec![0, 1, 1, 1]));
        assert_eq!((p.counts_a, p.counts_b), (vec![1, 2], vec![1, 2]));
        assert_eq!(a.metric(&a, Metric::EmdSpatial), 0.0);
    }

    #[test]
    fn temp_dirs_are_distinct_and_removed_on_drop() {
        let (a, b) = (TempDir::new("same"), TempDir::new("same"));
        assert_ne!(a.path(), b.path());
        std::fs::create_dir_all(a.join("nested")).unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }
}
