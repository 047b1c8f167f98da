//! Correlation *queries* over data subsets — the interactive framework the
//! paper's Section 4.1 describes as its own prior work and builds the miner
//! on: "users can submit different SQL queries to specify the data subsets
//! (either value-based or dimension-based subsets) they are interested in
//! for correlation analysis".
//!
//! A [`SubsetQuery`] combines an optional value predicate with an optional
//! spatial predicate (a contiguous position range — a Z-order block when the
//! data was laid out with [`ibis_core::ZOrderLayout`]); evaluation yields a
//! compressed selection vector, and [`correlation_query`] computes the
//! relationship metrics of two variables restricted to the selected
//! sub-population — all from bitmaps.
//!
//! This is the one surface a *user* drives directly, so it is total:
//! malformed input (an out-of-range region, a NaN bound, mismatched
//! variables) is a typed [`QueryError`], never a panic, and inverted or
//! empty value intervals are well-defined empty selections.
//!
//! Every statistic here — a subset count, a correlation's joint table —
//! is a sum of label counts, so it reads an index whose bins *partition*
//! its rows ([`BitmapIndex::partitions`]), as every index built from data
//! does. [`SubsetQuery::count`] and [`correlation_partial_shard`] check
//! that first and answer [`QueryError::NotAPartition`] for an operand that
//! breaks it (a lossy superset); only [`SubsetQuery::intersects`], an
//! emptiness probe, reads such an index.
//!
//! # The range planner
//!
//! A `value_range` predicate touches a contiguous span of bins; which bins
//! it touches dominates query cost, so [`plan_value_range`] chooses between
//! two strategies that produce byte-identical selections:
//!
//! * **`OrBins`** — OR the touched bins directly (the naive fan-in, always
//!   correct, optimal for narrow ranges).
//! * **`Complement`** — OR the *untouched* bins and complement the result
//!   (`not()`): wide ranges touch most bins, so the smaller side is the
//!   bins outside the span. Valid because an index built from data
//!   partitions positions across bins.
//!
//! The planner costs each strategy by the bytes it would read under each
//! bin's at-rest codec plan ([`BitmapIndex::bin_cost_bytes`]) — a WAH bin
//! costs its compressed words, a Roaring bin its container bytes — and
//! picks the cheapest. [`execute_range_plan`] *materialises* a plan into a
//! selection vector; [`SubsetQuery::count`] *counts* it — the bins
//! partition the rows, so a plan's operands are disjoint and their
//! popcounts add: no vector is built to answer "how many". A count reads
//! cached cardinalities, so a precomputed OR of a group of bins (Figure
//! 1's high level) would save it nothing; no plan uses one.

use crate::aggregate::{self, Estimate};
use crate::entropy::{shannon_entropy_from_counts, JointCells};
use crate::histogram::joint_counts_where;
use ibis_core::{BitmapIndex, MultiLevelIndex, RowPermutation, WahVec};
use ibis_obs::LazyCounter;
use std::fmt;
use std::ops::Range;

// Query-layer metrics (family `query`, see DESIGN.md §6g). All no-ops
// without `obs`.
static OBS_PLAN_OR: LazyCounter = LazyCounter::new("query.plan.or_bins");
static OBS_PLAN_COMPLEMENT: LazyCounter = LazyCounter::new("query.plan.complement");
static OBS_PLAN_EMPTY: LazyCounter = LazyCounter::new("query.plan.empty");
// Subset counts and correlation shard partials answered.
static OBS_SUBSET_COUNTED: LazyCounter = LazyCounter::new("query.subset.counted");
static OBS_CORR_SELECTION_FREE: LazyCounter = LazyCounter::new("query.corr.selection_free");
// Region predicates resolved against a row permutation (family `reorder`,
// see DESIGN.md §6j).
static OBS_REGION_SEGMENTS: LazyCounter = LazyCounter::new("reorder.query.region_mapped.segments");

/// A malformed subset or correlation query. Every variant is `Clone +
/// PartialEq` so query failures are comparable across runs, mirroring
/// the pipeline's error discipline.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A value-range bound is NaN — meaningless, not empty.
    NanBound {
        /// The lower bound as given.
        lo: f64,
        /// The upper bound as given.
        hi: f64,
    },
    /// A position range does not fit the indexed domain (or is inverted).
    RegionOutOfRange {
        /// Requested start position.
        start: u64,
        /// Requested end position (exclusive).
        end: u64,
        /// Number of indexed positions.
        len: u64,
    },
    /// The two variables of a correlation query — or an index and the
    /// row permutation applied to it — cover different element counts
    /// and cannot be joined.
    LengthMismatch {
        /// Elements of variable A.
        len_a: u64,
        /// Elements of variable B.
        len_b: u64,
    },
    /// Two shards of one store hold a variable under different binnings —
    /// the two bin counts, equal when only the edges differ: their counts
    /// name different bins and cannot be summed.
    BinningMismatch(usize, usize),
    /// A statistic's operand does not partition its rows (a lossy
    /// superset): its bins hold `counted` rows of its `rows`, so no count
    /// read off them is a count of rows.
    NotAPartition {
        /// Rows the operand covers.
        rows: u64,
        /// Rows its bins hold, summed.
        counted: u64,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NanBound { lo, hi } => {
                write!(f, "value range [{lo}, {hi}) has a NaN bound")
            }
            QueryError::RegionOutOfRange { start, end, len } => {
                write!(f, "region {start}..{end} out of range for {len} positions")
            }
            QueryError::LengthMismatch { len_a, len_b } => {
                write!(f, "variables cover {len_a} vs {len_b} elements")
            }
            QueryError::BinningMismatch(a, b) => {
                write!(f, "shards disagree on a binning: {a} vs {b} bins or edges")
            }
            QueryError::NotAPartition { rows, counted } => {
                write!(f, "bins hold {counted} rows of {rows}: not a partition")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// [`QueryError::NotAPartition`] unless `index`'s bins partition its rows.
fn check_partition(index: &BitmapIndex) -> Result<(), QueryError> {
    match index.partitions() {
        true => Ok(()),
        false => Err(QueryError::NotAPartition {
            rows: index.len(),
            counted: index.counts().iter().sum(),
        }),
    }
}

impl From<ibis_core::RangeQueryError> for QueryError {
    fn from(e: ibis_core::RangeQueryError) -> Self {
        match e {
            ibis_core::RangeQueryError::NanBound { lo, hi } => QueryError::NanBound { lo, hi },
        }
    }
}

/// A subset specification over one variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubsetQuery {
    /// Keep elements whose value lies in `[lo, hi)` (bin-granular: a bin is
    /// included when its range intersects the interval, the usual bitmap
    /// index semantics). Inverted (`lo > hi`) and empty (`lo == hi`)
    /// intervals select nothing; a NaN bound is a [`QueryError::NanBound`].
    pub value_range: Option<(f64, f64)>,
    /// Keep elements at these positions (half-open; a spatial block under a
    /// Z-order layout). Must satisfy `start <= end <= len`.
    pub position_range: Option<Range<u64>>,
}

impl SubsetQuery {
    /// Matches everything.
    pub fn all() -> Self {
        SubsetQuery::default()
    }

    /// Value-based subset (`WHERE lo <= v AND v < hi`).
    pub fn value(lo: f64, hi: f64) -> Self {
        SubsetQuery {
            value_range: Some((lo, hi)),
            position_range: None,
        }
    }

    /// Dimension-based subset (a contiguous position / Z-order block).
    pub fn region(range: Range<u64>) -> Self {
        SubsetQuery {
            value_range: None,
            position_range: Some(range),
        }
    }

    /// Restricts this query to a value range as well.
    pub fn with_value(mut self, lo: f64, hi: f64) -> Self {
        self.value_range = Some((lo, hi));
        self
    }

    /// Restricts this query to a position range as well.
    pub fn with_region(mut self, range: Range<u64>) -> Self {
        self.position_range = Some(range);
        self
    }

    /// Evaluates to a selection vector over the index's positions: the
    /// whole index is the one shard covering rows `0..n` of an `n`-row
    /// domain.
    pub fn evaluate(&self, index: &BitmapIndex) -> Result<WahVec, QueryError> {
        let n = index.len();
        let ranges = stored_ranges(&[self], n, None)?;
        let mask = ranges.map(|r| shard_mask(&r, 0..n));
        self.evaluate_masked(index, mask.as_ref())
    }

    /// The selection over `index` given the shard's prebuilt region
    /// `mask` ([`shard_mask`]): the planned value predicate
    /// intersected with it. Split from the mask so a caller evaluating
    /// several indices over the same rows builds the mask once.
    pub fn evaluate_masked(
        &self,
        index: &BitmapIndex,
        mask: Option<&WahVec>,
    ) -> Result<WahVec, QueryError> {
        let sel = match self.value_range {
            Some((lo, hi)) => {
                let plan = plan_value_range(index, None, lo, hi)?;
                execute_range_plan(index, None, &plan)
            }
            None => WahVec::ones(index.len()),
        };
        match mask {
            None => Ok(sel),
            Some(m) if m.len() == index.len() => Ok(sel.and(m)),
            Some(m) => Err(QueryError::LengthMismatch {
                len_a: index.len(),
                len_b: m.len(),
            }),
        }
    }

    /// How many rows of `index` inside `ranges` — sorted, disjoint ranges
    /// of its rows ([`shard_ranges`]); `None` is every row — pass the value
    /// predicate: `evaluate_masked(..).count_ones()` without the selection.
    /// The predicate is planned ([`plan_value_range`]) and the plan counted
    /// ([`count_range_plan`]) on each bin in the form it is held in — a
    /// cached cardinality, or a search of a bin's rows under a region,
    /// where an OR reads every word. An index whose bins do not partition
    /// its rows (a lossy superset) is [`QueryError::NotAPartition`].
    pub fn count(
        &self,
        index: &BitmapIndex,
        ranges: Option<&[Range<u64>]>,
    ) -> Result<u64, QueryError> {
        check_ranges(index, ranges)?;
        check_partition(index)?;
        OBS_SUBSET_COUNTED.inc();
        match self.value_range {
            Some((lo, hi)) => {
                let plan = plan_value_range(index, None, lo, hi)?;
                Ok(count_range_plan(index, &plan, ranges))
            }
            None => Ok(ranges.map_or(index.len(), rows_in)),
        }
    }

    /// Whether *any* row of `index` inside `ranges` passes the value
    /// predicate: some touched bin has a 1 there. An OR is non-empty iff
    /// an operand is, so this needs no partition — on a lossy superset
    /// index `false` proves the exact answer empty — and it stops at the
    /// first row found.
    pub fn intersects(
        &self,
        index: &BitmapIndex,
        ranges: Option<&[Range<u64>]>,
    ) -> Result<bool, QueryError> {
        check_ranges(index, ranges)?;
        let hit = |b: usize| {
            index.counts()[b] > 0 && ranges.is_none_or(|r| index.stored_bin(b).intersects_ranges(r))
        };
        match self.value_range {
            Some(_) => Ok(self.admitted_bins(index)?.any(hit)),
            None => Ok(ranges.map_or(index.len(), rows_in) > 0),
        }
    }

    /// The bins the value predicate admits — the span every plan covers
    /// ([`BitmapIndex::bin_span`]): all of them without a predicate, none
    /// for an inverted or empty interval. A NaN bound is the planner's
    /// typed error.
    fn admitted_bins(&self, index: &BitmapIndex) -> Result<Range<usize>, QueryError> {
        match self.value_range {
            Some((lo, hi)) if lo.is_nan() || hi.is_nan() => Err(QueryError::NanBound { lo, hi }),
            Some((lo, hi)) => Ok(index.bin_span(lo, hi).map_or(0..0, |(b0, b1)| b0..b1 + 1)),
            None => Ok(0..index.nbins()),
        }
    }
}

/// Rows covered by sorted, disjoint `ranges`.
fn rows_in(ranges: &[Range<u64>]) -> u64 {
    ranges.iter().map(|r| r.end - r.start).sum()
}

/// Ranges handed to a count must lie inside the index's rows: a typed
/// error here, not the kernel's bounds panic.
fn check_ranges(index: &BitmapIndex, ranges: Option<&[Range<u64>]>) -> Result<(), QueryError> {
    let len = index.len();
    match ranges.and_then(|r| r.last()) {
        Some(&Range { start, end }) if end > len => {
            Err(QueryError::RegionOutOfRange { start, end, len })
        }
        _ => Ok(()),
    }
}

/// Where the rows that pass every region predicate of `queries` (one
/// subset query, or the two sides of a correlation, whose selections are
/// ANDed) sit in a store: sorted, disjoint ranges of *stored* positions —
/// `None` when no query has a region. The only place a region meets a row
/// layout, computed once per query. Regions name *original* row ids of a
/// `global_len`-row domain and are validated against it, as is `perm`
/// (the *global* permutation), so a malformed query fails identically
/// whatever the shard count.
///
/// The identity layout is the one-range case. Under `perm`, original ids
/// ascend within each of its segments, so the block is one stored stretch
/// per segment — two binary searches, no per-row work, whatever the
/// permutation.
pub fn stored_ranges(
    queries: &[&SubsetQuery],
    global_len: u64,
    perm: Option<&RowPermutation>,
) -> Result<Option<Vec<Range<u64>>>, QueryError> {
    if let Some(p) = perm.filter(|p| p.len() as u64 != global_len) {
        return Err(QueryError::LengthMismatch {
            len_a: global_len,
            len_b: p.len() as u64,
        });
    }
    let mut region: Option<Range<u64>> = None;
    for r in queries.iter().filter_map(|q| q.position_range.as_ref()) {
        if r.start > r.end || r.end > global_len {
            return Err(QueryError::RegionOutOfRange {
                start: r.start,
                end: r.end,
                len: global_len,
            });
        }
        region = Some(match region {
            None => r.clone(),
            Some(x) => {
                let lo = x.start.max(r.start);
                lo..x.end.min(r.end).max(lo)
            }
        });
    }
    let (Some(region), Some(p)) = (region.clone(), perm) else {
        return Ok(region.map(|r| vec![r]));
    };
    // in range for `u32`: the block lies inside the permutation's rows
    let (lo, hi) = (region.start as u32, region.end as u32);
    OBS_REGION_SEGMENTS.inc();
    let segments = p.segments();
    let ends = segments.iter().skip(1).copied().chain([p.len() as u32]);
    let stretches = segments.iter().zip(ends).filter_map(|(&start, end)| {
        let ids = &p.perm()[start as usize..end as usize];
        let a = start as u64 + ids.partition_point(|&o| o < lo) as u64;
        let b = start as u64 + ids.partition_point(|&o| o < hi) as u64;
        (a < b).then_some(a..b)
    });
    Ok(Some(stretches.collect()))
}

/// `ranges` ([`stored_ranges`]) as the shard holding stored rows
/// `[rows.start, rows.end)` sees them: those that reach it, clipped to it
/// and rebased to its first row — still sorted and disjoint. The one
/// clip-and-rebase, for [`SubsetQuery::count`] and [`shard_mask`] alike.
pub fn shard_ranges(ranges: &[Range<u64>], rows: Range<u64>) -> Vec<Range<u64>> {
    let reach = &ranges[ranges.partition_point(|r| r.end <= rows.start)..];
    let reach = &reach[..reach.partition_point(|r| r.start < rows.end)];
    let rebased =
        |r: &Range<u64>| r.start.max(rows.start) - rows.start..r.end.min(rows.end) - rows.start;
    reach.iter().map(rebased).collect()
}

/// The mask of `ranges` ([`stored_ranges`]) over the stored rows
/// `[rows.start, rows.end)` of one shard: [`shard_ranges`], each appended
/// as a run — canonical, whatever produced the ranges.
pub fn shard_mask(ranges: &[Range<u64>], rows: Range<u64>) -> WahVec {
    let mut b = ibis_core::WahBuilder::new();
    let mut at = 0;
    for r in shard_ranges(ranges, rows.clone()) {
        b.append_run(false, r.start - at);
        b.append_run(true, r.end - r.start);
        at = r.end;
    }
    b.append_run(false, rows.end - rows.start - at);
    b.finish()
}

// ---------------------------------------------------------------------------
// The value-range planner
// ---------------------------------------------------------------------------

/// How a `value_range` predicate will be evaluated. All strategies yield
/// byte-identical selections; they differ only in which compressed words
/// they read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangePlan {
    /// The interval selects nothing (inverted or empty).
    Empty,
    /// OR the touched bins `lo..=hi` directly.
    OrBins {
        /// First touched bin.
        lo: usize,
        /// Last touched bin (inclusive).
        hi: usize,
    },
    /// OR the bins *outside* `lo..=hi`, then complement.
    Complement {
        /// First touched bin.
        lo: usize,
        /// Last touched bin (inclusive).
        hi: usize,
    },
}

/// Chooses the cheapest strategy for a `[lo, hi)` value query. NaN bounds
/// are rejected; inverted and empty intervals plan to [`RangePlan::Empty`].
///
/// Strategy costs are measured in bytes read under each bin's at-rest
/// codec ([`BitmapIndex::bins_cost_bytes`], a prefix-sum table built with
/// the index — for an all-WAH index `4 ×` the compressed-word count). The
/// complement trick is only considered when the index
/// partitions positions across bins (true for any index built from
/// data), since `OR(outside).not() == OR(inside)` needs every position
/// set in exactly one bin. The plan depends on nothing but the index's
/// at-rest form, so it does not depend on what has been asked of it
/// before.
///
/// `_ml` is ignored: no plan reads a high level. The parameter stays
/// because the `ibis-e2e` harness spells this signature (ROADMAP item 2b).
pub fn plan_value_range(
    index: &BitmapIndex,
    _ml: Option<&MultiLevelIndex>,
    lo: f64,
    hi: f64,
) -> Result<RangePlan, QueryError> {
    if lo.is_nan() || hi.is_nan() {
        return Err(QueryError::NanBound { lo, hi });
    }
    let Some((b0, b1)) = index.bin_span(lo, hi) else {
        OBS_PLAN_EMPTY.inc();
        return Ok(RangePlan::Empty);
    };
    let inside = index.bins_cost_bytes(b0..b1 + 1);
    // Complement: valid only when bins partition the positions. The
    // complement pass re-reads its OR result once; weight it 3/2.
    let outside = index.bins_cost_bytes(0..index.nbins()) - inside;
    if index.partitions() && outside + outside / 2 < inside {
        OBS_PLAN_COMPLEMENT.inc();
        return Ok(RangePlan::Complement { lo: b0, hi: b1 });
    }
    OBS_PLAN_OR.inc();
    Ok(RangePlan::OrBins { lo: b0, hi: b1 })
}

/// Runs a plan produced by [`plan_value_range`] against the same index.
/// Every strategy returns the canonical compressed selection — byte-
/// identical across strategies (property-tested and asserted in-bench).
///
/// `_ml` is ignored, as in [`plan_value_range`], and stays for the same
/// reason.
pub fn execute_range_plan(
    index: &BitmapIndex,
    _ml: Option<&MultiLevelIndex>,
    plan: &RangePlan,
) -> WahVec {
    match plan {
        RangePlan::Empty => WahVec::zeros(index.len()),
        RangePlan::OrBins { lo, hi } => index.query_bins(*lo..=*hi),
        RangePlan::Complement { lo, hi } => {
            index.or_bins((0..*lo).chain(hi + 1..index.nbins())).not()
        }
    }
}

/// Counts a plan instead of running it: the rows of `ranges` (sorted and
/// disjoint; `None` is every row) that `execute_range_plan` would select,
/// with no vector built. Requires `index.partitions()`: the operands of
/// every plan are then pairwise disjoint, so their popcounts add — cached
/// [`BitmapIndex::counts`] without a region (no word is read),
/// [`WahVec::count_ones_in_ranges`] under one — and the complement is
/// `rows in ranges − Σ outside`.
pub fn count_range_plan(
    index: &BitmapIndex,
    plan: &RangePlan,
    ranges: Option<&[Range<u64>]>,
) -> u64 {
    let ones = |b: usize| match ranges {
        Some(r) if index.counts()[b] > 0 => index.stored_bin(b).count_ones_in_ranges(r),
        _ => index.counts()[b],
    };
    match plan {
        RangePlan::Empty => 0,
        RangePlan::OrBins { lo, hi } => (*lo..=*hi).map(ones).sum(),
        RangePlan::Complement { lo, hi } => {
            let outside = (0..*lo).chain(hi + 1..index.nbins());
            ranges.map_or(index.len(), rows_in) - outside.map(ones).sum::<u64>()
        }
    }
}

/// The answer to a correlation query over two variables.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationAnswer {
    /// Elements in the combined selection.
    pub selected: u64,
    /// Mutual information (bits) of the two variables within the selection;
    /// `0.0` for an empty selection.
    pub mutual_information: f64,
    /// Conditional entropy `H(A|B)` within the selection; `0.0` for an
    /// empty selection.
    pub conditional_entropy: f64,
    /// Approximate Pearson correlation (bin midpoints); `None` when a
    /// variable is constant within the selection.
    pub pearson: Option<f64>,
    /// Approximate mean of variable A within the selection.
    pub mean_a: Option<Estimate>,
    /// Approximate mean of variable B within the selection.
    pub mean_b: Option<Estimate>,
}

/// Computes the relationship of two variables restricted to the
/// intersection of their subset queries — the paper's correlation-query
/// primitive, evaluated purely on bitmaps. Disjoint subsets (an empty
/// combined selection) report zero mutual information and conditional
/// entropy, never NaN.
pub fn correlation_query(
    a: &BitmapIndex,
    b: &BitmapIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
) -> Result<CorrelationAnswer, QueryError> {
    correlation_query_with(a, b, query_a, query_b, None)
}

/// [`correlation_query`] over two single-level indices built under the
/// *same* row reordering (see [`correlation_query_ml_mapped`] for the
/// invariance argument).
pub fn correlation_query_mapped(
    a: &BitmapIndex,
    b: &BitmapIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
    perm: &RowPermutation,
) -> Result<CorrelationAnswer, QueryError> {
    correlation_query_with(a, b, query_a, query_b, Some(perm))
}

/// [`correlation_query`] over two-level indices: the low levels' answer. A
/// value predicate is the span of low bins it admits, so no high bin is
/// read, or built.
pub fn correlation_query_ml(
    a: &MultiLevelIndex,
    b: &MultiLevelIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
) -> Result<CorrelationAnswer, QueryError> {
    correlation_query_with(a.low(), b.low(), query_a, query_b, None)
}

/// [`correlation_query_ml`] over two indices built under the *same* row
/// reordering (both variables of a step share one permutation, so their
/// stored rows stay aligned): region predicates map through the inverse
/// permutation, and every metric — selection count, MI, conditional
/// entropy, Pearson, means — is identical to the identity-order answer,
/// because all of them are row-order invariant.
pub fn correlation_query_ml_mapped(
    a: &MultiLevelIndex,
    b: &MultiLevelIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
    perm: &RowPermutation,
) -> Result<CorrelationAnswer, QueryError> {
    correlation_query_with(a.low(), b.low(), query_a, query_b, Some(perm))
}

/// The four public entry points above are the `rows = 0..n` case of the
/// shard partial below, finished in place: one selected joint table, one
/// set of finishers, whatever the shard count.
fn correlation_query_with(
    a: &BitmapIndex,
    b: &BitmapIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
    perm: Option<&RowPermutation>,
) -> Result<CorrelationAnswer, QueryError> {
    let n = a.len();
    let ranges = stored_ranges(&[query_a, query_b], n, perm)?;
    let partial = correlation_partial_shard(a, b, query_a, query_b, 0..n, ranges.as_deref())?;
    Ok(finish_correlation(a.binner(), b.binner(), &partial))
}

// ---------------------------------------------------------------------------
// Sharded scatter-gather partials
// ---------------------------------------------------------------------------
//
// A spatial shard holds `slice_rows(lo..hi)` of every step's index — the
// contiguous stored-row range `[lo, hi)` of the global row space. Three
// facts make scatter-gather answers byte-identical whatever the shard
// count (an unsharded index being the one shard `0..n`):
//
// 1. *Selections slice.* A value predicate is an OR over a bin span, set
//    operations distribute over row slices, and the canonical WAH encoding
//    of a bit string is unique — so evaluating a query on a shard yields
//    exactly the `[lo, hi)` slice of the global canonical selection, and
//    what a shard counts of it is the global count's share of the shard.
// 2. *Counts are additive.* Selected counts, joint `(bin_a, bin_b)` tables,
//    and per-bin selection counts are integers summed over disjoint row
//    ranges; u64 addition is associative, so coordinator sums equal the
//    global counts exactly.
// 3. *Finishers are pure.* Every float metric (MI, conditional entropy,
//    Pearson, means) is a fixed-order function of those integer counts
//    ([`crate::entropy::mutual_information_from_counts`],
//    [`crate::aggregate::pearson_from_joint_counts`],
//    [`crate::aggregate::sum_from_bin_counts`]) — summed counts through the
//    same finisher give bit-identical floats.

/// One shard's additive contribution to a correlation query: every term
/// the coordinator needs, as exact integers. Merge partials with
/// [`CorrelationPartial::merge`] and finish with [`finish_correlation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationPartial {
    /// Elements of the combined selection inside this shard.
    pub selected: u64,
    /// Joint `(bin_a, bin_b)` counts restricted to the selection,
    /// row-major over `nbins_a × nbins_b`.
    pub joint: Vec<u64>,
    /// Per-bin selection counts of variable A (`bin ∧ selection`), the sum
    /// finisher's input: `joint`'s row sums, both operands partitioning
    /// their rows.
    pub counts_a: Vec<u64>,
    /// Per-bin selection counts of variable B (`joint`'s column sums).
    pub counts_b: Vec<u64>,
}

impl CorrelationPartial {
    /// The additive identity for the given bin counts.
    pub fn zero(nbins_a: usize, nbins_b: usize) -> Self {
        CorrelationPartial {
            selected: 0,
            joint: vec![0; nbins_a * nbins_b],
            counts_a: vec![0; nbins_a],
            counts_b: vec![0; nbins_b],
        }
    }

    /// Accumulates another shard's partial (elementwise integer sums —
    /// associative and commutative, so any reduction order at the
    /// coordinator yields the same totals). A partial of another shape was
    /// counted under another binning: a typed error, nothing is summed.
    pub fn merge(&mut self, other: &CorrelationPartial) -> Result<(), QueryError> {
        let shapes = |p: &CorrelationPartial| [p.counts_a.len(), p.counts_b.len(), p.joint.len()];
        if let Some((&x, &y)) = (shapes(self).iter().zip(&shapes(other))).find(|(x, y)| x != y) {
            return Err(QueryError::BinningMismatch(x, y));
        }
        self.selected += other.selected;
        for (s, o) in self.joint.iter_mut().zip(&other.joint) {
            *s += o;
        }
        for (s, o) in self.counts_a.iter_mut().zip(&other.counts_a) {
            *s += o;
        }
        for (s, o) in self.counts_b.iter_mut().zip(&other.counts_b) {
            *s += o;
        }
        Ok(())
    }
}

/// One shard's [`CorrelationPartial`] for a correlation query over stored
/// rows `[rows.start, rows.end)` — the one place the query path builds a
/// selected joint table. Both value predicates are taken under the one
/// joint region `ranges` ([`stored_ranges`] of both queries over the whole
/// store): a row outside either query's region is dropped either way.
/// Nothing is materialised — a predicate is the bin span it admits, the
/// region the shard's share of `ranges`, inside the one label walk — so an
/// operand whose bins do not partition its rows is
/// [`QueryError::NotAPartition`].
pub fn correlation_partial_shard(
    a: &BitmapIndex,
    b: &BitmapIndex,
    query_a: &SubsetQuery,
    query_b: &SubsetQuery,
    rows: Range<u64>,
    ranges: Option<&[Range<u64>]>,
) -> Result<CorrelationPartial, QueryError> {
    // the operands cover the same rows: those the layout gives the shard
    let (len_a, shard) = (a.len(), rows.end.saturating_sub(rows.start));
    if let Some(&len_b) = [b.len(), shard].iter().find(|&&len| len != len_a) {
        return Err(QueryError::LengthMismatch { len_a, len_b });
    }
    let local = ranges.map(|r| shard_ranges(r, rows));
    let (bins_a, bins_b) = (query_a.admitted_bins(a)?, query_b.admitted_bins(b)?);
    check_partition(a)?;
    check_partition(b)?;
    OBS_CORR_SELECTION_FREE.inc();
    let joint = joint_counts_where(a, b, bins_a.clone(), bins_b.clone(), local.as_deref());
    // every counted cell lies in the admitted rectangle: its sums are the
    // per-bin counts, with no strided pass over the whole table
    let mut counted = CorrelationPartial::zero(a.nbins(), b.nbins());
    for j in bins_a {
        let row = &joint[j * b.nbins()..][bins_b.clone()];
        counted.counts_a[j] = row.iter().sum();
        for (sum, c) in counted.counts_b[bins_b.clone()].iter_mut().zip(row) {
            *sum += c;
        }
    }
    counted.selected = counted.counts_a.iter().sum();
    counted.joint = joint;
    Ok(counted)
}

/// Runs the metric finishers over merged shard partials. Feeding the sum
/// of every shard's partial through this yields the [`CorrelationAnswer`]
/// of the unsharded index bit for bit — same integer counts, same
/// finishers, same accumulation order.
pub fn finish_correlation(
    binner_a: &ibis_core::Binner,
    binner_b: &ibis_core::Binner,
    p: &CorrelationPartial,
) -> CorrelationAnswer {
    // one scan of the table; every finisher then reads its non-zero cells
    // in the same row-major order
    let cells = JointCells::scan(&p.joint, binner_a.nbins(), binner_b.nbins());
    let mutual_information = cells.mutual_information();
    CorrelationAnswer {
        selected: p.selected,
        mutual_information,
        conditional_entropy: shannon_entropy_from_counts(&cells.pa) - mutual_information,
        pearson: aggregate::pearson_from_cells(binner_a, binner_b, &cells, p.selected),
        mean_a: aggregate::mean_from_sum(
            aggregate::sum_from_bin_counts(binner_a, &p.counts_a),
            p.selected,
        ),
        mean_b: aggregate::mean_from_sum(
            aggregate::sum_from_bin_counts(binner_b, &p.counts_b),
            p.selected,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_core::Binner;

    fn index(data: &[f64]) -> BitmapIndex {
        BitmapIndex::build(data, Binner::fixed_width(0.0, 10.0, 100))
    }

    #[test]
    fn all_selects_everything() {
        let data: Vec<f64> = (0..500).map(|i| (i % 100) as f64 / 10.0).collect();
        let idx = index(&data);
        let sel = SubsetQuery::all().evaluate(&idx).unwrap();
        assert_eq!(sel.count_ones(), 500);
    }

    #[test]
    fn value_query_matches_scan() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 10.0).collect();
        let idx = index(&data);
        let sel = SubsetQuery::value(2.0, 5.0).evaluate(&idx).unwrap();
        let want = data.iter().filter(|&&v| (2.0..5.0).contains(&v)).count() as u64;
        assert_eq!(sel.count_ones(), want);
    }

    #[test]
    fn region_query_is_positional() {
        let data: Vec<f64> = (0..300).map(|i| i as f64 / 100.0).collect();
        let idx = index(&data);
        let sel = SubsetQuery::region(100..200).evaluate(&idx).unwrap();
        assert_eq!(sel.count_ones(), 100);
        assert!(!sel.get(99));
        assert!(sel.get(100));
        assert!(sel.get(199));
        assert!(!sel.get(200));
    }

    #[test]
    fn combined_query_intersects() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 10.0).collect();
        let idx = index(&data);
        let sel = SubsetQuery::region(0..500)
            .with_value(2.0, 5.0)
            .evaluate(&idx)
            .unwrap();
        let want = data[..500]
            .iter()
            .filter(|&&v| (2.0..5.0).contains(&v))
            .count() as u64;
        assert_eq!(sel.count_ones(), want);
    }

    /// The mask of one region over a whole `len`-row index.
    fn mask(range: Range<u64>, len: u64) -> Result<WahVec, QueryError> {
        let ranges = stored_ranges(&[&SubsetQuery::region(range)], len, None)?;
        Ok(shard_mask(&ranges.unwrap_or_default(), 0..len))
    }

    #[test]
    fn region_mask_edges() {
        let m = mask(0..0, 10).unwrap();
        assert_eq!(m.count_ones(), 0);
        // an empty block is the canonical zeros wherever it sits
        for at in [0, 31, 40, 100] {
            assert_eq!(mask(at..at, 100).unwrap(), WahVec::zeros(100));
        }
        let m = mask(0..10, 10).unwrap();
        assert_eq!(m.count_ones(), 10);
        let m = mask(3..7, 10).unwrap();
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn region_out_of_range_is_error_not_panic() {
        let err = mask(5..20, 10).unwrap_err();
        assert_eq!(
            err,
            QueryError::RegionOutOfRange {
                start: 5,
                end: 20,
                len: 10
            }
        );
        // inverted region is malformed too
        let inverted = Range { start: 7, end: 3 };
        assert!(matches!(
            mask(inverted, 10),
            Err(QueryError::RegionOutOfRange { .. })
        ));
        // ...and the same through a SubsetQuery against a live index
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let idx = index(&data);
        let err = SubsetQuery::region(50..1000).evaluate(&idx).unwrap_err();
        assert!(matches!(err, QueryError::RegionOutOfRange { len: 100, .. }));
    }

    #[test]
    fn value_range_semantics_pinned() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 10.0).collect();
        let idx = index(&data);
        // inverted interval: empty selection
        let sel = SubsetQuery::value(5.0, 2.0).evaluate(&idx).unwrap();
        assert_eq!(sel.count_ones(), 0);
        // empty interval: empty selection
        let sel = SubsetQuery::value(3.0, 3.0).evaluate(&idx).unwrap();
        assert_eq!(sel.count_ones(), 0);
        // NaN bound: typed error
        let err = SubsetQuery::value(f64::NAN, 3.0)
            .evaluate(&idx)
            .unwrap_err();
        assert!(matches!(err, QueryError::NanBound { .. }));
        let err = SubsetQuery::value(3.0, f64::NAN)
            .evaluate(&idx)
            .unwrap_err();
        assert!(matches!(err, QueryError::NanBound { .. }));
        // the empty cases also flow through correlation_query cleanly
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::value(5.0, 2.0),
            &SubsetQuery::all(),
        )
        .unwrap();
        assert_eq!(ans.selected, 0);
    }

    #[test]
    fn planner_strategies_agree_byte_identically() {
        let data: Vec<f64> = (0..4000)
            .map(|i| ((i * 37) % 100) as f64 / 10.0 + ((i / 800) as f64).min(0.9))
            .collect();
        let idx = &BitmapIndex::build(&data, Binner::fixed_width(0.0, 11.0, 64));
        for (lo, hi) in [
            (0.0, 11.0),
            (0.5, 10.5),
            (2.0, 3.0),
            (0.0, 0.2),
            (9.3, 11.0),
            (4.2, 4.21),
        ] {
            let naive = idx.query_range(lo, hi);
            let Some((b0, b1)) = idx.bin_span(lo, hi) else {
                continue;
            };
            let by_or = execute_range_plan(idx, None, &RangePlan::OrBins { lo: b0, hi: b1 });
            let by_not = execute_range_plan(idx, None, &RangePlan::Complement { lo: b0, hi: b1 });
            let plan = plan_value_range(idx, None, lo, hi).unwrap();
            let planned = execute_range_plan(idx, None, &plan);
            assert_eq!(by_or, naive, "[{lo},{hi}) OrBins");
            assert_eq!(by_not, naive, "[{lo},{hi}) Complement");
            assert_eq!(planned, naive, "[{lo},{hi}) planned {plan:?}");
        }
    }

    #[test]
    fn wide_range_plans_away_from_naive_or() {
        // Nearly the whole domain: the complement must win.
        let data: Vec<f64> = (0..20000).map(|i| ((i * 13) % 100) as f64 / 10.0).collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 10.0, 64));
        let plan = plan_value_range(&idx, None, 0.0, 9.9).unwrap();
        assert!(
            matches!(plan, RangePlan::Complement { .. }),
            "wide span must not fan in every bin: {plan:?}"
        );
        // A one-bin span stays naive.
        let plan = plan_value_range(&idx, None, 5.0, 5.05).unwrap();
        assert!(matches!(plan, RangePlan::OrBins { .. }), "{plan:?}");
    }

    #[test]
    fn correlation_query_finds_planted_relationship() {
        // b tracks a inside positions [0, 500); independent-ish outside
        let n = 1000usize;
        let a: Vec<f64> = (0..n).map(|i| (i % 90) as f64 / 10.0).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| {
                if i < 500 {
                    (i % 90) as f64 / 10.0
                } else {
                    ((i.wrapping_mul(2654435761) >> 13) % 90) as f64 / 10.0
                }
            })
            .collect();
        let ia = index(&a);
        let ib = index(&b);
        let inside = correlation_query(
            &ia,
            &ib,
            &SubsetQuery::region(0..500),
            &SubsetQuery::region(0..500),
        )
        .unwrap();
        let outside = correlation_query(
            &ia,
            &ib,
            &SubsetQuery::region(500..1000),
            &SubsetQuery::region(500..1000),
        )
        .unwrap();
        assert_eq!(inside.selected, 500);
        assert!(inside.mutual_information > outside.mutual_information + 1.0);
        assert!(inside.pearson.unwrap() > 0.99);
        assert!(outside.pearson.unwrap().abs() < 0.3);
        assert!(inside.conditional_entropy < outside.conditional_entropy);
    }

    #[test]
    fn multilevel_correlation_matches_single_level() {
        let n = 2000usize;
        let a: Vec<f64> = (0..n).map(|i| ((i * 3) % 95) as f64 / 10.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 11 + 7) % 95) as f64 / 10.0).collect();
        let ia = MultiLevelIndex::build(&a, Binner::fixed_width(0.0, 10.0, 64), 8);
        let ib = MultiLevelIndex::build(&b, Binner::fixed_width(0.0, 10.0, 64), 8);
        let qa = SubsetQuery::value(1.0, 9.0).with_region(0..1500);
        let qb = SubsetQuery::value(0.5, 8.0);
        let ml = correlation_query_ml(&ia, &ib, &qa, &qb).unwrap();
        let single = correlation_query(ia.low(), ib.low(), &qa, &qb).unwrap();
        assert_eq!(ml, single);
    }

    #[test]
    fn empty_selection_is_well_defined() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let idx = index(&data);
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::value(9.0, 10.0), // nothing up there
            &SubsetQuery::all(),
        )
        .unwrap();
        assert_eq!(ans.selected, 0);
        assert_eq!(ans.mutual_information, 0.0);
        assert!(ans.pearson.is_none());
        assert!(ans.mean_a.is_none());
    }

    #[test]
    fn disjoint_subsets_report_zero_not_nan() {
        let data: Vec<f64> = (0..400).map(|i| (i % 40) as f64 / 4.0).collect();
        let idx = index(&data);
        // provably disjoint regions
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::region(0..200),
            &SubsetQuery::region(200..400),
        )
        .unwrap();
        assert_eq!(ans.selected, 0);
        assert_eq!(ans.mutual_information, 0.0);
        assert_eq!(ans.conditional_entropy, 0.0);
        assert!(!ans.mutual_information.is_nan() && !ans.conditional_entropy.is_nan());
        // provably disjoint value predicates on the same variable
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::value(0.0, 2.0),
            &SubsetQuery::value(8.0, 10.0),
        )
        .unwrap();
        assert_eq!(ans.selected, 0);
        assert_eq!(ans.mutual_information, 0.0);
        assert_eq!(ans.conditional_entropy, 0.0);
        // ...and combined value+region disjointness
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::value(0.0, 2.0).with_region(0..100),
            &SubsetQuery::value(0.0, 2.0).with_region(300..400),
        )
        .unwrap();
        assert_eq!(ans.selected, 0);
        assert_eq!(ans.conditional_entropy, 0.0);
    }

    #[test]
    fn mismatched_lengths_are_an_error() {
        let a = index(&(0..100).map(|i| i as f64 / 10.0).collect::<Vec<_>>());
        let b = index(&(0..200).map(|i| i as f64 / 20.0).collect::<Vec<_>>());
        let err = correlation_query(&a, &b, &SubsetQuery::all(), &SubsetQuery::all()).unwrap_err();
        assert_eq!(
            err,
            QueryError::LengthMismatch {
                len_a: 100,
                len_b: 200
            }
        );
    }

    #[test]
    fn sharded_partials_match_unsharded_oracle() {
        use ibis_core::MultiLevelIndex;
        let n = 3100usize;
        let da: Vec<f64> = (0..n).map(|i| ((i * 7) % 95) as f64 / 10.0).collect();
        let db: Vec<f64> = (0..n).map(|i| ((i * 13 + 11) % 95) as f64 / 10.0).collect();
        let binner = Binner::fixed_width(0.0, 10.0, 48);
        let ia = MultiLevelIndex::build(&da, binner.clone(), 8);
        let ib = MultiLevelIndex::build(&db, binner.clone(), 8);
        let queries = [
            (SubsetQuery::all(), SubsetQuery::all()),
            (SubsetQuery::value(1.0, 8.5), SubsetQuery::all()),
            (
                SubsetQuery::value(0.0, 9.9).with_region(100..2500),
                SubsetQuery::value(2.0, 7.0),
            ),
            (SubsetQuery::region(0..700), SubsetQuery::region(500..3100)),
        ];
        for cuts in [vec![0u64, n as u64], vec![0, 777, 1600, 2201, n as u64]] {
            let shards: Vec<(std::ops::Range<u64>, MultiLevelIndex, MultiLevelIndex)> = cuts
                .windows(2)
                .map(|w| {
                    let r = w[0]..w[1];
                    (
                        r.clone(),
                        MultiLevelIndex::from_low(ia.low().slice_rows(r.clone()), 8),
                        MultiLevelIndex::from_low(ib.low().slice_rows(r), 8),
                    )
                })
                .collect();
            for (qa, qb) in &queries {
                // a shard's selection is its slice of the global one
                let global_sel = qa
                    .evaluate(ia.low())
                    .unwrap()
                    .and(&qb.evaluate(ib.low()).unwrap());
                let mut bld = ibis_core::WahBuilder::new();
                for (r, sa, sb) in &shards {
                    let on = |q: &SubsetQuery, shard: &MultiLevelIndex| {
                        let ranges = stored_ranges(&[q], n as u64, None).unwrap();
                        let mask = ranges.map(|ranges| shard_mask(&ranges, r.clone()));
                        q.evaluate_masked(shard.low(), mask.as_ref()).unwrap()
                    };
                    let s = on(qa, sa).and(&on(qb, sb));
                    bld.append_wah(&s);
                }
                assert_eq!(bld.finish(), global_sel, "selection concat {qa:?}/{qb:?}");
                // merged partials finish to the exact unsharded answer
                let oracle = correlation_query_ml(&ia, &ib, qa, qb).unwrap();
                let mut acc = CorrelationPartial::zero(48, 48);
                let joint = stored_ranges(&[qa, qb], n as u64, None).unwrap();
                for (r, sa, sb) in &shards {
                    let p = correlation_partial_shard(
                        sa.low(),
                        sb.low(),
                        qa,
                        qb,
                        r.clone(),
                        joint.as_deref(),
                    )
                    .unwrap();
                    acc.merge(&p).unwrap();
                }
                let merged = finish_correlation(&binner, &binner, &acc);
                assert_eq!(merged, oracle, "finished partials {qa:?}/{qb:?}");
            }
        }
    }

    #[test]
    fn sharded_partials_match_under_row_reordering() {
        use ibis_core::{MultiLevelIndex, RowOrder};
        let n = 2048usize;
        let da: Vec<f64> = (0..n).map(|i| ((i * 17) % 90) as f64 / 9.0).collect();
        let db: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 90) as f64 / 9.0).collect();
        let binner = Binner::fixed_width(0.0, 10.0, 30);
        let dims = vec![64usize, 32];
        let perm = RowOrder::GrayBin
            .permutation(&dims, &binner, &da)
            .expect("graybin permutation");
        let ia = MultiLevelIndex::from_low(
            ibis_core::BitmapIndex::build_permuted(&da, binner.clone(), &perm),
            6,
        );
        let ib = MultiLevelIndex::from_low(
            ibis_core::BitmapIndex::build_permuted(&db, binner.clone(), &perm),
            6,
        );
        let qa = SubsetQuery::value(1.0, 7.5).with_region(128..1900);
        let qb = SubsetQuery::region(0..1500);
        let oracle = correlation_query_ml_mapped(&ia, &ib, &qa, &qb, &perm).unwrap();
        let cuts = [0u64, 500, 1024, n as u64];
        let mut acc = CorrelationPartial::zero(30, 30);
        let joint = stored_ranges(&[&qa, &qb], n as u64, Some(&perm)).unwrap();
        for w in cuts.windows(2) {
            let r = w[0]..w[1];
            let sa = MultiLevelIndex::from_low(ia.low().slice_rows(r.clone()), 6);
            let sb = MultiLevelIndex::from_low(ib.low().slice_rows(r.clone()), 6);
            let p = correlation_partial_shard(sa.low(), sb.low(), &qa, &qb, r, joint.as_deref())
                .unwrap();
            acc.merge(&p).unwrap();
        }
        assert_eq!(finish_correlation(&binner, &binner, &acc), oracle);
    }

    #[test]
    fn shard_evaluation_rejects_malformed_input() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let idx = BitmapIndex::build(&data, Binner::fixed_width(0.0, 10.0, 10));
        // shard range length must match the shard index
        let all = SubsetQuery::all();
        assert_eq!(
            correlation_partial_shard(&idx, &idx, &all, &all, 0..50, None),
            Err(QueryError::LengthMismatch {
                len_a: 100,
                len_b: 50
            })
        );
        // region bounds validate against the global length, as unsharded
        assert!(matches!(
            stored_ranges(&[&SubsetQuery::region(150..250)], 200, None),
            Err(QueryError::RegionOutOfRange { len: 200, .. })
        ));
    }

    /// Bins that hold a row twice (a lossy superset's overlap) make no
    /// partition: a count or a correlation over them is a typed error, while
    /// the probe, which needs none, still answers.
    #[test]
    fn a_statistic_over_no_partition_is_an_error_not_a_count() {
        let n = 100;
        let overlapping = BitmapIndex::from_bins(
            Binner::fixed_width(0.0, 10.0, 2),
            vec![WahVec::ones(n), WahVec::from_bits((0..n).map(|r| r < 40))],
        );
        let exact = index(&(0..n).map(|i| i as f64 / 10.0).collect::<Vec<_>>());
        let refused = QueryError::NotAPartition {
            rows: n,
            counted: 140,
        };
        let (q, all) = (SubsetQuery::value(0.0, 5.0), SubsetQuery::all());
        assert_eq!(q.count(&overlapping, None), Err(refused.clone()));
        let some = Some(std::slice::from_ref(&(3..9)));
        assert_eq!(q.count(&overlapping, some), Err(refused.clone()));
        assert_eq!(q.intersects(&overlapping, some), Ok(true));
        for (a, b) in [(&overlapping, &exact), (&exact, &overlapping)] {
            let got = correlation_partial_shard(a, b, &q, &all, 0..n, None);
            assert_eq!(got, Err(refused.clone()));
            let got = correlation_query(a, b, &q, &all).unwrap_err();
            assert_eq!(
                got.to_string(),
                "bins hold 140 rows of 100: not a partition"
            );
        }
    }

    #[test]
    fn query_means_are_bounded_estimates() {
        let data: Vec<f64> = (0..400).map(|i| (i % 40) as f64 / 4.0).collect();
        let idx = index(&data);
        let ans = correlation_query(
            &idx,
            &idx,
            &SubsetQuery::region(0..200),
            &SubsetQuery::all(),
        )
        .unwrap();
        let true_mean = data[..200].iter().sum::<f64>() / 200.0;
        assert!(ans.mean_a.unwrap().contains(true_mean));
    }
}
