#![warn(missing_docs)]
//! # ibis-analysis — online and offline analytics on bitmaps
//!
//! Every analysis in the paper, in both its *full data* form (scans over raw
//! arrays) and its *bitmaps* form (popcounts, AND counts and one-pass
//! label walks on [`ibis_core::BitmapIndex`]) — with **exactly equal
//! results** under the same binning scale, the paper's central
//! no-accuracy-loss claim (asserted bit-for-bit by this crate's tests).
//! Every bitmap statistic is a sum of label counts, so each one reads
//! indices whose bins partition their rows, as every index built from data
//! does; a lossy superset is a filter for `SubsetQuery::intersects` only:
//!
//! * [`entropy`] — Shannon entropy, mutual information, conditional entropy
//!   (Equations 4–6).
//! * [`emd`] — Earth Mover's Distance, count-based and spatial/XOR variants
//!   (Equation 3, Figure 4).
//! * [`selection`] — greedy importance-driven time-steps selection with
//!   fixed-length and information-volume partitioning, plus a
//!   dynamic-programming selector (Section 3).
//! * [`mining`] — correlation mining over value and spatial subsets
//!   (Algorithm 2), single- and multi-level.
//! * [`sampling`] — the in-situ sampling baseline and its information-loss
//!   measurements (Section 5.5).
//! * [`cfp`] — cumulative frequency plots, the paper's accuracy-loss
//!   presentation.
//! * [`aggregate`] / [`query`] — the prior-work capabilities the paper
//!   builds on: approximate aggregation with guaranteed error bounds, and
//!   correlation queries over value/dimension subsets (Section 4.1).

pub mod aggregate;
pub mod cfp;
pub mod emd;
pub mod entropy;
pub mod histogram;
pub mod mining;
pub mod query;
pub mod sampling;
pub mod selection;
pub mod summary;

pub use aggregate::Estimate;
pub use cfp::Cfp;
pub use histogram::{
    joint_counts, joint_counts_and_table, joint_counts_per_range, joint_counts_where,
};
pub use mining::{mine_full, mine_index, mine_multilevel, MinedSubset, MiningConfig, MiningResult};
pub use query::{
    correlation_partial_shard, correlation_query, correlation_query_mapped, correlation_query_ml,
    correlation_query_ml_mapped, count_range_plan, execute_range_plan, finish_correlation,
    plan_value_range, shard_mask, shard_ranges, stored_ranges, CorrelationAnswer,
    CorrelationPartial, QueryError, RangePlan, SubsetQuery,
};
pub use sampling::{sample, SamplingMethod};
pub use selection::{select_dp, select_greedy, Partitioning, Selection};
pub use summary::{Metric, StepSummary, VarSummary};
