#![warn(missing_docs)]
//! # ibis-core — WAH bitmaps and bitmap indices for in-situ analysis
//!
//! The summary structure at the heart of the HPDC'15 paper *"In-Situ Bitmaps
//! Generation and Efficient Data Analysis based on Bitmaps"*:
//!
//! * [`WahVec`] — a WAH-compressed bitvector (31-bit segments, bit-counted
//!   fills) supporting AND/OR/NOT and popcounts directly on the compressed
//!   words.
//! * [`MultiCodecBuilder`] — the paper's Algorithm 1: streaming, in-place
//!   compression in O(bins + one 64Ki-row chunk) working state, each bin
//!   made in the codec it is stored in. Ingestion runs a fused bin+compress
//!   fast path ([`MultiCodecBuilder::extend_binned`]): 31-element segments
//!   are binned branchlessly, constant segments collapse into runs, and the
//!   rows of mixed segments land in Roaring array containers.
//!   [`WahBuilder`] / [`MultiWahBuilder`] build WAH an element at a time
//!   (the reference the fast path is tested against).
//! * [`Binner`] — value-to-bin mapping (distinct integers, fixed width,
//!   decimal precision, explicit edges; at most [`Binner::MAX_BINS`] bins)
//!   plus [`Binner::coarsen`] for multi-level indices.
//! * [`BitmapIndex`] / [`MultiLevelIndex`] — per-variable per-time-step
//!   indices; cached bin popcounts double as exact histograms.
//! * [`parallel`] — sub-block-parallel generation with 31-aligned seams
//!   (Figure 2's distributed bitmaps generation).
//! * [`ZOrderLayout`] — Morton-order traversal so contiguous bit ranges are
//!   compact spatial blocks (the miner's spatial units).
//! * [`Bitset`] — uncompressed oracle/baseline.
//! * [`RoaringVec`] and [`CodecVec`] — a read-only Roaring-style container
//!   form for stored bins plus per-bin codec auto-selection
//!   ([`select_codec`]), for the scattered-bit patterns where WAH
//!   degenerates to literal words.

mod binning;
mod builder;
pub mod codec;
mod index;
mod kernels;
pub mod lossy;
mod multilevel;
mod ops;
pub mod parallel;
pub mod roaring;
pub mod roworder;
mod runs;
mod verbatim;
pub mod wah;
pub mod zorder;

pub use binning::{Binner, BinnerSpec};
pub use builder::{MultiCodecBuilder, MultiWahBuilder, WahBuilder};
pub use codec::{select_codec, CodecId, CodecVec};
pub use index::{BitmapIndex, RangeQueryError};
pub use kernels::{DenseBits, WahStats};
pub use lossy::{build_lossy_index, valid_fpr, LossyStats, FPR_MAX, FPR_MIN};
pub use multilevel::MultiLevelIndex;
pub use parallel::{aligned_partition, build_index_parallel, build_index_parallel_permuted};
pub use roaring::{ContainerForm, Piece, RoaringVec, ARRAY_MAX, CONTAINER_BITS};
pub use roworder::{RowOrder, RowPermutation};
pub use runs::{Ones, OnesCursor};
pub use verbatim::{build_index_two_phase, Bitset};
pub use wah::{RawWahError, WahVec};
pub use zorder::ZOrderLayout;
