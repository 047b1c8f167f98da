#![warn(missing_docs)]
// Non-test pipeline code must not panic on recoverable failures: every
// fallible path goes through `IbisError`. Tests keep their unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # ibis-insitu — the in-situ analysis pipeline
//!
//! Runs a simulation and its bitmap-based analysis together on a modeled
//! platform, reproducing the paper's Section 5 experiments:
//!
//! * [`machine`] — platform profiles (Xeon-32, MIC-60, Oakley node) with
//!   per-workload Amdahl scaling curves; compute phases are really executed
//!   and measured, core-count effects and I/O times are modeled.
//! * [`pipeline`] — the Shared-Cores and Separate-Cores strategies
//!   (Section 2.3), streaming greedy time-steps selection (Figure 3), and
//!   the three reductions: bitmaps, full data, sampling.
//! * [`mod@calibrate`] — the Equations 1–2 automatic core split.
//! * [`cluster`] — threads-as-nodes Heat3D with halo exchange, global
//!   selection via additive joint counts, and local vs contended-remote
//!   storage (Figure 13).
//! * [`io`] / [`memory`] / [`report`] — storage cost models (plus the
//!   index payload codec), the Figure 11 memory accounting, and result
//!   records.
//! * [`store`] / [`shard`] / [`cache`] / [`engine`] — the durable
//!   run-directory store; its split into `K ≥ 1` spatial shards (per-shard
//!   durable stores with independent crash-resume; a flat directory is the
//!   1-shard case); the lock-sharded byte-budgeted LRU read cache; and the
//!   one panic-free query engine over them — scatter-gather
//!   subset/correlation queries with byte-identical answers for every `K`,
//!   region-based shard pruning, lossy filter + exact refine, background
//!   compaction/eviction maintenance, and the JSON batch protocol for
//!   `ibis query`.
//! * [`serving`] — the overload-control shell around the engine: bounded
//!   admission with typed sheds, per-request deadlines, duplicate
//!   coalescing, a respawning worker pool, and a split-frame-safe TCP
//!   front end (`ibis serve`).

pub mod cache;
pub mod calibrate;
pub mod cluster;
pub mod crc;
pub mod engine;
pub mod error;
pub mod fault;
pub mod io;
pub mod json;
pub mod machine;
pub mod memory;
pub mod pipeline;
pub mod report;
pub mod retry;
pub mod serving;
pub mod shard;
pub mod store;

pub use cache::{CacheStats, CachedStore};
pub use engine::{QueryAnswer, QueryEngine, QueryRequest};

pub use calibrate::{auto_allocate, calibrate, suggest_row_order, Calibration};
pub use cluster::{run_cluster, ClusterConfig, ClusterIo, ClusterReduction, ClusterReport};
pub use error::{DecodeError, IbisError, Result, WorkerRole};
pub use fault::{FaultInjector, FaultPlan, FaultSite, WriteFault};
pub use io::{codec, LocalDisk, RemoteLink, Storage, StorageError};
pub use machine::{host_parallelism, modeled_seconds, MachineModel, ScalingModel};
pub use memory::MemoryTracker;
pub use pipeline::{
    resume_durable, run_durable, run_pipeline, CoreAllocation, FailurePolicy, PipelineConfig,
    Reduction, RobustnessConfig,
};
pub use report::{InsituReport, PhaseTimes, StepOutcome};
pub use retry::{write_with_retry, RetryPolicy, WriteReceipt};
pub use serving::{
    DeadlineStage, QueryServer, ServeConfig, ServeError, ServeResult, ServeStats, SocketServer,
    Ticket,
};
pub use shard::{
    is_sharded, shard_cuts, CompactReport, EngineBackend, MaintenanceConfig, MaintenanceReport,
    ShardedEngine, ShardedStore, ShardedWriter, SHARDS_FILE,
};
pub use store::{
    FsckReport, LossyCompanion, QuarantinedBlob, Store, StoreWriter, LOSSY_PREFIX, ORDER_VARIABLE,
};
