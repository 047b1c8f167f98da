//! The in-situ pipeline (Sections 2.3 and 3, Figures 2 and 3): simulate →
//! reduce (bitmaps / sampling / nothing) → select time-steps → write the
//! selected summaries.
//!
//! A run is three parts, and only the first and last come in variants:
//!
//! * a **producer** makes steps. Under **Shared Cores** it is inline —
//!   every phase uses all the cores and phases alternate: simulate a step,
//!   pause the simulation, consume the step, continue. Under **Separate
//!   Cores** it is the simulation core set on its own thread, streaming
//!   steps into a bounded **data queue** (a crossbeam channel whose
//!   capacity models the memory budget) that the bitmap cores drain
//!   concurrently.
//! * `StepLoop::consume` is what happens to a produced step, whoever
//!   produced it: contain the reduction, account its memory, offer the
//!   summary to the streaming greedy selector of Figure 3 (fixed-length
//!   intervals: one interval of summaries is buffered, each is scored
//!   against the previously selected step when the interval completes, the
//!   most dissimilar one is kept and the rest freed) and hand a winner to
//!   the sink.
//! * a **sink** writes winners: the modeled [`Storage`] of
//!   [`run_pipeline`], or the checksummed [`StoreWriter`] directory of
//!   [`run_durable`] / [`resume_durable`], which also checkpoints the
//!   selector after every step so a killed run resumes to a byte-identical
//!   store. Nothing in `consume` depends on the producer, so durable runs
//!   accept either allocation and leave the same bytes.
//!
//! ## Fault tolerance
//!
//! Because the bitmap store *replaces* the raw output, the pipeline must
//! not lose data silently. Every per-step body — the simulation step, the
//! reduction, the sampling fallback — runs under `catch_unwind`; a
//! contained panic is resolved by the configured [`FailurePolicy`]: abort
//! with a structured [`IbisError`], skip the step (recorded as a
//! [`StepOutcome`]), or rebuild the summary from the Section 6 sampling
//! baseline. Under Separate-Cores a dead consumer drops the queue receiver
//! so the blocked producer unblocks immediately (its `send` fails) instead
//! of deadlocking, and a dead producer's steps are reported step-by-step
//! rather than hanging the consumer. Modeled writes go through
//! [`write_with_retry`] with exponential backoff and a deadline. All fault
//! handling is deterministic: the same
//! [`FaultPlan`](crate::fault::FaultPlan) produces the same failure report
//! (same error value, same step outcomes, same event log) on every run and
//! under either allocation.
//!
//! ## Durable ordering
//!
//! Within one step the durable sink makes the winner's blobs durable
//! (`write` + `fsync` + `rename` each — the row permutation before the
//! indices built under it, which mean nothing without it), then their
//! journal lines (`fsync`ed), and only then rewrites the `CHECKPOINT`
//! (`fsync` + `rename`) that names the winner. A checkpoint on disk
//! therefore implies the journal lines of everything it names, which
//! imply the blobs; a crash in between leaves the older checkpoint, and
//! the re-run step re-puts its winner idempotently. Resume replays the
//! checkpoint's completed prefix into a fresh simulation — a
//! Separate-Cores producer's run-ahead is never persisted.
use crate::error::{panic_message, IbisError, Result, WorkerRole};
use crate::fault::{FaultInjector, FaultSite};
use crate::io::{codec, write_atomic, Storage};
use crate::machine::{
    decontend, modeled_seconds, timed_in_pool, MachineModel, PhaseClock, ScalingModel,
};
use crate::memory::MemoryTracker;
use crate::report::{InsituReport, PhaseTimes, StepOutcome};
use crate::retry::{write_with_retry, RetryPolicy};
use crate::store::{frame, unframe, Kind, Store, StoreWriter, ORDER_VARIABLE};
use ibis_analysis::sampling::{sample, SamplingMethod};
use ibis_analysis::selection::fixed_intervals;
use ibis_analysis::{Metric, StepSummary, VarSummary};
use ibis_core::{
    build_index_parallel, build_index_parallel_permuted, Binner, RowOrder, RowPermutation,
};
use ibis_datagen::{Simulation, StepOutput};
use ibis_obs::{LazyCounter, LazyGauge, LazyHistogram};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Pipeline metrics (family `pipeline`, see DESIGN.md §6e). The
// shared/separate step counters calibrate the paper's Equations 1-2 core
// accounting; the queue gauge and stall counter make the Separate-Cores
// memory bound and backpressure observable. All no-ops without `obs`.
static OBS_RUNS: LazyCounter = LazyCounter::new("pipeline.runs");
static OBS_RUN_WALL_NS: LazyCounter = LazyCounter::new("pipeline.run.wall_ns");
static OBS_SHARED_STEPS: LazyCounter = LazyCounter::new("pipeline.shared.steps");
static OBS_SEPARATE_STEPS: LazyCounter = LazyCounter::new("pipeline.separate.steps");
static OBS_PRODUCE_NS: LazyHistogram =
    LazyHistogram::new("pipeline.step.produce_ns", ibis_obs::TIME_NS_BOUNDS);
static OBS_COMPRESS_NS: LazyHistogram =
    LazyHistogram::new("pipeline.step.compress_ns", ibis_obs::TIME_NS_BOUNDS);
static OBS_SELECT_NS: LazyCounter = LazyCounter::new("pipeline.select.ns");
static OBS_STORE_WRITES: LazyCounter = LazyCounter::new("pipeline.store.writes");
static OBS_STORE_MODELED_US: LazyCounter = LazyCounter::new("pipeline.store.modeled_us");
/// Steps successfully enqueued and not yet accounted by the consumer:
/// the queue contents plus at most the one message the consumer has just
/// popped but not yet decremented, so the watermark is bounded by
/// `queue_capacity + 1` (published as `pipeline.queue.bound`). Each
/// consumer receive is preceded, in consumer program order, by the
/// previous message's decrement, which is what makes the bound hold.
static OBS_QUEUE_IN_FLIGHT: LazyGauge = LazyGauge::new("pipeline.queue.in_flight");
static OBS_QUEUE_BOUND: LazyGauge = LazyGauge::new("pipeline.queue.bound");
static OBS_QUEUE_STALLS: LazyCounter = LazyCounter::new("pipeline.queue.stalls");
static OBS_QUEUE_STALL_NS: LazyCounter = LazyCounter::new("pipeline.queue.stall_ns");
/// Steps whose summaries were built under a non-identity row permutation
/// (family `reorder`, see DESIGN.md §6j).
static OBS_REORDER_STEPS: LazyCounter = LazyCounter::new("reorder.pipeline.steps");
/// Summaries transiently restored to original row order so that cross-step
/// metrics compare aligned rows (see [`restored_summary`]).
static OBS_REORDER_RESTORES: LazyCounter = LazyCounter::new("reorder.metric.restores");

/// What each time-step is reduced to before the raw data is discarded.
#[derive(Debug, Clone)]
pub enum Reduction {
    /// WAH bitmap indices (the paper's method) — raw data freed afterwards.
    Bitmaps,
    /// Keep the raw arrays (the *full data* baseline).
    FullData,
    /// Keep a sample of the elements (the Section 5.5 baseline).
    Sampling {
        /// Percentage of elements kept, in `(0, 100]`.
        percent: f64,
        /// Element-choice policy.
        method: SamplingMethod,
    },
}

/// How cores are divided between simulation and reduction (Section 2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreAllocation {
    /// All cores alternate between the phases.
    Shared,
    /// Dedicated sets running concurrently, joined by the data queue.
    Separate {
        /// Cores running the simulation.
        sim_cores: usize,
        /// Cores generating bitmaps.
        bitmap_cores: usize,
    },
}

/// What to do when a worker's per-step work panics.
#[derive(Debug, Clone, Default)]
pub enum FailurePolicy {
    /// Contain the panic and abort the run with a structured error.
    #[default]
    Abort,
    /// Drop the failed step, record it, and keep going.
    SkipStep,
    /// Rebuild the failed step's summary from the Section 6 sampling
    /// baseline (sample the raw data, then reduce the sample); if the
    /// fallback fails too the step is recorded as failed and dropped.
    /// Steps summarized this way are scored against the selection history
    /// by entropy difference (the paper's importance measure), since a
    /// sampled summary covers fewer elements than a full one.
    FallbackSampling {
        /// Percentage of elements kept by the fallback, in `(0, 100]`.
        percent: f64,
        /// Element-choice policy of the fallback.
        method: SamplingMethod,
    },
}

/// Fault-tolerance knobs of a run. `Default` is a clean, strict run:
/// abort on any contained panic, retry storage with the default schedule,
/// inject nothing.
#[derive(Debug, Clone, Default)]
pub struct RobustnessConfig {
    /// Panic-containment policy.
    pub policy: FailurePolicy,
    /// Retry schedule for storage writes.
    pub retry: RetryPolicy,
    /// Deterministic fault plan (empty = no injection).
    pub faults: crate::fault::FaultPlan,
}

/// Full configuration of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Platform profile (core budget, core speed, disk bandwidth).
    pub machine: MachineModel,
    /// Cores used by this run (≤ `machine.total_cores`).
    pub cores: usize,
    /// Core-allocation strategy.
    pub allocation: CoreAllocation,
    /// Reduction method.
    pub reduction: Reduction,
    /// Time-steps to simulate.
    pub steps: usize,
    /// Time-steps to select (K of N).
    pub select_k: usize,
    /// Correlation metric for selection.
    pub metric: Metric,
    /// One binning scale per simulation output field, shared by every
    /// time-step (so cross-step metrics are well-defined). Ignored when
    /// `per_step_precision` is set.
    pub binners: Vec<Binner>,
    /// The paper's actual Heat3D configuration: bin each step to this many
    /// decimal digits over *that step's own value range*, anchored to a
    /// shared lattice (their runs used 64–206 bitvectors depending on the
    /// step's temperature range). Cross-step EMD uses the lattice-aligned
    /// variants; conditional entropy needs no alignment.
    pub per_step_precision: Option<i32>,
    /// Row layout bitmap summaries are built under: each step's rows are
    /// permuted by this order before the fused bin+compress pass, trading
    /// an O(n) gather for longer constant runs (smaller bitmaps). Queries
    /// stay in original row ids — the durable path persists each step's
    /// inverse permutation next to its indices and the query engine maps
    /// selections back transparently. [`RowOrder::Identity`] (the
    /// default) is the pre-reorder pipeline, byte-identical stores
    /// included.
    pub row_order: RowOrder,
    /// Data-queue capacity for Separate-Cores (steps buffered between the
    /// simulation and bitmap cores; bounds memory).
    pub queue_capacity: usize,
    /// Scalability curve of the simulation workload.
    pub sim_scaling: ScalingModel,
    /// Fault-tolerance configuration (policy, retry schedule, injection).
    pub robustness: RobustnessConfig,
}

impl PipelineConfig {
    fn validate(&self) -> Result<()> {
        if self.cores < 1 || self.cores > self.machine.total_cores {
            return Err(IbisError::Config(format!(
                "bad core count {} (machine has {})",
                self.cores, self.machine.total_cores
            )));
        }
        if self.steps < 1 {
            return Err(IbisError::Config("need at least one step".into()));
        }
        if self.select_k < 1 || self.select_k > self.steps {
            return Err(IbisError::Config(format!(
                "cannot select {} of {} steps",
                self.select_k, self.steps
            )));
        }
        if self.binners.is_empty() && self.per_step_precision.is_none() {
            return Err(IbisError::Config(
                "need binners or per-step precision".into(),
            ));
        }
        if let CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } = self.allocation
        {
            if sim_cores < 1 || bitmap_cores < 1 {
                return Err(IbisError::Config("both core sets must be non-empty".into()));
            }
            if sim_cores + bitmap_cores > self.cores {
                return Err(IbisError::Config(format!(
                    "separate sets exceed the core budget ({sim_cores}+{bitmap_cores} > {})",
                    self.cores
                )));
            }
            if self.queue_capacity < 1 {
                return Err(IbisError::Config("data queue needs capacity".into()));
            }
        }
        self.robustness.retry.validate()
    }
}

/// The one row permutation a step's bitmaps are built under: computed
/// from the first field (binned by `first_binner`) and applied to every
/// field, so cross-variable correlation bitmaps stay row-aligned — which
/// needs every field on the same grid, so steps whose fields differ in
/// length keep their original order. `None` is the identity layout.
pub fn step_permutation(
    out: &StepOutput,
    row_order: RowOrder,
    first_binner: &Binner,
) -> Option<RowPermutation> {
    let f0 = out.fields.first()?;
    if out.fields.iter().any(|f| f.data.len() != f0.data.len()) {
        return None;
    }
    row_order.permutation(&[], first_binner, &f0.data)
}

/// Builds the summary of one step under the configured reduction; returns
/// the summary plus the row permutation it was built under (`None` for
/// identity layouts and non-bitmap reductions).
///
/// Bitmap reductions go through [`build_index_parallel`], which runs the
/// fused bin+compress fast path per sub-block on per-thread reusable
/// builder scratch — both Shared and Separate allocations stop paying
/// per-step binning/builder allocations in steady state. Under a
/// non-identity [`RowOrder`] the same pass runs permuted
/// ([`build_index_parallel_permuted`]) under the step's one
/// [`step_permutation`].
fn summarize(
    out: &StepOutput,
    reduction: &Reduction,
    binners: &[Binner],
    per_step_precision: Option<i32>,
    row_order: RowOrder,
) -> (StepSummary, Option<Arc<RowPermutation>>) {
    let binners: Vec<Binner> = match per_step_precision {
        Some(digits) => out
            .fields
            .iter()
            .map(|f| Binner::fit_precision_anchored(&f.data, digits))
            .collect(),
        None => {
            assert_eq!(
                out.fields.len(),
                binners.len(),
                "one binner per field required"
            );
            binners.to_vec()
        }
    };
    let perm = match (reduction, binners.first()) {
        (Reduction::Bitmaps, Some(first)) => step_permutation(out, row_order, first).map(Arc::new),
        _ => None,
    };
    if perm.is_some() {
        OBS_REORDER_STEPS.inc();
    }
    let vars = out
        .fields
        .iter()
        .zip(binners)
        .map(|(f, binner)| match reduction {
            Reduction::Bitmaps => VarSummary::Bitmap(match &perm {
                Some(p) => build_index_parallel_permuted(&f.data, binner, p),
                None => build_index_parallel(&f.data, binner),
            }),
            Reduction::FullData => VarSummary::full(f.data.clone(), binner),
            Reduction::Sampling { percent, method } => {
                VarSummary::full(sample(&f.data, *percent, *method), binner)
            }
        })
        .collect();
    (
        StepSummary {
            step: out.step,
            vars,
        },
        perm,
    )
}

/// The sampling-baseline fallback: sample each field, then reduce the
/// sample with the run's reduction *kind* so summary kinds stay
/// homogeneous (a bitmaps run gets a bitmap over the sample, a full-data
/// or sampling run gets the sampled array).
fn fallback_summarize(
    out: &StepOutput,
    reduction: &Reduction,
    percent: f64,
    method: SamplingMethod,
    binners: &[Binner],
    per_step_precision: Option<i32>,
) -> StepSummary {
    let vars = out
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let binner = match per_step_precision {
                Some(digits) => Binner::fit_precision_anchored(&f.data, digits),
                None => binners[i].clone(),
            };
            let sampled = sample(&f.data, percent, method);
            match reduction {
                Reduction::Bitmaps => VarSummary::Bitmap(build_index_parallel(&sampled, binner)),
                _ => VarSummary::full(sampled, binner),
            }
        })
        .collect();
    StepSummary {
        step: out.step,
        vars,
    }
}

/// Streaming greedy selection over fixed-length intervals (Figure 3): holds
/// the current interval's summaries, scores them against the previous
/// selection at interval end, emits the winner. Fault-aware: seeds on the
/// first *successful* step, tolerates skipped steps (an interval whose
/// steps all failed simply emits nothing), and scores degraded (fallback)
/// summaries by entropy difference instead of the full metric.
struct StreamingSelector {
    intervals: Vec<std::ops::Range<usize>>,
    cur: usize,
    /// The previously selected summary, whether it is degraded, and the
    /// row permutation it was built under (the durable path persists it
    /// next to the winner's indices).
    prev: Option<Held>,
    buffer: Vec<(usize, StepSummary, bool, Option<Arc<RowPermutation>>)>,
    selected: Vec<usize>,
    metric: Metric,
    /// Metric-evaluation time (measured).
    select_time: Duration,
}

/// A summary held by the selector: the summary, whether it is degraded,
/// and the row permutation it was built under.
type Held = (StepSummary, bool, Option<Arc<RowPermutation>>);

/// A summary the selector decided to keep — must be written out.
struct Emitted {
    step: usize,
    summary_bytes: u64,
}

/// The summary re-expressed in original row order, for metric scoring.
///
/// Data-dependent orders give every step its *own* permutation, so two
/// reordered summaries share no common row space: the row-alignment-
/// sensitive metrics (conditional entropy's joint counts, spatial EMD's
/// per-bin XOR) would compare unrelated rows and steer the selection away
/// from the identity-order run's. Restoring both sides before scoring
/// keeps the selection byte-identical to an identity-order run. The
/// restore is transient — O(n) per variable, alive only while one
/// interval is scored — and the persisted form stays reordered.
fn restored_summary(s: &StepSummary, perm: &RowPermutation) -> StepSummary {
    OBS_REORDER_RESTORES.inc();
    StepSummary {
        step: s.step,
        vars: s
            .vars
            .iter()
            .map(|v| match v {
                VarSummary::Bitmap(idx) => VarSummary::Bitmap(idx.unpermute(perm)),
                // Full summaries are never built under a permutation (the
                // reorder pass is fused into the bitmap build).
                full @ VarSummary::Full { .. } => full.clone(),
            })
            .collect(),
    }
}

/// [`restored_summary`] as a borrow-when-identity view.
fn restored_view<'a>(
    s: &'a StepSummary,
    perm: Option<&RowPermutation>,
) -> std::borrow::Cow<'a, StepSummary> {
    match perm {
        Some(p) => std::borrow::Cow::Owned(restored_summary(s, p)),
        None => std::borrow::Cow::Borrowed(s),
    }
}

impl StreamingSelector {
    fn new(steps: usize, k: usize, metric: Metric) -> Self {
        let intervals = if k > 1 {
            fixed_intervals(steps, k - 1)
        } else {
            Vec::new()
        };
        StreamingSelector {
            intervals,
            cur: 0,
            prev: None,
            buffer: Vec::new(),
            selected: Vec::new(),
            metric,
            select_time: Duration::ZERO,
        }
    }

    /// Offers the next step's summary; returns a selection event if one was
    /// emitted, plus the bytes of summaries freed.
    fn offer(
        &mut self,
        idx: usize,
        summary: StepSummary,
        degraded: bool,
        perm: Option<Arc<RowPermutation>>,
        mem: &MemoryTracker,
    ) -> Option<Emitted> {
        if self.prev.is_none() {
            // The first successful step seeds the selection (step 0 on a
            // clean run).
            let bytes = summary.size_bytes() as u64;
            self.selected.push(idx);
            self.prev = Some((summary, degraded, perm));
            let _ = self.close_due(idx, mem); // buffer is empty: advances only
            return Some(Emitted {
                step: idx,
                summary_bytes: bytes,
            });
        }
        self.buffer.push((idx, summary, degraded, perm));
        self.close_due(idx, mem)
    }

    /// Records that step `idx` produced no summary (skipped/failed), still
    /// advancing interval bookkeeping so later intervals do not stall.
    fn note_skipped(&mut self, idx: usize, mem: &MemoryTracker) -> Option<Emitted> {
        self.close_due(idx, mem)
    }

    /// Closes every interval that ends at or before `idx + 1`, emitting
    /// that interval's winner (at most one interval has a non-empty
    /// buffer, so at most one emission results).
    fn close_due(&mut self, idx: usize, mem: &MemoryTracker) -> Option<Emitted> {
        let mut emitted = None;
        while self
            .intervals
            .get(self.cur)
            .is_some_and(|iv| idx + 1 >= iv.end)
        {
            self.cur += 1;
            if self.buffer.is_empty() {
                continue; // every step of the interval failed: emit nothing
            }
            let Some((prev, prev_degraded, prev_perm)) = self.prev.as_ref() else {
                // unreachable (buffer only fills after seeding) — but if it
                // ever happened, dropping the buffer beats panicking
                for (_, s, _, _) in self.buffer.drain(..) {
                    mem.free(s.size_bytes() as u64);
                }
                continue;
            };
            // Score the interval against the previous selection; keep the
            // max. Reordered summaries are restored to original row order
            // first, so cross-step metrics always compare aligned rows
            // (entropy is count-based and needs no restore).
            let t0 = PhaseClock::start();
            let prev_view = restored_view(prev, prev_perm.as_deref());
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (pos, (_, s, degraded, perm)) in self.buffer.iter().enumerate() {
                let score = if *degraded || *prev_degraded {
                    (s.entropy() - prev.entropy()).abs()
                } else {
                    restored_view(s, perm.as_deref()).metric(&prev_view, self.metric)
                };
                if score > best_score {
                    best_score = score;
                    best = pos;
                }
            }
            self.select_time += t0.elapsed();
            let prev_bytes = prev.size_bytes() as u64;
            let mut winner = None;
            for (pos_i, entry) in self.buffer.drain(..).enumerate() {
                if pos_i == best {
                    winner = Some(entry);
                } else {
                    mem.free(entry.1.size_bytes() as u64);
                }
            }
            if let Some((widx, wsum, wdeg, wperm)) = winner {
                let bytes = wsum.size_bytes() as u64;
                self.selected.push(widx);
                // the previous selection is no longer needed in memory
                mem.free(prev_bytes);
                self.prev = Some((wsum, wdeg, wperm));
                emitted = Some(Emitted {
                    step: widx,
                    summary_bytes: bytes,
                });
            }
        }
        emitted
    }

    fn finish(self, mem: &MemoryTracker) -> (Vec<usize>, Duration) {
        for (_, s, _, _) in self.buffer {
            mem.free(s.size_bytes() as u64);
        }
        if let Some((p, _, _)) = self.prev {
            mem.free(p.size_bytes() as u64);
        }
        (self.selected, self.select_time)
    }
}

/// Runs the pipeline on a simulation, writing selected summaries to
/// `storage`. Returns the full report, or a structured error — a panic in
/// any worker, an exhausted storage retry, or an injected kill all surface
/// here instead of unwinding or deadlocking.
pub fn run_pipeline<S: Simulation>(
    sim: S,
    cfg: &PipelineConfig,
    storage: &dyn Storage,
) -> Result<InsituReport> {
    cfg.validate()?;
    let injector = FaultInjector::new(cfg.robustness.faults.clone());
    run(
        sim,
        cfg,
        &injector,
        Sink::Modeled(storage),
        CheckpointState::default(),
    )
}

fn reduce_scaling(reduction: &Reduction) -> ScalingModel {
    match reduction {
        // sampling is a trivially parallel copy; bitmaps near-linear
        Reduction::Bitmaps | Reduction::Sampling { .. } => ScalingModel::bitmap_gen(),
        Reduction::FullData => ScalingModel::new(0.0),
    }
}

fn field_names_of(out: &StepOutput) -> Vec<String> {
    out.fields.iter().map(|f| f.name.to_string()).collect()
}

/// Advances the simulation one step under `catch_unwind` — what both
/// producers do per step. The new raw output is charged to `mem` here and
/// released by [`StepLoop::consume`]; a contained panic comes back as its
/// message, for `consume` to resolve per the failure policy.
fn produce<S: Simulation>(
    sim: &mut S,
    i: usize,
    pool: &rayon::ThreadPool,
    injector: &FaultInjector,
    mem: &MemoryTracker,
    sim_t: &mut Duration,
) -> std::result::Result<StepOutput, String> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        timed_in_pool(pool, || {
            injector.maybe_panic(FaultSite::Producer, i);
            sim.step()
        })
    }));
    match attempt {
        Ok((out, spent)) => {
            *sim_t += spent;
            OBS_PRODUCE_NS.record(spent.as_nanos() as u64);
            mem.alloc(out.size_bytes() as u64);
            Ok(out)
        }
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// Everything a run carries from step to step, and the one place a
/// produced step is consumed.
struct StepLoop<'a> {
    cfg: &'a PipelineConfig,
    injector: &'a FaultInjector,
    /// The pool reductions run in: every core under Shared-Cores, the
    /// bitmap core set under Separate-Cores.
    pool: &'a rayon::ThreadPool,
    mem: &'a MemoryTracker,
    selector: StreamingSelector,
    outcomes: Vec<StepOutcome>,
    totals: RunTotals,
    /// The simulation's field names in field order, known once a step has
    /// been seen (the durable sink names its blobs by them).
    field_names: Option<Vec<String>>,
    /// Reduction time (measured).
    reduce_t: Duration,
}

impl StepLoop<'_> {
    /// Reduces one step under `catch_unwind` and records its outcome,
    /// resolving a panic per the failure policy; `None` means the step is
    /// gone. The injected consumer panic (if scheduled for this step)
    /// fires inside the protected region.
    fn contained_summarize(&mut self, out: &StepOutput, i: usize) -> Result<Option<Held>> {
        let (cfg, pool, injector) = (self.cfg, self.pool, self.injector);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            timed_in_pool(pool, || {
                injector.maybe_panic(FaultSite::Consumer, i);
                summarize(
                    out,
                    &cfg.reduction,
                    &cfg.binners,
                    cfg.per_step_precision,
                    cfg.row_order,
                )
            })
        }));
        let msg = match attempt {
            Ok(((summary, perm), spent)) => {
                self.reduce_t += spent;
                OBS_COMPRESS_NS.record(spent.as_nanos() as u64);
                self.outcomes.push(StepOutcome::Completed);
                return Ok(Some((summary, false, perm)));
            }
            Err(payload) => panic_message(payload.as_ref()),
        };
        let reason = format!("summarize panicked: {msg}");
        match &cfg.robustness.policy {
            FailurePolicy::Abort => Err(IbisError::WorkerPanic {
                role: WorkerRole::Consumer,
                step: Some(i),
                message: msg,
            }),
            FailurePolicy::SkipStep => {
                self.outcomes.push(StepOutcome::Skipped { reason });
                Ok(None)
            }
            FailurePolicy::FallbackSampling { percent, method } => {
                let fallback = catch_unwind(AssertUnwindSafe(|| {
                    timed_in_pool(pool, || {
                        fallback_summarize(
                            out,
                            &cfg.reduction,
                            *percent,
                            *method,
                            &cfg.binners,
                            cfg.per_step_precision,
                        )
                    })
                }));
                match fallback {
                    // Fallback summaries cover a sampled subset, so the
                    // step's permutation doesn't apply: stored identity.
                    Ok((summary, spent)) => {
                        self.reduce_t += spent;
                        self.outcomes.push(StepOutcome::FallbackSampled { reason });
                        Ok(Some((summary, true, None)))
                    }
                    Err(payload) => {
                        self.outcomes.push(StepOutcome::Failed {
                            error: format!(
                                "summarize panicked ({msg}); sampling fallback also panicked ({})",
                                panic_message(payload.as_ref())
                            ),
                        });
                        Ok(None)
                    }
                }
            }
        }
    }

    /// Consumes step `i` — a produced output, or the message of the panic
    /// that ate it: reduce, account memory, offer to the selector, hand a
    /// winner to the sink, and let the sink close the step. An injected
    /// kill at `i` fires first, so what the sink last closed is step
    /// `i - 1`.
    fn consume(
        &mut self,
        i: usize,
        produced: std::result::Result<StepOutput, String>,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        if self.injector.should_kill_at(i) {
            return Err(IbisError::Killed { step: i });
        }
        let kept = match produced {
            Ok(out) => {
                let raw = out.size_bytes() as u64; // charged by `produce`
                self.totals.raw_bytes_per_step = raw;
                self.field_names.get_or_insert_with(|| field_names_of(&out));
                let kept = self.contained_summarize(&out, i)?;
                if let Some((summary, _, _)) = &kept {
                    let sbytes = summary.size_bytes() as u64;
                    self.totals.summary_bytes_total += sbytes;
                    self.mem.alloc(sbytes);
                }
                drop(out);
                self.mem.free(raw); // raw data discarded once the summary exists
                kept
            }
            Err(message) if matches!(self.cfg.robustness.policy, FailurePolicy::Abort) => {
                return Err(IbisError::WorkerPanic {
                    role: WorkerRole::Producer,
                    step: Some(i),
                    message,
                });
            }
            // no data to fall back on: both lenient policies skip
            Err(msg) => {
                self.outcomes.push(StepOutcome::Skipped {
                    reason: format!("producer panicked: {msg}"),
                });
                None
            }
        };
        let emitted = match kept {
            Some((summary, degraded, perm)) => {
                self.selector.offer(i, summary, degraded, perm, self.mem)
            }
            None => self.selector.note_skipped(i, self.mem),
        };
        if let Some(e) = emitted {
            sink.persist(&e, self)?;
        }
        sink.close_step(i + 1, self)
    }

    /// Ends the run: frees what the selector still holds and models the
    /// phase times. Shared-Cores phases alternate on one pool, so they
    /// sum; Separate-Cores simulation overlaps reduction + selection (which
    /// rides the bitmap cores), and a pool wider than one thread was
    /// measured by wall clock next to the other pool, so it takes the
    /// host-contention correction (one-thread pools were measured in
    /// thread CPU time, exact under oversubscription).
    fn into_report(self, sim_t: Duration, sim_threads: usize, wall0: Instant) -> InsituReport {
        let cfg = self.cfg;
        let threads = self.pool.current_num_threads();
        let (selected, select_t) = self.selector.finish(self.mem);
        OBS_SELECT_NS.add(select_t.as_nanos() as u64);
        let (sim_cores, reduce_cores, overlap) = match cfg.allocation {
            CoreAllocation::Shared => (cfg.cores, cfg.cores, false),
            CoreAllocation::Separate {
                sim_cores,
                bitmap_cores,
            } => (sim_cores, bitmap_cores, true),
        };
        let measured = |t: Duration, width: usize| {
            if overlap && width > 1 {
                decontend(t, sim_threads + threads)
            } else {
                t
            }
        };
        let speed = cfg.machine.core_speed;
        let phases = PhaseTimes {
            simulate: modeled_seconds(
                measured(sim_t, sim_threads),
                sim_threads,
                sim_cores,
                &cfg.sim_scaling,
                speed,
            ),
            reduce: modeled_seconds(
                measured(self.reduce_t, threads),
                threads,
                reduce_cores,
                &reduce_scaling(&cfg.reduction),
                speed,
            ),
            select: modeled_seconds(
                measured(select_t, threads),
                threads,
                reduce_cores,
                &ScalingModel::selection(),
                speed,
            ),
            output: self.totals.output_modeled,
        };
        let total_modeled = if overlap {
            phases.simulate.max(phases.reduce + phases.select) + phases.output
        } else {
            phases.sum()
        };
        InsituReport {
            phases,
            total_modeled,
            wall_seconds: wall0.elapsed().as_secs_f64(),
            selected,
            peak_memory_bytes: self.mem.peak(),
            bytes_written: self.totals.bytes_written,
            raw_bytes_per_step: self.totals.raw_bytes_per_step,
            summary_bytes_total: self.totals.summary_bytes_total,
            steps: cfg.steps,
            step_outcomes: self.outcomes,
            fault_events: self.injector.events(),
        }
    }
}

/// Where winners go.
enum Sink<'a> {
    /// The modeled platform storage: a winner is its size, shipped through
    /// the retrying write path.
    Modeled(&'a dyn Storage),
    /// A checksummed run directory: a winner's indices (and row
    /// permutation) are put to the store, and every step ends with an
    /// atomic `CHECKPOINT` of the selector.
    Durable { writer: StoreWriter, dir: &'a Path },
}

impl Sink<'_> {
    /// Writes the winner the selector just emitted (it is the selector's
    /// `prev`) and charges the write to the run's totals.
    fn persist(&mut self, e: &Emitted, lp: &mut StepLoop<'_>) -> Result<()> {
        match self {
            Sink::Modeled(storage) => {
                let receipt = write_with_retry(
                    *storage,
                    lp.injector,
                    &lp.cfg.robustness.retry,
                    lp.totals.output_modeled,
                    e.summary_bytes,
                )?;
                OBS_STORE_WRITES.inc();
                OBS_STORE_MODELED_US.add((receipt.seconds * 1e6) as u64);
                lp.totals.output_modeled += receipt.seconds;
            }
            Sink::Durable { writer, .. } => {
                let (Some((summary, _, perm)), Some(names)) = (&lp.selector.prev, &lp.field_names)
                else {
                    return Err(IbisError::Config(
                        "selection emitted before any step was summarized".into(),
                    ));
                };
                if let Some(perm) = perm {
                    // The winner's indices are stored permuted and mean
                    // nothing without the permutation: it goes first, so a
                    // kill between the puts leaves an unused order, never
                    // an index that reads as if it were unpermuted.
                    writer.put_order(e.step, lp.cfg.row_order, perm)?;
                }
                for (j, var) in summary.vars.iter().enumerate() {
                    let VarSummary::Bitmap(idx) = var else {
                        return Err(IbisError::Config(
                            "durable runs persist bitmap summaries only".into(),
                        ));
                    };
                    let name = names.get(j).map(String::as_str).unwrap_or("field");
                    writer.put(e.step, name, idx)?;
                }
                lp.totals.output_modeled += e.summary_bytes as f64 / lp.cfg.machine.disk_bw;
            }
        }
        lp.totals.bytes_written += e.summary_bytes;
        Ok(())
    }

    /// Closes a step. The durable sink checkpoints the post-step state
    /// atomically — after `persist` made the step's winner durable — so a
    /// crash between here and the next step resumes exactly at
    /// `next_step`.
    fn close_step(&mut self, next_step: usize, lp: &StepLoop<'_>) -> Result<()> {
        if let Sink::Durable { dir, .. } = self {
            let bytes = encode_checkpoint(next_step, &lp.selector, &lp.outcomes, &lp.totals)?;
            write_atomic(
                &dir.join(".CHECKPOINT.tmp"),
                &dir.join("CHECKPOINT"),
                &bytes,
            )
            .map_err(|e| IbisError::io("write CHECKPOINT", &e))?;
        }
        Ok(())
    }

    /// The entries durable right now — what a resumed run reloads its
    /// previous winner from. Only a durable sink has any.
    fn durable_view(&self) -> Option<Store> {
        match self {
            Sink::Modeled(_) => None,
            Sink::Durable { writer, .. } => Some(writer.durable_view()),
        }
    }

    /// Ends the run: the durable sink seals the store with its manifest,
    /// then retires the checkpoint.
    fn finish(self) -> Result<()> {
        let Sink::Durable { writer, dir } = self else {
            return Ok(());
        };
        writer.finish()?;
        match std::fs::remove_file(dir.join("CHECKPOINT")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(IbisError::io("remove CHECKPOINT", &e)),
        }
    }
}

/// One run from `state` (empty unless resuming) to its report: restore,
/// then let the allocation's producer feed [`StepLoop::consume`].
fn run<S: Simulation>(
    mut sim: S,
    cfg: &PipelineConfig,
    injector: &FaultInjector,
    mut sink: Sink<'_>,
    state: CheckpointState,
) -> Result<InsituReport> {
    OBS_RUNS.inc();
    let _run_span = OBS_RUN_WALL_NS.span();
    let wall0 = Instant::now();
    let (sim_cores, bitmap_cores) = match cfg.allocation {
        CoreAllocation::Shared => (cfg.cores, None),
        CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } => (sim_cores, Some(bitmap_cores)),
    };
    let sim_pool = cfg.machine.pool(sim_cores);
    let bitmap_pool = bitmap_cores.map(|n| cfg.machine.pool(n));

    // Replay the completed prefix to restore the deterministic simulation's
    // state (recovery overhead: charged to wall time, not modeled time).
    let mut field_names: Option<Vec<String>> = None;
    for _ in 0..state.next_step {
        let out = sim_pool.install(|| sim.step());
        field_names.get_or_insert_with(|| field_names_of(&out));
    }

    let mem = MemoryTracker::new();
    let sim_resident = sim.resident_bytes() as u64;
    mem.alloc(sim_resident);
    let mut selector = StreamingSelector::new(cfg.steps, cfg.select_k, cfg.metric);
    selector.cur = state.cur_interval;
    selector.selected = state.selected;
    if let Some(prev) = state.prev {
        let (names, store) = field_names
            .as_deref()
            .zip(sink.durable_view())
            .ok_or_else(|| {
                IbisError::BadCheckpoint("a previous selection but no completed step".into())
            })?;
        selector.prev = Some(reload_prev(&store, prev, names)?);
    }
    selector.buffer = state.buffer;
    if let Some((p, _, _)) = &selector.prev {
        mem.alloc(p.size_bytes() as u64);
    }
    for (_, s, _, _) in &selector.buffer {
        mem.alloc(s.size_bytes() as u64);
    }

    let mut lp = StepLoop {
        cfg,
        injector,
        pool: bitmap_pool.as_ref().unwrap_or(&sim_pool),
        mem: &mem,
        selector,
        outcomes: state.outcomes,
        totals: state.totals,
        field_names,
        reduce_t: Duration::ZERO,
    };
    let sim_t = match cfg.allocation {
        CoreAllocation::Shared => {
            let mut sim_t = Duration::ZERO;
            for i in state.next_step..cfg.steps {
                OBS_SHARED_STEPS.inc();
                let produced = produce(&mut sim, i, &sim_pool, injector, &mem, &mut sim_t);
                lp.consume(i, produced, &mut sink)?;
            }
            sim_t
        }
        CoreAllocation::Separate { .. } => {
            produce_ahead(sim, state.next_step, &sim_pool, &mut lp, &mut sink)?
        }
    };
    sink.finish()?;
    mem.free(sim_resident);
    Ok(lp.into_report(sim_t, sim_pool.current_num_threads(), wall0))
}

/// One unit of the Separate-Cores data queue: a step's output, or proof
/// that the producer failed at that step (so the consumer can account for
/// it instead of waiting forever).
struct StepMsg {
    step: usize,
    payload: std::result::Result<StepOutput, String>,
}

/// The Separate-Cores producer: the simulation core set on its own thread
/// runs ahead from step `first`, feeding the bounded data queue; the
/// calling thread — the bitmap core set — drains the queue head into
/// [`StepLoop::consume`]. Returns the measured simulation time.
fn produce_ahead<S: Simulation>(
    mut sim: S,
    first: usize,
    sim_pool: &rayon::ThreadPool,
    lp: &mut StepLoop<'_>,
    sink: &mut Sink<'_>,
) -> Result<Duration> {
    let (mem, injector, steps) = (lp.mem, lp.injector, lp.cfg.steps);
    let abort_on_panic = matches!(lp.cfg.robustness.policy, FailurePolicy::Abort);
    let (tx, rx) = crossbeam::channel::bounded::<StepMsg>(lp.cfg.queue_capacity);
    // The in-flight watermark can reach capacity + 1: `queue_capacity`
    // buffered messages plus the one a blocked producer holds in hand-off.
    OBS_QUEUE_BOUND.set(lp.cfg.queue_capacity as i64 + 1);

    std::thread::scope(|scope| {
        // Every per-step panic is contained in `produce`; under Abort the
        // producer reports the step and stops, otherwise it reports and
        // keeps simulating. A failed send means the consumer is gone —
        // exit instead of blocking on a dead queue.
        let producer = scope.spawn(move || {
            // Hand-off with backpressure accounting: the in-flight gauge
            // is charged once a message is actually enqueued (the consumer
            // side decrements), and a full queue routes through a timed
            // blocking send so stall time lands on the stall counter.
            // Observational only — try-then-block has the same delivery
            // semantics as a plain blocking send, so the no-op build
            // behaves identically.
            use crossbeam::channel::{SendError, TrySendError};
            let send_counted = |msg: StepMsg| -> std::result::Result<(), SendError<StepMsg>> {
                let msg = match tx.try_send(msg) {
                    Ok(()) => {
                        OBS_QUEUE_IN_FLIGHT.inc();
                        return Ok(());
                    }
                    Err(TrySendError::Disconnected(m)) => return Err(SendError(m)),
                    Err(TrySendError::Full(m)) => m,
                };
                OBS_QUEUE_STALLS.inc();
                let t0 = ibis_obs::ENABLED.then(Instant::now);
                let sent = tx.send(msg);
                if let Some(t0) = t0 {
                    OBS_QUEUE_STALL_NS.add(t0.elapsed().as_nanos() as u64);
                }
                if sent.is_ok() {
                    OBS_QUEUE_IN_FLIGHT.inc();
                }
                sent
            };
            let mut sim_t = Duration::ZERO;
            for step in first..steps {
                let payload = produce(&mut sim, step, sim_pool, injector, mem, &mut sim_t);
                let stop = payload.is_err() && abort_on_panic;
                // blocks when the queue is full — the paper's memory
                // bound; errs when the consumer died
                if let Err(unsent) = send_counted(StepMsg { step, payload }) {
                    if let Ok(out) = unsent.0.payload {
                        mem.free(out.size_bytes() as u64);
                    }
                    break;
                }
                if stop {
                    break;
                }
            }
            sim_t
        });

        // A fatal condition breaks the loop; dropping `rx` afterwards
        // poisons the queue so the producer's next send fails and it exits
        // promptly — a structured error, not a deadlock.
        let mut fatal = None;
        for msg in rx.iter() {
            OBS_QUEUE_IN_FLIGHT.dec();
            OBS_SEPARATE_STEPS.inc();
            if let Err(err) = lp.consume(msg.step, msg.payload, sink) {
                fatal = Some(err);
                break;
            }
        }
        drop(rx); // unblock a producer stuck on a full queue
        let joined = producer.join().map_err(|payload| IbisError::WorkerPanic {
            // a panic that escaped the per-step containment
            role: WorkerRole::Producer,
            step: None,
            message: panic_message(payload.as_ref()),
        });
        match fatal {
            Some(err) => Err(err),
            None => joined,
        }
    })
}

// ---------------------------------------------------------------------------
// Durable runs: checkpointed, resumable, persisted to a checksummed store
// ---------------------------------------------------------------------------

/// Checkpoint payload version — the payload's first `u32 LE`; the file is
/// that payload in a [`Kind::Checkpoint`] frame. It embeds only the
/// undecided `buffer` (each summary's indices as the store's index
/// payloads, every bin in the form it is held in, and its row permutation,
/// run-coded as the store's order blobs are since v4 — data-dependent
/// orders cannot recompute it after resume, the raw step data is gone, and
/// a buffered step may still win its interval). The previous winner is named, not
/// embedded: `persist_winner` made it durable in the store before the
/// step's checkpoint was written, so resume reloads it from there.
const CHECKPOINT_VERSION: u32 = 4;

/// The previous winner as a checkpoint records it: where the store holds
/// it, not what it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrevRef {
    /// The store step the winner's entries were persisted under.
    step: usize,
    degraded: bool,
    /// Whether an [`ORDER_VARIABLE`] entry was persisted next to them.
    has_order: bool,
}

/// The running totals a durable run carries across a crash.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct RunTotals {
    output_modeled: f64,
    bytes_written: u64,
    summary_bytes_total: u64,
    raw_bytes_per_step: u64,
}

/// Everything needed to pick a durable run back up after a crash.
#[derive(Default)]
struct CheckpointState {
    next_step: usize,
    selected: Vec<usize>,
    cur_interval: usize,
    prev: Option<PrevRef>,
    buffer: Vec<(usize, StepSummary, bool, Option<Arc<RowPermutation>>)>,
    outcomes: Vec<StepOutcome>,
    totals: RunTotals,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_summary(
    buf: &mut Vec<u8>,
    summary: &StepSummary,
    degraded: bool,
    perm: Option<&RowPermutation>,
) -> Result<()> {
    put_u64(buf, summary.step as u64);
    buf.push(degraded as u8);
    put_u64(buf, summary.vars.len() as u64);
    for var in &summary.vars {
        let VarSummary::Bitmap(idx) = var else {
            return Err(IbisError::Config(
                "durable runs persist bitmap summaries only".into(),
            ));
        };
        codec::put_blob(buf, |buf| {
            codec::encode_index_auto_into(buf, idx);
        });
    }
    match perm {
        Some(p) => {
            buf.push(1);
            codec::put_blob(buf, |buf| crate::store::put_perm_payload(buf, p));
        }
        None => buf.push(0),
    }
    Ok(())
}

/// Serializes the state after step `next_step - 1` from the borrowed
/// selector, each embedded index encoded in place in the one output
/// buffer.
fn encode_checkpoint(
    next_step: usize,
    selector: &StreamingSelector,
    outcomes: &[StepOutcome],
    totals: &RunTotals,
) -> Result<Vec<u8>> {
    let held: usize = selector.buffer.iter().map(|b| b.1.size_bytes()).sum();
    let mut buf = Vec::with_capacity(held + 4096);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    put_u64(&mut buf, next_step as u64);
    put_u64(&mut buf, selector.selected.len() as u64);
    for &s in &selector.selected {
        put_u64(&mut buf, s as u64);
    }
    put_u64(&mut buf, selector.cur as u64);
    match (&selector.prev, selector.selected.last()) {
        (Some((_, degraded, perm)), Some(&step)) => {
            buf.push(1);
            put_u64(&mut buf, step as u64);
            buf.push(*degraded as u8);
            buf.push(perm.is_some() as u8);
        }
        _ => buf.push(0),
    }
    put_u64(&mut buf, selector.buffer.len() as u64);
    for (idx, summary, degraded, perm) in &selector.buffer {
        put_u64(&mut buf, *idx as u64);
        put_summary(&mut buf, summary, *degraded, perm.as_deref())?;
    }
    put_u64(&mut buf, outcomes.len() as u64);
    for outcome in outcomes {
        let (tag, text): (u8, &str) = match outcome {
            StepOutcome::Completed => (0, ""),
            StepOutcome::Skipped { reason } => (1, reason),
            StepOutcome::FallbackSampled { reason } => (2, reason),
            StepOutcome::Failed { error } => (3, error),
        };
        buf.push(tag);
        put_str(&mut buf, text);
    }
    put_u64(&mut buf, totals.output_modeled.to_bits());
    put_u64(&mut buf, totals.bytes_written);
    put_u64(&mut buf, totals.summary_bytes_total);
    put_u64(&mut buf, totals.raw_bytes_per_step);
    Ok(frame(Kind::Checkpoint, &buf).0)
}

/// One buffered step as [`put_summary`] wrote it.
fn read_summary(r: &mut codec::Reader) -> Result<Held> {
    let bad = |what: &str, e: &dyn std::fmt::Display| {
        IbisError::BadCheckpoint(format!("embedded {what}: {e}"))
    };
    let step = r.usize()?;
    let degraded = r.u8()? != 0;
    let nvars = r.count(8)?;
    let mut vars = Vec::with_capacity(nvars);
    let mut rows = None;
    for _ in 0..nvars {
        let idx = codec::decode_index(r.blob()?).map_err(|e| bad("index", &e))?;
        let idx = codec::exact(idx).map_err(|e| bad("index", &e))?;
        rows = Some(idx.len());
        vars.push(VarSummary::Bitmap(idx));
    }
    let perm = match r.u8()? {
        0 => None,
        1 => {
            let perm = crate::store::decode_perm_payload(r.blob()?, rows.map(|n| n..=n))
                .map_err(|e| bad("permutation", &e))?;
            Some(Arc::new(perm))
        }
        t => {
            return Err(IbisError::BadCheckpoint(format!(
                "bad permutation-presence tag {t}"
            )))
        }
    };
    Ok((StepSummary { step, vars }, degraded, perm))
}

/// Opens a `CHECKPOINT` file: the frame check (magic, kind, length, CRC),
/// then the payload. Every failure is [`IbisError::BadCheckpoint`].
fn parse_checkpoint(bytes: &[u8]) -> Result<CheckpointState> {
    let (payload, _) = unframe(bytes, Kind::Checkpoint).map_err(IbisError::BadCheckpoint)?;
    parse_checkpoint_payload(payload).map_err(|e| match e {
        IbisError::Decode { source, .. } => IbisError::BadCheckpoint(source.to_string()),
        e => e,
    })
}

fn parse_checkpoint_payload(payload: &[u8]) -> Result<CheckpointState> {
    let mut r = codec::Reader::new(payload);
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(IbisError::BadCheckpoint(format!(
            "unsupported version {version}"
        )));
    }
    let next_step = r.usize()?;
    let nselected = r.count(8)?;
    if nselected > next_step.max(1) {
        return Err(IbisError::BadCheckpoint(
            "more selections than completed steps".into(),
        ));
    }
    let mut selected = Vec::with_capacity(nselected);
    for _ in 0..nselected {
        selected.push(r.usize()?);
    }
    let cur_interval = r.usize()?;
    let prev = match r.u8()? {
        0 => None,
        1 => Some(PrevRef {
            step: r.usize()?,
            degraded: r.u8()? != 0,
            has_order: r.u8()? != 0,
        }),
        t => {
            return Err(IbisError::BadCheckpoint(format!(
                "bad prev-presence tag {t}"
            )))
        }
    };
    if prev.map(|p| p.step) != selected.last().copied() {
        return Err(IbisError::BadCheckpoint(
            "previous selection is not the last selected step".into(),
        ));
    }
    let nbuffer = r.count(8)?;
    if nbuffer > next_step.max(1) {
        return Err(IbisError::BadCheckpoint("buffer larger than run".into()));
    }
    let mut buffer = Vec::with_capacity(nbuffer);
    for _ in 0..nbuffer {
        let idx = r.usize()?;
        let (summary, degraded, perm) = read_summary(&mut r)?;
        buffer.push((idx, summary, degraded, perm));
    }
    let noutcomes = r.count(9)?;
    if noutcomes != next_step {
        return Err(IbisError::BadCheckpoint(format!(
            "{noutcomes} outcomes for {next_step} completed steps"
        )));
    }
    let mut outcomes = Vec::with_capacity(noutcomes);
    for _ in 0..noutcomes {
        let tag = r.u8()?;
        let text = String::from_utf8(r.blob()?.to_vec())
            .map_err(|_| IbisError::BadCheckpoint("non-UTF-8 string".into()))?;
        outcomes.push(match tag {
            0 => StepOutcome::Completed,
            1 => StepOutcome::Skipped { reason: text },
            2 => StepOutcome::FallbackSampled { reason: text },
            3 => StepOutcome::Failed { error: text },
            t => return Err(IbisError::BadCheckpoint(format!("bad outcome tag {t}"))),
        });
    }
    let totals = RunTotals {
        output_modeled: f64::from_bits(r.u64()?),
        bytes_written: r.u64()?,
        summary_bytes_total: r.u64()?,
        raw_bytes_per_step: r.u64()?,
    };
    r.finish()?;
    Ok(CheckpointState {
        next_step,
        selected,
        cur_interval,
        prev,
        buffer,
        outcomes,
        totals,
    })
}

/// Reloads the previous winner a checkpoint names from the store that
/// already holds it — every read re-verifies framing and CRC. `names` are
/// the simulation's field names in field order (the order the winner's
/// variables were summarized in).
fn reload_prev(store: &Store, prev: PrevRef, names: &[String]) -> Result<Held> {
    let lost = |entry: &str, why: &dyn std::fmt::Display| {
        IbisError::BadCheckpoint(format!(
            "previous selection (step {}) entry {entry:?} cannot be reloaded: {why}",
            prev.step
        ))
    };
    let vars = names
        .iter()
        .map(|name| {
            let idx = store.get(prev.step, name).map_err(|e| lost(name, &e))?;
            Ok(VarSummary::Bitmap(idx))
        })
        .collect::<Result<Vec<_>>>()?;
    let perm = if prev.has_order {
        match store.load_order(prev.step) {
            Ok(Some((_, perm))) => Some(Arc::new(perm)),
            Ok(None) => return Err(lost(ORDER_VARIABLE, &"no such durable entry")),
            Err(e) => return Err(lost(ORDER_VARIABLE, &e)),
        }
    } else {
        None
    };
    let summary = StepSummary {
        step: prev.step,
        vars,
    };
    Ok((summary, prev.degraded, perm))
}

/// Runs a durable bitmaps pipeline under either core allocation: every
/// selected summary is persisted to a checksummed store at `dir`, and the
/// selector state is checkpointed atomically after every step. If the run
/// dies (crash, kill injection), [`resume_durable`] picks it up where it
/// stopped and the final store is byte-identical to an uninterrupted
/// run's.
pub fn run_durable<S: Simulation>(
    sim: S,
    cfg: &PipelineConfig,
    dir: impl AsRef<Path>,
) -> Result<InsituReport> {
    durable_impl(sim, cfg, dir.as_ref(), false)
}

/// Resumes a durable run that was interrupted. `sim` must be a *fresh*
/// instance of the same deterministic simulation — the completed prefix is
/// replayed to restore its state, then the run continues from the
/// checkpoint. With no checkpoint present this is a fresh run.
pub fn resume_durable<S: Simulation>(
    sim: S,
    cfg: &PipelineConfig,
    dir: impl AsRef<Path>,
) -> Result<InsituReport> {
    durable_impl(sim, cfg, dir.as_ref(), true)
}

fn durable_impl<S: Simulation>(
    sim: S,
    cfg: &PipelineConfig,
    dir: &Path,
    resume: bool,
) -> Result<InsituReport> {
    cfg.validate()?;
    if !matches!(cfg.reduction, Reduction::Bitmaps) {
        return Err(IbisError::Config(
            "durable runs persist bitmap summaries only".into(),
        ));
    }
    let (state, writer) = if resume {
        let state = match std::fs::read(dir.join("CHECKPOINT")) {
            Ok(bytes) => parse_checkpoint(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => CheckpointState::default(),
            Err(e) => return Err(IbisError::io("read CHECKPOINT", &e)),
        };
        if state.next_step > cfg.steps {
            return Err(IbisError::BadCheckpoint(format!(
                "checkpoint is at step {} but the run has only {}",
                state.next_step, cfg.steps
            )));
        }
        (state, StoreWriter::resume(dir)?)
    } else {
        (CheckpointState::default(), StoreWriter::create(dir)?)
    };
    let injector = Arc::new(FaultInjector::new(cfg.robustness.faults.clone()));
    let writer = writer.with_fault_injector(Arc::clone(&injector));
    run(sim, cfg, &injector, Sink::Durable { writer, dir }, state)
}

/// The durable run directory's checkpoint file, if one is pending (i.e.
/// the run at `dir` was interrupted and can be resumed).
pub fn pending_checkpoint(dir: impl AsRef<Path>) -> Option<PathBuf> {
    let p = dir.as_ref().join("CHECKPOINT");
    p.exists().then_some(p)
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::io::LocalDisk;
    use ibis_datagen::{Heat3D, Heat3DConfig};
    use ibis_testkit::TempDir;

    fn heat_cfg() -> Heat3DConfig {
        Heat3DConfig {
            nx: 16,
            ny: 16,
            nz: 16,
            ..Heat3DConfig::tiny()
        }
    }

    fn base_cfg(reduction: Reduction) -> PipelineConfig {
        PipelineConfig {
            machine: MachineModel::xeon32(),
            cores: 4,
            allocation: CoreAllocation::Shared,
            reduction,
            steps: 13,
            select_k: 4,
            metric: Metric::ConditionalEntropy,
            binners: vec![Binner::precision(-1.0, 101.0, 0)],
            per_step_precision: None,
            row_order: RowOrder::Identity,
            queue_capacity: 3,
            sim_scaling: ScalingModel::heat3d(),
            robustness: RobustnessConfig::default(),
        }
    }

    #[test]
    fn shared_bitmaps_run_end_to_end() {
        let cfg = base_cfg(Reduction::Bitmaps);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert_eq!(r.selected.len(), 4);
        assert_eq!(r.selected[0], 0);
        assert!(r.selected.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.steps, 13);
        assert!(r.bytes_written > 0);
        assert_eq!(disk.bytes_written(), r.bytes_written);
        assert!(r.phases.simulate > 0.0 && r.phases.reduce > 0.0);
        assert!(r.total_modeled >= r.phases.output);
        assert!(
            r.compression_ratio() > 1.0,
            "bitmaps should compress heat3d"
        );
        assert_eq!(r.step_outcomes.len(), 13);
        assert!(r.step_outcomes.iter().all(StepOutcome::is_completed));
        assert!(r.fault_events.is_empty());
    }

    #[test]
    fn full_data_writes_raw_sizes() {
        let cfg = base_cfg(Reduction::FullData);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        // each selected step is the raw array
        assert_eq!(r.bytes_written, 4 * r.raw_bytes_per_step);
        assert!(
            r.phases.reduce < r.phases.simulate,
            "full data has ~no reduce phase"
        );
    }

    #[test]
    fn bitmaps_write_less_and_peak_lower_than_full() {
        let disk = LocalDisk::new(1e9);
        let rb = run_pipeline(
            Heat3D::new(heat_cfg()),
            &base_cfg(Reduction::Bitmaps),
            &disk,
        )
        .unwrap();
        let rf = run_pipeline(
            Heat3D::new(heat_cfg()),
            &base_cfg(Reduction::FullData),
            &disk,
        )
        .unwrap();
        assert!(
            rb.bytes_written < rf.bytes_written,
            "bitmaps must shrink I/O"
        );
        assert!(
            rb.peak_memory_bytes < rf.peak_memory_bytes,
            "bitmaps {} must hold less than full {}",
            rb.peak_memory_bytes,
            rf.peak_memory_bytes
        );
    }

    #[test]
    fn both_strategies_select_identical_steps() {
        let disk = LocalDisk::new(1e9);
        let shared = run_pipeline(
            Heat3D::new(heat_cfg()),
            &base_cfg(Reduction::Bitmaps),
            &disk,
        )
        .unwrap();
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.allocation = CoreAllocation::Separate {
            sim_cores: 2,
            bitmap_cores: 2,
        };
        let separate = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert_eq!(shared.selected, separate.selected);
        assert_eq!(shared.bytes_written, separate.bytes_written);
    }

    #[test]
    fn bitmap_selection_equals_full_selection() {
        // the no-accuracy-loss claim at pipeline level
        let disk = LocalDisk::new(1e9);
        let rb = run_pipeline(
            Heat3D::new(heat_cfg()),
            &base_cfg(Reduction::Bitmaps),
            &disk,
        )
        .unwrap();
        let rf = run_pipeline(
            Heat3D::new(heat_cfg()),
            &base_cfg(Reduction::FullData),
            &disk,
        )
        .unwrap();
        assert_eq!(rb.selected, rf.selected);
    }

    #[test]
    fn sampling_reduces_bytes_but_changes_selection_possible() {
        let mut cfg = base_cfg(Reduction::Sampling {
            percent: 10.0,
            method: SamplingMethod::Stride,
        });
        cfg.metric = Metric::ConditionalEntropy;
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert_eq!(r.selected.len(), 4);
        assert!(
            r.bytes_written < 4 * r.raw_bytes_per_step / 5,
            "10% samples are small"
        );
    }

    #[test]
    fn select_one_keeps_only_step_zero() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.select_k = 1;
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert_eq!(r.selected, vec![0]);
    }

    #[test]
    fn select_all_keeps_everything() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.steps = 5;
        cfg.select_k = 5;
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert_eq!(r.selected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn memory_tracker_ends_at_zero() {
        // peak > 0 and everything freed: no leak in the accounting
        let cfg = base_cfg(Reduction::Bitmaps);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert!(r.peak_memory_bytes > 0);
    }

    #[test]
    fn rejects_overcommitted_split() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.allocation = CoreAllocation::Separate {
            sim_cores: 3,
            bitmap_cores: 3,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("separate sets exceed"), "{err}");
    }

    #[test]
    fn rejects_bad_k() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.select_k = 50;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("cannot select"), "{err}");
    }

    #[test]
    fn consumer_panic_aborts_with_structured_error() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.robustness.faults = FaultPlan::none().with_consumer_panic_at(3);
        let disk = LocalDisk::new(1e9);
        let err = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap_err();
        assert_eq!(
            err,
            IbisError::WorkerPanic {
                role: WorkerRole::Consumer,
                step: Some(3),
                message: "injected fault: consumer panic at step 3".into(),
            }
        );
    }

    #[test]
    fn skip_policy_survives_consumer_panic() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.robustness.policy = FailurePolicy::SkipStep;
        cfg.robustness.faults = FaultPlan::none().with_consumer_panic_at(3);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert!(matches!(r.step_outcomes[3], StepOutcome::Skipped { .. }));
        assert!(!r.selected.contains(&3));
        assert_eq!(r.selected[0], 0);
        assert_eq!(r.fault_events, vec!["consumer step 3: injected panic"]);
    }

    #[test]
    fn fallback_policy_substitutes_sampled_summary() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.robustness.policy = FailurePolicy::FallbackSampling {
            percent: 10.0,
            method: SamplingMethod::Stride,
        };
        cfg.robustness.faults = FaultPlan::none().with_consumer_panic_at(5);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert!(matches!(
            r.step_outcomes[5],
            StepOutcome::FallbackSampled { .. }
        ));
        assert_eq!(r.selected.len(), 4, "selection count is preserved");
    }

    #[test]
    fn producer_panic_at_step_zero_still_seeds_later() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.robustness.policy = FailurePolicy::SkipStep;
        cfg.robustness.faults = FaultPlan::none().with_producer_panic_at(0);
        let disk = LocalDisk::new(1e9);
        let r = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap();
        assert!(matches!(r.step_outcomes[0], StepOutcome::Skipped { .. }));
        assert_eq!(r.selected[0], 1, "step 1 seeds when step 0 failed");
    }

    #[test]
    fn separate_cores_consumer_panic_does_not_deadlock() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.allocation = CoreAllocation::Separate {
            sim_cores: 2,
            bitmap_cores: 2,
        };
        cfg.queue_capacity = 1; // smallest queue: producer blocks hardest
        cfg.robustness.faults = FaultPlan::none().with_consumer_panic_at(2);
        let disk = LocalDisk::new(1e9);
        let err = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap_err();
        assert!(
            matches!(
                err,
                IbisError::WorkerPanic {
                    role: WorkerRole::Consumer,
                    step: Some(2),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn injected_kill_reports_step() {
        let mut cfg = base_cfg(Reduction::Bitmaps);
        cfg.robustness.faults = FaultPlan::none().with_kill_at_step(7);
        let disk = LocalDisk::new(1e9);
        let err = run_pipeline(Heat3D::new(heat_cfg()), &cfg, &disk).unwrap_err();
        assert_eq!(err, IbisError::Killed { step: 7 });
    }

    /// A buffered summary whose bins count a row twice is no exact index:
    /// the checkpoint that embeds it is refused, not resumed from.
    #[test]
    fn a_checkpoint_embedding_no_partition_is_refused() {
        let n = 200;
        let bins = vec![ibis_core::WahVec::ones(n), ibis_core::WahVec::ones(n)];
        let overlapping = ibis_core::BitmapIndex::from_bins(Binner::distinct_ints(0, 1), bins);
        let summary = StepSummary {
            step: 1,
            vars: vec![VarSummary::Bitmap(overlapping)],
        };
        let mut selector = StreamingSelector::new(4, 2, Metric::ConditionalEntropy);
        selector.buffer = vec![(1, summary, false, None)];
        let totals = RunTotals {
            output_modeled: 0.0,
            bytes_written: 0,
            summary_bytes_total: 0,
            raw_bytes_per_step: 0,
        };
        let outcomes = [StepOutcome::Completed, StepOutcome::Completed];
        let bytes = encode_checkpoint(2, &selector, &outcomes, &totals).unwrap();
        match parse_checkpoint(&bytes) {
            Err(IbisError::BadCheckpoint(msg)) => assert!(msg.contains("not a partition"), "{msg}"),
            other => panic!(
                "expected BadCheckpoint, got {:?}",
                other.map(|s| s.next_step)
            ),
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let data: Vec<f64> = (0..200).map(|i| (i % 30) as f64).collect();
        let binner = Binner::distinct_ints(0, 29);
        let perm = Arc::new(RowOrder::GrayBin.permutation(&[], &binner, &data).unwrap());
        let idx = ibis_core::BitmapIndex::build_permuted(&data, binner, &perm);
        let summary = StepSummary {
            step: 4,
            vars: vec![VarSummary::Bitmap(idx.clone())],
        };
        let mut selector = StreamingSelector::new(13, 4, Metric::ConditionalEntropy);
        selector.cur = 1;
        selector.selected = vec![0, 3];
        selector.prev = Some((summary.clone(), false, Some(Arc::clone(&perm))));
        selector.buffer = vec![(4, summary, true, Some(Arc::clone(&perm)))];
        let outcomes = vec![
            StepOutcome::Completed,
            StepOutcome::Skipped { reason: "x".into() },
            StepOutcome::FallbackSampled { reason: "y".into() },
            StepOutcome::Failed { error: "z".into() },
            StepOutcome::Completed,
        ];
        let totals = RunTotals {
            output_modeled: 1.25,
            bytes_written: 777,
            summary_bytes_total: 999,
            raw_bytes_per_step: 4096,
        };
        let bytes = encode_checkpoint(5, &selector, &outcomes, &totals).unwrap();
        let back = parse_checkpoint(&bytes).unwrap();
        assert_eq!(back.next_step, 5);
        assert_eq!(back.selected, vec![0, 3]);
        assert_eq!(back.cur_interval, 1);
        assert_eq!(back.outcomes, outcomes);
        assert_eq!(back.totals, totals);
        let prev = PrevRef {
            step: 3,
            degraded: false,
            has_order: true,
        };
        assert_eq!(
            back.prev,
            Some(prev),
            "the previous winner is named by its store step, not embedded"
        );
        assert_eq!(back.buffer.len(), 1);
        assert!(back.buffer[0].2, "degraded flag survives");
        assert_eq!(
            back.buffer[0].3.as_deref(),
            Some(perm.as_ref()),
            "the buffered step's permutation round-trips"
        );
        let VarSummary::Bitmap(embedded) = &back.buffer[0].1.vars[0] else {
            panic!("bitmap summary expected");
        };
        assert_eq!(codec::encode_index(embedded), codec::encode_index(&idx));
        // only the buffer is embedded: one index and one permutation
        assert!(bytes.len() < 2 * (codec::encode_index(&idx).len() + 8 + 4 * data.len()));

        // damage under a recomputed frame CRC reaches the parser proper (the
        // frame's own defences are `every_corruption_of_every_frame_kind…`):
        // a cut payload is always an error, a flipped one never a panic
        let reseal = |payload: &[u8]| frame(Kind::Checkpoint, payload).0;
        let payload = &bytes[12..bytes.len() - 4];
        assert_eq!(reseal(payload), bytes);
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    parse_checkpoint(&reseal(&payload[..cut])),
                    Err(IbisError::BadCheckpoint(_))
                ),
                "resealed payload cut to {cut} bytes"
            );
        }
        for at in 0..payload.len() {
            let mut bad = payload.to_vec();
            bad[at] ^= 1 << (at % 8);
            if let Err(e) = parse_checkpoint(&reseal(&bad)) {
                assert!(matches!(e, IbisError::BadCheckpoint(_)), "byte {at}: {e}");
            }
        }

        // a v2 or v3 checkpoint payload (intact frame, old version word —
        // v3 embedded permutations four bytes a row) and a pre-frame
        // checkpoint file are refused by name
        for old in [2u32, 3] {
            let mut stale = payload.to_vec();
            stale[..4].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                parse_checkpoint(&reseal(&stale)).err(),
                Some(IbisError::BadCheckpoint(format!(
                    "unsupported version {old}"
                )))
            );
        }
        // the buffered step's order is a presence byte and the runs: the
        // run's configuration names the order, so no order tag is embedded
        // that could be a retired one — a 2 or a 4 there is refused
        let mut runs = Vec::new();
        crate::store::put_perm_payload(&mut runs, &perm);
        let runs_at = payload.windows(runs.len()).position(|w| w == runs);
        let presence_at = runs_at.expect("the runs are embedded") - 9; // u64 length first
        assert_eq!(payload[presence_at], 1);
        for tag in [2u8, 4] {
            let mut bad = payload.to_vec();
            bad[presence_at] = tag;
            assert_eq!(
                parse_checkpoint(&reseal(&bad)).err(),
                Some(IbisError::BadCheckpoint(format!(
                    "bad permutation-presence tag {tag}"
                )))
            );
        }
        let mut ibck = b"IBCK".to_vec();
        ibck.extend_from_slice(payload);
        ibck.extend_from_slice(&crate::crc::crc32c(&ibck).to_le_bytes());
        assert!(
            matches!(parse_checkpoint(&ibck), Err(IbisError::BadCheckpoint(m)) if m.contains("framing")),
            "an old-format checkpoint must be refused for its framing"
        );

        // reloading the named winner: from the store, in field order
        let dir = TempDir::new("ckpt-prev");
        let names = ["temperature".to_string(), "salinity".to_string()];
        let persist = |with_order: bool| {
            let mut w = StoreWriter::create(&dir).unwrap();
            w.put(3, "temperature", &idx).unwrap();
            w.put(3, "salinity", &idx.unpermute(&perm)).unwrap();
            if with_order {
                w.put_order(3, RowOrder::GrayBin, &perm).unwrap();
            }
            w
        };
        let (summary, degraded, order) =
            reload_prev(&persist(true).durable_view(), prev, &names).unwrap();
        assert_eq!((summary.step, summary.vars.len(), degraded), (3, 2, false));
        assert_eq!(order.as_deref(), Some(perm.as_ref()));
        let VarSummary::Bitmap(first) = &summary.vars[0] else {
            panic!("bitmap summary expected");
        };
        assert_eq!(codec::encode_index(first), codec::encode_index(&idx));

        // a winner the store cannot produce intact is a typed error naming
        // the entry — never persisted, torn, bit-flipped or gone, seen
        // both through the live writer and through a journal-verifying
        // `StoreWriter::resume` (which drops the damaged entry)
        let lost = |store: Store, entry: &str| {
            let err = reload_prev(&store, prev, &names).unwrap_err();
            let IbisError::BadCheckpoint(msg) = &err else {
                panic!("expected BadCheckpoint, got {err}");
            };
            assert!(msg.contains("step 3") && msg.contains(entry), "{msg}");
        };
        lost(persist(false).durable_view(), ORDER_VARIABLE);
        for entry in ["salinity", ORDER_VARIABLE] {
            let file = dir.join(format!("s000003_{entry}.ibis"));
            for damage in 0..3 {
                let writer = persist(true);
                let clean = std::fs::read(&file).unwrap();
                match damage {
                    0 => std::fs::write(&file, &clean[..clean.len() / 2]).unwrap(),
                    1 => {
                        let mut flipped = clean.clone();
                        flipped[clean.len() / 2] ^= 0x10;
                        std::fs::write(&file, &flipped).unwrap();
                    }
                    _ => std::fs::remove_file(&file).unwrap(),
                }
                lost(writer.durable_view(), entry);
                drop(writer);
                lost(StoreWriter::resume(&dir).unwrap().durable_view(), entry);
            }
        }
    }

    /// Every way one stored file can be damaged in place: each byte flipped
    /// under three masks, every strict prefix, and one byte appended.
    fn corruptions(clean: &[u8]) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for at in 0..clean.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = clean.to_vec();
                bad[at] ^= mask;
                out.push((format!("byte {at} ^ {mask:#04x}"), bad));
            }
            out.push((format!("cut to {at} bytes"), clean[..at].to_vec()));
        }
        out.push(("one byte appended".into(), [clean, &[0]].concat()));
        out
    }

    #[test]
    fn every_corruption_of_every_frame_kind_is_a_typed_error() {
        let dir = TempDir::new("frame-fuzz");
        // one small blob of each kind: an all-WAH index, a mixed-plan index
        // with its lossy companion, a sorted row order (few long runs) and
        // a scattered one (every run a single row) — and a checkpoint
        let runs: Vec<f64> = (0..496).map(|i| (i / 124) as f64).collect();
        let smooth = ibis_core::BitmapIndex::build(&runs, Binner::distinct_ints(0, 3));
        let noise: Vec<f64> = (0..64).map(|i| ((i * 4) % 8) as f64).collect();
        let binner = Binner::distinct_ints(0, 7);
        let mixed = ibis_core::BitmapIndex::build(&noise, binner.clone());
        let plan = |idx: &ibis_core::BitmapIndex| codec::encode_index_auto(idx).1;
        assert!(plan(&smooth).iter().all(|&c| c == ibis_core::CodecId::Wah));
        assert!(plan(&mixed).contains(&ibis_core::CodecId::Wah));
        assert!(plan(&mixed).contains(&ibis_core::CodecId::Roaring));
        let (lossy, stats) = mixed.lossy(1e-1);
        let order = RowOrder::GrayBin;
        let perm = order.permutation(&[], &binner, &noise).unwrap();
        let scattered = RowPermutation::from_gather((0..64).map(|s| s * 27 % 64).collect());
        assert!(scattered.segments().len() > 4 * perm.segments().len());
        let mut w = StoreWriter::create(&dir).unwrap();
        w.put(0, "smooth", &smooth).unwrap();
        w.put(0, "mixed", &mixed).unwrap();
        w.put_lossy(0, "mixed", &lossy, 1e-1, &stats).unwrap();
        w.put_order(0, order, &perm).unwrap();
        w.put_order(1, order, &scattered).unwrap();
        w.finish().unwrap();

        type Read = fn(&Store) -> Result<()>;
        let blobs: [(usize, &str, Read); 5] = [
            (0, "smooth", |s| s.get(0, "smooth").map(drop)),
            (0, "mixed", |s| s.get(0, "mixed").map(drop)),
            (0, ORDER_VARIABLE, |s| s.load_order(0).map(drop)),
            (1, ORDER_VARIABLE, |s| s.load_order(1).map(drop)),
            (0, "__lossy_mixed", |s| s.load_lossy(0, "mixed").map(drop)),
        ];
        for (step, entry, read) in blobs {
            let file = dir.join(format!("s{step:06}_{entry}.ibis"));
            let clean = std::fs::read(&file).unwrap();
            for (damage, bad) in corruptions(&clean) {
                std::fs::write(&file, &bad).unwrap();
                let err = read(&Store::open(&dir).unwrap()).expect_err(&damage);
                assert!(
                    matches!(err, IbisError::Corrupt { .. }),
                    "{entry}, {damage}: {err}"
                );
                // the cache refuses it at `get`, with nothing left to fail
                // once a bin is asked for
                let cache = crate::cache::CachedStore::new(Store::open(&dir).unwrap(), 1 << 20);
                let cached = cache.get(entry, step).map(drop).expect_err(&damage);
                let want_corrupt = !entry.starts_with("__");
                assert_eq!(
                    matches!(cached, IbisError::Corrupt { .. }),
                    want_corrupt,
                    "{entry}, {damage}: {cached}"
                );
                let resumed = StoreWriter::resume(&dir).unwrap();
                for (at, other, _) in blobs {
                    assert_eq!(
                        resumed.contains(at, other),
                        (at, other) != (step, entry),
                        "{entry}, {damage}"
                    );
                }
            }
            std::fs::write(&file, &clean).unwrap();
            read(&Store::open(&dir).unwrap()).unwrap();
        }

        let mut selector = StreamingSelector::new(13, 4, Metric::ConditionalEntropy);
        let summary = |step| StepSummary {
            step,
            vars: vec![VarSummary::Bitmap(mixed.clone())],
        };
        selector.buffer = vec![
            (0, summary(0), false, Some(Arc::new(perm))),
            (1, summary(1), false, Some(Arc::new(scattered))),
        ];
        let outcomes = [StepOutcome::Completed, StepOutcome::Completed];
        let clean = encode_checkpoint(2, &selector, &outcomes, &RunTotals::default()).unwrap();
        assert_eq!(parse_checkpoint(&clean).unwrap().buffer.len(), 2);
        for (damage, bad) in corruptions(&clean) {
            assert!(
                matches!(parse_checkpoint(&bad), Err(IbisError::BadCheckpoint(_))),
                "checkpoint, {damage}"
            );
        }
    }
}
