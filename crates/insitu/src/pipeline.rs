//! The in-situ pipeline (Sections 2.3 and 3, Figures 2 and 3): simulate →
//! reduce (bitmaps / sampling / nothing) → select time-steps → write the
//! selected summaries.
//!
//! Two core-allocation strategies are implemented exactly as described:
//!
//! * **Shared Cores** — every phase uses all the cores, phases alternate:
//!   simulate a step, pause the simulation, build its bitmaps, continue.
//! * **Separate Cores** — the cores are split into a simulation set and a
//!   bitmaps set; the simulation streams steps into a bounded **data queue**
//!   (a crossbeam channel whose capacity models the memory budget) and the
//!   bitmap cores drain it concurrently.
//!
//! Selection is the streaming greedy algorithm of Figure 3 with fixed-length
//! intervals: the pipeline buffers one interval of summaries, scores each
//! against the previously selected step when the interval completes, keeps
//! the most dissimilar one, writes it out, and frees the rest.
//!
//! ## Fault tolerance
//!
//! Because the bitmap store *replaces* the raw output, the pipeline must
//! not lose data silently. Every worker runs its per-step work under
//! `catch_unwind`; a contained panic is resolved by the configured
//! [`FailurePolicy`]: abort with a structured [`IbisError`], skip the step
//! (recorded as a [`StepOutcome`]), or rebuild the summary from the
//! Section 6 sampling baseline. Under Separate-Cores a dead consumer drops
//! the queue receiver so the blocked producer unblocks immediately (its
//! `send` fails) instead of deadlocking, and a dead producer's steps are
//! reported step-by-step rather than hanging the consumer. Storage writes
//! go through [`write_with_retry`] with exponential backoff and a
//! deadline. All fault handling is deterministic: the same
//! [`FaultPlan`](crate::fault::FaultPlan) produces the same failure report
//! (same error value, same step outcomes, same event log) on every run.
//!
//! [`run_durable`] / [`resume_durable`] additionally persist each selected
//! summary to a checksummed [`StoreWriter`] directory and checkpoint the
//! selector state after every step, so a killed run can resume and produce
//! a byte-identical store.

use crate::error::{panic_message, IbisError, Result, WorkerRole};
use crate::fault::{FaultInjector, FaultSite};
use crate::io::{codec, write_atomic, Storage};
use crate::machine::{
    decontend, modeled_seconds, timed_in_pool, MachineModel, PhaseClock, ScalingModel,
};
use crate::memory::MemoryTracker;
use crate::report::{InsituReport, PhaseTimes, StepOutcome};
use crate::retry::{write_with_retry, RetryPolicy};
use crate::store::{Store, StoreWriter, ORDER_VARIABLE};
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

/// Builds the summary of one step under the configured reduction; returns
/// the summary plus the row permutation it was built under (`None` for
/// identity layouts and non-bitmap reductions).
///
/// Bitmap reductions go through [`build_index_parallel`], which runs the
/// fused bin+compress fast path per sub-block on per-thread reusable
/// builder scratch — both Shared and Separate allocations stop paying
/// per-step binning/builder allocations in steady state. Under a
/// non-identity [`RowOrder`] the same pass runs permuted
/// ([`build_index_parallel_permuted`]): *one* permutation per step,
/// computed from the first field, applied to every field, so
/// cross-variable correlation bitmaps stay row-aligned.
fn summarize(
    out: &StepOutput,
    reduction: &Reduction,
    binners: &[Binner],
    per_step_precision: Option<i32>,
    row_order: RowOrder,
    dims: &[usize],
) -> (StepSummary, Option<Arc<RowPermutation>>) {
    let fit = |f: &ibis_datagen::Field| match per_step_precision {
        Some(digits) => Binner::fit_precision_anchored(&f.data, digits),
        None => unreachable!("callers pass binners when precision is unset"),
    };
    if per_step_precision.is_none() {
        assert_eq!(
            out.fields.len(),
            binners.len(),
            "one binner per field required"
        );
    }
    let perm = match (reduction, out.fields.first()) {
        (Reduction::Bitmaps, Some(f0))
            // a shared per-step permutation needs every field on the
            // same grid
            if out.fields.iter().all(|f| f.data.len() == f0.data.len()) =>
        {
            let binner0 = match per_step_precision {
                Some(_) => fit(f0),
                None => binners[0].clone(),
            };
            row_order
                .permutation(dims, &binner0, &f0.data)
                .map(Arc::new)
        }
        _ => None,
    };
    if perm.is_some() {
        OBS_REORDER_STEPS.inc();
    }
    let vars = out
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let binner = match per_step_precision {
                Some(_) => fit(f),
                None => binners[i].clone(),
            };
            (f, binner)
        })
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

    /// The most recently selected summary (the durable path persists it
    /// right after an emission).
    fn prev_summary(&self) -> Option<&StepSummary> {
        self.prev.as_ref().map(|(s, _, _)| s)
    }

    /// The row permutation of the most recently selected summary, if it
    /// was built under one.
    fn prev_order(&self) -> Option<&Arc<RowPermutation>> {
        self.prev.as_ref().and_then(|(_, _, p)| p.as_ref())
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
    OBS_RUNS.inc();
    let _run_span = OBS_RUN_WALL_NS.span();
    let injector = Arc::new(FaultInjector::new(cfg.robustness.faults.clone()));
    let mut report = match cfg.allocation {
        CoreAllocation::Shared => run_shared(sim, cfg, storage, &injector)?,
        CoreAllocation::Separate { .. } => run_separate(sim, cfg, storage, &injector)?,
    };
    report.fault_events = injector.events();
    Ok(report)
}

fn reduce_scaling(reduction: &Reduction) -> ScalingModel {
    match reduction {
        // sampling is a trivially parallel copy; bitmaps near-linear
        Reduction::Bitmaps | Reduction::Sampling { .. } => ScalingModel::bitmap_gen(),
        Reduction::FullData => ScalingModel::new(0.0),
    }
}

/// What a contained reduction attempt produced.
enum StepAttempt {
    /// A usable summary (possibly degraded via the sampling fallback),
    /// with the row permutation it was built under.
    Kept(StepSummary, Option<Arc<RowPermutation>>, bool, StepOutcome),
    /// The step is gone; the outcome says why.
    Dropped(StepOutcome),
}

/// Resolves the grid dims a spatial [`RowOrder`] needs, as a typed error
/// when the simulation has none (a mesh workload under `zorder`/`hilbert`
/// should fail loudly, not silently keep the identity layout).
fn resolve_dims<S: Simulation>(sim: &S, cfg: &PipelineConfig) -> Result<Vec<usize>> {
    if !cfg.row_order.is_spatial() {
        return Ok(Vec::new());
    }
    match sim.grid_dims() {
        Some(d) => Ok(d.to_vec()),
        None => Err(IbisError::Config(format!(
            "row order '{}' needs a structured grid, but {} reports no grid dims",
            cfg.row_order.name(),
            sim.name()
        ))),
    }
}

/// Runs `summarize` for one step under `catch_unwind`, resolving a panic
/// per the failure policy. The injected consumer panic (if scheduled for
/// this step) fires inside the protected region.
fn contained_summarize(
    out: &StepOutput,
    i: usize,
    cfg: &PipelineConfig,
    dims: &[usize],
    pool: &rayon::ThreadPool,
    injector: &FaultInjector,
    reduce_t: &mut Duration,
) -> Result<StepAttempt> {
    let t0 = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            injector.maybe_panic(FaultSite::Consumer, i);
            summarize(
                out,
                &cfg.reduction,
                &cfg.binners,
                cfg.per_step_precision,
                cfg.row_order,
                dims,
            )
        })
    }));
    let spent = t0.elapsed();
    *reduce_t += spent;
    OBS_COMPRESS_NS.record(spent.as_nanos() as u64);
    let payload = match attempt {
        Ok((summary, perm)) => {
            return Ok(StepAttempt::Kept(
                summary,
                perm,
                false,
                StepOutcome::Completed,
            ))
        }
        Err(payload) => payload,
    };
    let msg = panic_message(payload.as_ref());
    match &cfg.robustness.policy {
        FailurePolicy::Abort => Err(IbisError::WorkerPanic {
            role: WorkerRole::Consumer,
            step: Some(i),
            message: msg,
        }),
        FailurePolicy::SkipStep => Ok(StepAttempt::Dropped(StepOutcome::Skipped {
            reason: format!("summarize panicked: {msg}"),
        })),
        FailurePolicy::FallbackSampling { percent, method } => {
            let (percent, method) = (*percent, *method);
            let t0 = Instant::now();
            let fb = catch_unwind(AssertUnwindSafe(|| {
                pool.install(|| {
                    fallback_summarize(
                        out,
                        &cfg.reduction,
                        percent,
                        method,
                        &cfg.binners,
                        cfg.per_step_precision,
                    )
                })
            }));
            *reduce_t += t0.elapsed();
            match fb {
                // Fallback summaries cover a sampled subset, so the
                // step's permutation doesn't apply: stored identity.
                Ok(summary) => Ok(StepAttempt::Kept(
                    summary,
                    None,
                    true,
                    StepOutcome::FallbackSampled {
                        reason: format!("summarize panicked: {msg}"),
                    },
                )),
                Err(payload2) => Ok(StepAttempt::Dropped(StepOutcome::Failed {
                    error: format!(
                        "summarize panicked ({msg}); sampling fallback also panicked ({})",
                        panic_message(payload2.as_ref())
                    ),
                })),
            }
        }
    }
}

/// Advances the simulation one step under `catch_unwind`. `Ok(Err(msg))`
/// means the step panicked but the policy says keep running.
fn contained_sim_step<S: Simulation>(
    sim: &mut S,
    i: usize,
    pool: &rayon::ThreadPool,
    injector: &FaultInjector,
    policy: &FailurePolicy,
    sim_t: &mut Duration,
) -> Result<std::result::Result<StepOutput, String>> {
    let t0 = Instant::now();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        pool.install(|| {
            injector.maybe_panic(FaultSite::Producer, i);
            sim.step()
        })
    }));
    let spent = t0.elapsed();
    *sim_t += spent;
    OBS_PRODUCE_NS.record(spent.as_nanos() as u64);
    match attempt {
        Ok(out) => Ok(Ok(out)),
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            match policy {
                FailurePolicy::Abort => Err(IbisError::WorkerPanic {
                    role: WorkerRole::Producer,
                    step: Some(i),
                    message: msg,
                }),
                // no data to fall back on: both lenient policies skip
                _ => Ok(Err(msg)),
            }
        }
    }
}

/// Ships one emitted summary through the retrying write path.
fn persist_emitted(
    e: &Emitted,
    storage: &dyn Storage,
    injector: &FaultInjector,
    retry: &RetryPolicy,
    output_modeled: &mut f64,
    bytes_written: &mut u64,
) -> Result<()> {
    let receipt = write_with_retry(storage, injector, retry, *output_modeled, e.summary_bytes)?;
    OBS_STORE_WRITES.inc();
    OBS_STORE_MODELED_US.add((receipt.seconds * 1e6) as u64);
    *output_modeled += receipt.seconds;
    *bytes_written += e.summary_bytes;
    Ok(())
}

fn run_shared<S: Simulation>(
    mut sim: S,
    cfg: &PipelineConfig,
    storage: &dyn Storage,
    injector: &FaultInjector,
) -> Result<InsituReport> {
    let wall0 = Instant::now();
    let dims = resolve_dims(&sim, cfg)?;
    let pool = cfg.machine.pool(cfg.cores);
    let threads = pool.current_num_threads();
    let mem = MemoryTracker::new();
    let sim_resident = sim.resident_bytes() as u64;
    mem.alloc(sim_resident);
    let mut selector = StreamingSelector::new(cfg.steps, cfg.select_k, cfg.metric);
    let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(cfg.steps);
    let mut sim_t = Duration::ZERO;
    let mut reduce_t = Duration::ZERO;
    let mut output_modeled = 0.0f64;
    let mut bytes_written = 0u64;
    let mut summary_bytes_total = 0u64;
    let mut raw_bytes_per_step = 0u64;
    let retry = &cfg.robustness.retry;

    for i in 0..cfg.steps {
        OBS_SHARED_STEPS.inc();
        if injector.should_kill_at(i) {
            return Err(IbisError::Killed { step: i });
        }
        let out = match contained_sim_step(
            &mut sim,
            i,
            &pool,
            injector,
            &cfg.robustness.policy,
            &mut sim_t,
        )? {
            Ok(out) => out,
            Err(msg) => {
                outcomes.push(StepOutcome::Skipped {
                    reason: format!("producer panicked: {msg}"),
                });
                if let Some(e) = selector.note_skipped(i, &mem) {
                    persist_emitted(
                        &e,
                        storage,
                        injector,
                        retry,
                        &mut output_modeled,
                        &mut bytes_written,
                    )?;
                }
                continue;
            }
        };
        let raw = out.size_bytes() as u64;
        raw_bytes_per_step = raw;
        mem.alloc(raw);

        match contained_summarize(&out, i, cfg, &dims, &pool, injector, &mut reduce_t)? {
            StepAttempt::Kept(summary, perm, degraded, outcome) => {
                let sbytes = summary.size_bytes() as u64;
                summary_bytes_total += sbytes;
                mem.alloc(sbytes);
                drop(out);
                mem.free(raw); // raw data discarded once the summary exists
                outcomes.push(outcome);
                if let Some(e) = selector.offer(i, summary, degraded, perm, &mem) {
                    persist_emitted(
                        &e,
                        storage,
                        injector,
                        retry,
                        &mut output_modeled,
                        &mut bytes_written,
                    )?;
                }
            }
            StepAttempt::Dropped(outcome) => {
                drop(out);
                mem.free(raw);
                outcomes.push(outcome);
                if let Some(e) = selector.note_skipped(i, &mem) {
                    persist_emitted(
                        &e,
                        storage,
                        injector,
                        retry,
                        &mut output_modeled,
                        &mut bytes_written,
                    )?;
                }
            }
        }
    }
    let (selected, select_t) = selector.finish(&mem);
    OBS_SELECT_NS.add(select_t.as_nanos() as u64);
    mem.free(sim_resident);

    let speed = cfg.machine.core_speed;
    let phases = PhaseTimes {
        simulate: modeled_seconds(sim_t, threads, cfg.cores, &cfg.sim_scaling, speed),
        reduce: modeled_seconds(
            reduce_t,
            threads,
            cfg.cores,
            &reduce_scaling(&cfg.reduction),
            speed,
        ),
        select: modeled_seconds(
            select_t,
            threads,
            cfg.cores,
            &ScalingModel::selection(),
            speed,
        ),
        output: output_modeled,
    };
    Ok(InsituReport {
        total_modeled: phases.sum(),
        phases,
        wall_seconds: wall0.elapsed().as_secs_f64(),
        selected,
        peak_memory_bytes: mem.peak(),
        bytes_written,
        raw_bytes_per_step,
        summary_bytes_total,
        steps: cfg.steps,
        step_outcomes: outcomes,
        fault_events: Vec::new(), // filled by run_pipeline
    })
}

/// One unit of the Separate-Cores data queue: a step's output, or proof
/// that the producer failed at that step (so the consumer can account for
/// it instead of waiting forever).
struct StepMsg {
    step: usize,
    payload: std::result::Result<StepOutput, String>,
}

fn run_separate<S: Simulation>(
    mut sim: S,
    cfg: &PipelineConfig,
    storage: &dyn Storage,
    injector: &Arc<FaultInjector>,
) -> Result<InsituReport> {
    let CoreAllocation::Separate {
        sim_cores,
        bitmap_cores,
    } = cfg.allocation
    else {
        unreachable!("dispatched on allocation");
    };
    let wall0 = Instant::now();
    let dims = resolve_dims(&sim, cfg)?;
    let mem = MemoryTracker::new();
    let sim_resident = sim.resident_bytes() as u64;
    mem.alloc(sim_resident);
    let (tx, rx) = crossbeam::channel::bounded::<StepMsg>(cfg.queue_capacity);
    // The in-flight watermark can reach capacity + 1: `queue_capacity`
    // buffered messages plus the one a blocked producer holds in hand-off.
    OBS_QUEUE_BOUND.set(cfg.queue_capacity as i64 + 1);
    let sim_pool = cfg.machine.pool(sim_cores);
    let bm_pool = cfg.machine.pool(bitmap_cores);
    let sim_threads = sim_pool.current_num_threads();
    let bm_threads = bm_pool.current_num_threads();
    let steps = cfg.steps;
    let abort_on_panic = matches!(cfg.robustness.policy, FailurePolicy::Abort);
    let retry = &cfg.robustness.retry;

    let mut selector = StreamingSelector::new(cfg.steps, cfg.select_k, cfg.metric);
    let mut outcomes: Vec<StepOutcome> = Vec::with_capacity(cfg.steps);
    let mut reduce_t = Duration::ZERO;
    let mut output_modeled = 0.0f64;
    let mut bytes_written = 0u64;
    let mut summary_bytes_total = 0u64;
    let mut raw_bytes_per_step = 0u64;

    let sim_t = std::thread::scope(|scope| -> Result<Duration> {
        let mem_ref = &mem;
        let producer_inj = Arc::clone(injector);
        // Producer: the simulation core set, feeding the bounded data
        // queue. Every per-step panic is contained here; under Abort the
        // producer reports the step and stops, otherwise it reports and
        // keeps simulating. A failed send means the consumer is gone —
        // exit instead of blocking on a dead queue.
        let producer = scope.spawn(move || {
            // Hand-off with backpressure accounting: the in-flight gauge
            // charges the gauge once a message is actually enqueued (the
            // consumer side decrements), and a full queue routes through a
            // timed blocking send so stall time lands on the stall
            // counter. Observational only — try-then-block has the same
            // delivery semantics as a plain blocking send, so the no-op
            // build behaves identically.
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
            for i in 0..steps {
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    timed_in_pool(&sim_pool, || {
                        producer_inj.maybe_panic(FaultSite::Producer, i);
                        sim.step()
                    })
                }));
                match attempt {
                    Ok((out, d)) => {
                        sim_t += d;
                        OBS_PRODUCE_NS.record(d.as_nanos() as u64);
                        let raw = out.size_bytes() as u64;
                        mem_ref.alloc(raw);
                        // blocks when the queue is full — the paper's
                        // memory bound; errs when the consumer died
                        if let Err(e) = send_counted(StepMsg {
                            step: i,
                            payload: Ok(out),
                        }) {
                            if let Ok(out) = e.0.payload {
                                mem_ref.free(out.size_bytes() as u64);
                            }
                            break;
                        }
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        let stop = abort_on_panic;
                        if send_counted(StepMsg {
                            step: i,
                            payload: Err(msg),
                        })
                        .is_err()
                            || stop
                        {
                            break;
                        }
                    }
                }
            }
            sim_t
        });

        // Consumer: the bitmap core set, draining the queue head. A fatal
        // condition breaks the loop; dropping `rx` afterwards poisons the
        // queue so the producer's next send fails and it exits promptly —
        // the structured error below replaces the old deadlock.
        let mut fatal: Option<IbisError> = None;
        for msg in rx.iter() {
            OBS_QUEUE_IN_FLIGHT.dec();
            OBS_SEPARATE_STEPS.inc();
            let i = msg.step;
            if injector.should_kill_at(i) {
                fatal = Some(IbisError::Killed { step: i });
                break;
            }
            let out = match msg.payload {
                Ok(out) => out,
                Err(msg) => {
                    if abort_on_panic {
                        fatal = Some(IbisError::WorkerPanic {
                            role: WorkerRole::Producer,
                            step: Some(i),
                            message: msg,
                        });
                        break;
                    }
                    outcomes.push(StepOutcome::Skipped {
                        reason: format!("producer panicked: {msg}"),
                    });
                    if let Some(e) = selector.note_skipped(i, &mem) {
                        if let Err(err) = persist_emitted(
                            &e,
                            storage,
                            injector,
                            retry,
                            &mut output_modeled,
                            &mut bytes_written,
                        ) {
                            fatal = Some(err);
                            break;
                        }
                    }
                    continue;
                }
            };
            let raw = out.size_bytes() as u64;
            raw_bytes_per_step = raw;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                timed_in_pool(&bm_pool, || {
                    injector.maybe_panic(FaultSite::Consumer, i);
                    summarize(
                        &out,
                        &cfg.reduction,
                        &cfg.binners,
                        cfg.per_step_precision,
                        cfg.row_order,
                        &dims,
                    )
                })
            }));
            let kept = match attempt {
                Ok(((summary, perm), d)) => {
                    reduce_t += d;
                    OBS_COMPRESS_NS.record(d.as_nanos() as u64);
                    Some((summary, perm, false, StepOutcome::Completed))
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    match &cfg.robustness.policy {
                        FailurePolicy::Abort => {
                            mem.free(raw);
                            fatal = Some(IbisError::WorkerPanic {
                                role: WorkerRole::Consumer,
                                step: Some(i),
                                message: msg,
                            });
                            break;
                        }
                        FailurePolicy::SkipStep => None.or({
                            outcomes.push(StepOutcome::Skipped {
                                reason: format!("summarize panicked: {msg}"),
                            });
                            None
                        }),
                        FailurePolicy::FallbackSampling { percent, method } => {
                            let (percent, method) = (*percent, *method);
                            let fb = catch_unwind(AssertUnwindSafe(|| {
                                timed_in_pool(&bm_pool, || {
                                    fallback_summarize(
                                        &out,
                                        &cfg.reduction,
                                        percent,
                                        method,
                                        &cfg.binners,
                                        cfg.per_step_precision,
                                    )
                                })
                            }));
                            match fb {
                                Ok((summary, d)) => {
                                    reduce_t += d;
                                    OBS_COMPRESS_NS.record(d.as_nanos() as u64);
                                    Some((
                                        summary,
                                        None,
                                        true,
                                        StepOutcome::FallbackSampled {
                                            reason: format!("summarize panicked: {msg}"),
                                        },
                                    ))
                                }
                                Err(payload2) => {
                                    outcomes.push(StepOutcome::Failed {
                                        error: format!(
                                            "summarize panicked ({msg}); sampling fallback also panicked ({})",
                                            panic_message(payload2.as_ref())
                                        ),
                                    });
                                    None
                                }
                            }
                        }
                    }
                }
            };
            let emitted = match kept {
                Some((summary, perm, degraded, outcome)) => {
                    let sbytes = summary.size_bytes() as u64;
                    summary_bytes_total += sbytes;
                    mem.alloc(sbytes);
                    drop(out);
                    mem.free(raw);
                    outcomes.push(outcome);
                    selector.offer(i, summary, degraded, perm, &mem)
                }
                None => {
                    drop(out);
                    mem.free(raw);
                    selector.note_skipped(i, &mem)
                }
            };
            if let Some(e) = emitted {
                if let Err(err) = persist_emitted(
                    &e,
                    storage,
                    injector,
                    retry,
                    &mut output_modeled,
                    &mut bytes_written,
                ) {
                    fatal = Some(err);
                    break;
                }
            }
        }
        drop(rx); // unblock a producer stuck on a full queue
        let sim_t = match producer.join() {
            Ok(d) => d,
            Err(payload) => {
                // a panic that escaped the per-step containment
                let err = IbisError::WorkerPanic {
                    role: WorkerRole::Producer,
                    step: None,
                    message: panic_message(payload.as_ref()),
                };
                return Err(fatal.unwrap_or(err));
            }
        };
        match fatal {
            Some(err) => Err(err),
            None => Ok(sim_t),
        }
    })?;
    let (selected, select_t) = selector.finish(&mem);
    OBS_SELECT_NS.add(select_t.as_nanos() as u64);
    mem.free(sim_resident);

    // One-thread pools were measured in thread CPU time (exact under
    // oversubscription); wider pools used wall clock and need the
    // host-contention correction.
    let active = sim_threads + bm_threads;
    let sim_t = if sim_threads == 1 {
        sim_t
    } else {
        decontend(sim_t, active)
    };
    let reduce_t = if bm_threads == 1 {
        reduce_t
    } else {
        decontend(reduce_t, active)
    };
    let select_t = if bm_threads == 1 {
        select_t
    } else {
        decontend(select_t, active)
    };
    let speed = cfg.machine.core_speed;
    let phases = PhaseTimes {
        simulate: modeled_seconds(sim_t, sim_threads, sim_cores, &cfg.sim_scaling, speed),
        reduce: modeled_seconds(
            reduce_t,
            bm_threads,
            bitmap_cores,
            &reduce_scaling(&cfg.reduction),
            speed,
        ),
        select: modeled_seconds(
            select_t,
            bm_threads,
            bitmap_cores,
            &ScalingModel::selection(),
            speed,
        ),
        output: output_modeled,
    };
    // Simulation and reduction overlap; selection rides the bitmap cores.
    let total_modeled = phases.simulate.max(phases.reduce + phases.select) + phases.output;
    Ok(InsituReport {
        phases,
        total_modeled,
        wall_seconds: wall0.elapsed().as_secs_f64(),
        selected,
        peak_memory_bytes: mem.peak(),
        bytes_written,
        raw_bytes_per_step,
        summary_bytes_total,
        steps: cfg.steps,
        step_outcomes: outcomes,
        fault_events: Vec::new(), // filled by run_pipeline
    })
}

// ---------------------------------------------------------------------------
// Durable runs: checkpointed, resumable, persisted to a checksummed store
// ---------------------------------------------------------------------------

/// Magic prefix of a CHECKPOINT file.
const CHECKPOINT_MAGIC: &[u8; 4] = b"IBCK";
/// Checkpoint format version. v3 embeds only the undecided `buffer`
/// (each summary with its row permutation — data-dependent orders cannot
/// recompute it after resume, the raw step data is gone, and a buffered
/// step may still win its interval). The previous winner is named, not
/// embedded: `persist_winner` made it durable in the store before the
/// step's checkpoint was written, so resume reloads it from there.
const CHECKPOINT_VERSION: u32 = 3;

/// A summary held by the selector: the summary, whether it is degraded,
/// and the row permutation it was built under.
type Held = (StepSummary, bool, Option<Arc<RowPermutation>>);

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
        codec::put_blob(buf, |buf| codec::encode_index_into(buf, idx));
    }
    match perm {
        Some(p) => {
            buf.push(1);
            codec::put_blob(buf, |buf| crate::store::put_perm_payload(buf, p.inv()));
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
    buf.extend_from_slice(CHECKPOINT_MAGIC);
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
    buf.extend_from_slice(&crate::crc::crc32c(&buf).to_le_bytes());
    Ok(buf)
}

/// A minimal cursor over checkpoint bytes; every read is bounds-checked.
struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| IbisError::BadCheckpoint(format!("truncated at byte {}", self.pos)))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(crate::crc::le_u64(self.take(8)?))
    }

    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| IbisError::BadCheckpoint(format!("value {v} overflows")))
    }

    /// An element count whose elements take at least `min` bytes each:
    /// bounded by the bytes left, so no count can drive an allocation the
    /// file does not back.
    fn count(&mut self, min: usize) -> Result<usize> {
        let n = self.usize()?;
        if n > (self.buf.len() - self.pos) / min {
            return Err(IbisError::BadCheckpoint(format!(
                "count {n} at byte {} overruns the file",
                self.pos
            )));
        }
        Ok(n)
    }

    /// A `u64 LE` length followed by that many bytes.
    fn blob(&mut self) -> Result<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.blob()?.to_vec())
            .map_err(|_| IbisError::BadCheckpoint("non-UTF-8 string".into()))
    }

    fn summary(&mut self) -> Result<Held> {
        let step = self.usize()?;
        let degraded = self.u8()? != 0;
        let nvars = self.count(8)?;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let idx = codec::decode_index(self.blob()?)
                .map_err(|e| IbisError::BadCheckpoint(format!("embedded index: {e}")))?;
            vars.push(VarSummary::Bitmap(idx));
        }
        let perm = match self.u8()? {
            0 => None,
            1 => {
                let inv = crate::store::decode_perm_payload(self.blob()?)
                    .map_err(|e| IbisError::BadCheckpoint(format!("embedded permutation: {e}")))?;
                let perm = RowPermutation::from_inverse(inv)
                    .map_err(|e| IbisError::BadCheckpoint(format!("embedded permutation: {e}")))?;
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
}

fn parse_checkpoint(bytes: &[u8]) -> Result<CheckpointState> {
    if bytes.len() < 12 {
        return Err(IbisError::BadCheckpoint("file too short".into()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = crate::crc::le_u32(crc_bytes);
    let actual = crate::crc::crc32c(body);
    if stored != actual {
        return Err(IbisError::BadCheckpoint(format!(
            "CRC mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    let mut r = CkptReader { buf: body, pos: 0 };
    if r.take(4)? != CHECKPOINT_MAGIC {
        return Err(IbisError::BadCheckpoint("bad magic".into()));
    }
    let version = crate::crc::le_u32(r.take(4)?);
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
        let (summary, degraded, perm) = r.summary()?;
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
        let text = r.string()?;
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
    if r.pos != body.len() {
        return Err(IbisError::BadCheckpoint(format!(
            "{} trailing bytes",
            body.len() - r.pos
        )));
    }
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

fn field_names_of(out: &StepOutput) -> Vec<String> {
    out.fields.iter().map(|f| f.name.to_string()).collect()
}

/// Runs a durable Shared-Cores bitmaps pipeline: every selected summary is
/// persisted to a checksummed store at `dir`, and the selector state is
/// checkpointed atomically after every step. If the run dies (crash, kill
/// injection), [`resume_durable`] picks it up where it stopped and the
/// final store is byte-identical to an uninterrupted run's.
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
    mut sim: S,
    cfg: &PipelineConfig,
    dir: &Path,
    resume: bool,
) -> Result<InsituReport> {
    cfg.validate()?;
    if !matches!(cfg.allocation, CoreAllocation::Shared) {
        return Err(IbisError::Config(
            "durable runs support Shared-Cores only".into(),
        ));
    }
    if !matches!(cfg.reduction, Reduction::Bitmaps) {
        return Err(IbisError::Config(
            "durable runs persist bitmap summaries only".into(),
        ));
    }
    OBS_RUNS.inc();
    let _run_span = OBS_RUN_WALL_NS.span();
    let injector = Arc::new(FaultInjector::new(cfg.robustness.faults.clone()));
    let wall0 = Instant::now();
    let pool = cfg.machine.pool(cfg.cores);
    let threads = pool.current_num_threads();
    let ckpt_path = dir.join("CHECKPOINT");

    let state = if resume {
        match std::fs::read(&ckpt_path) {
            Ok(bytes) => parse_checkpoint(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => CheckpointState::default(),
            Err(e) => return Err(IbisError::io("read CHECKPOINT", &e)),
        }
    } else {
        CheckpointState::default()
    };
    if state.next_step > cfg.steps {
        return Err(IbisError::BadCheckpoint(format!(
            "checkpoint is at step {} but the run has only {}",
            state.next_step, cfg.steps
        )));
    }
    let mut writer = if resume {
        StoreWriter::resume(dir)?
    } else {
        StoreWriter::create(dir)?
    }
    .with_fault_injector(Arc::clone(&injector));

    let dims = resolve_dims(&sim, cfg)?;

    // Replay the completed prefix to restore the deterministic simulation's
    // state (recovery overhead: charged to wall time, not modeled time).
    let mut field_names: Option<Vec<String>> = None;
    for _ in 0..state.next_step {
        let out = pool.install(|| sim.step());
        field_names.get_or_insert_with(|| field_names_of(&out));
    }

    let mem = MemoryTracker::new();
    let sim_resident = sim.resident_bytes() as u64;
    mem.alloc(sim_resident);
    let mut selector = StreamingSelector::new(cfg.steps, cfg.select_k, cfg.metric);
    selector.cur = state.cur_interval;
    selector.selected = state.selected;
    if let Some(prev) = state.prev {
        let names = field_names.as_deref().ok_or_else(|| {
            IbisError::BadCheckpoint("a previous selection but no completed step".into())
        })?;
        selector.prev = Some(reload_prev(&writer.durable_view(), prev, names)?);
    }
    selector.buffer = state.buffer;
    if let Some((p, _, _)) = &selector.prev {
        mem.alloc(p.size_bytes() as u64);
    }
    for (_, s, _, _) in &selector.buffer {
        mem.alloc(s.size_bytes() as u64);
    }
    let mut outcomes = state.outcomes;
    let mut sim_t = Duration::ZERO;
    let mut reduce_t = Duration::ZERO;
    let mut totals = state.totals;
    let disk_bw = cfg.machine.disk_bw;

    // Makes the winner durable in the store — blobs synced, then their
    // journal lines synced — before the step's checkpoint names it.
    let persist_winner = |selector: &StreamingSelector,
                          writer: &mut StoreWriter,
                          names: &Option<Vec<String>>,
                          e: &Emitted,
                          totals: &mut RunTotals|
     -> Result<()> {
        let Some(summary) = selector.prev_summary() else {
            return Ok(());
        };
        let names = names.as_ref().ok_or_else(|| {
            IbisError::Config("selection emitted before any field names were seen".into())
        })?;
        for (j, var) in summary.vars.iter().enumerate() {
            let VarSummary::Bitmap(idx) = var else {
                return Err(IbisError::Config(
                    "durable runs persist bitmap summaries only".into(),
                ));
            };
            let name = names.get(j).map(String::as_str).unwrap_or("field");
            writer.put(e.step, name, idx)?;
        }
        if let Some(perm) = selector.prev_order() {
            // The winner's indices are stored permuted: persist the
            // inverse permutation next to them so the query engine can
            // map selections back to original row ids.
            writer.put_order(e.step, cfg.row_order, perm)?;
        }
        totals.output_modeled += e.summary_bytes as f64 / disk_bw;
        totals.bytes_written += e.summary_bytes;
        Ok(())
    };

    for i in state.next_step..cfg.steps {
        OBS_SHARED_STEPS.inc();
        if injector.should_kill_at(i) {
            // the checkpoint written after step i-1 and the journal make
            // this recoverable; report the kill as a structured error
            return Err(IbisError::Killed { step: i });
        }
        let produced = contained_sim_step(
            &mut sim,
            i,
            &pool,
            &injector,
            &cfg.robustness.policy,
            &mut sim_t,
        )?;
        let emitted = match produced {
            Err(msg) => {
                outcomes.push(StepOutcome::Skipped {
                    reason: format!("producer panicked: {msg}"),
                });
                selector.note_skipped(i, &mem)
            }
            Ok(out) => {
                field_names.get_or_insert_with(|| field_names_of(&out));
                let raw = out.size_bytes() as u64;
                totals.raw_bytes_per_step = raw;
                mem.alloc(raw);
                let attempt =
                    contained_summarize(&out, i, cfg, &dims, &pool, &injector, &mut reduce_t)?;
                drop(out);
                match attempt {
                    StepAttempt::Kept(summary, perm, degraded, outcome) => {
                        let sbytes = summary.size_bytes() as u64;
                        totals.summary_bytes_total += sbytes;
                        mem.alloc(sbytes);
                        mem.free(raw);
                        outcomes.push(outcome);
                        selector.offer(i, summary, degraded, perm, &mem)
                    }
                    StepAttempt::Dropped(outcome) => {
                        mem.free(raw);
                        outcomes.push(outcome);
                        selector.note_skipped(i, &mem)
                    }
                }
            }
        };
        if let Some(e) = emitted {
            persist_winner(&selector, &mut writer, &field_names, &e, &mut totals)?;
        }
        // Checkpoint the post-step state atomically: a crash between here
        // and the next step resumes exactly at step i+1.
        let bytes = encode_checkpoint(i + 1, &selector, &outcomes, &totals)?;
        write_atomic(&dir.join(".CHECKPOINT.tmp"), &ckpt_path, &bytes)
            .map_err(|e| IbisError::io("write CHECKPOINT", &e))?;
    }

    let (selected, select_t) = selector.finish(&mem);
    OBS_SELECT_NS.add(select_t.as_nanos() as u64);
    mem.free(sim_resident);
    writer.finish()?;
    match std::fs::remove_file(&ckpt_path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(IbisError::io("remove CHECKPOINT", &e)),
    }

    let speed = cfg.machine.core_speed;
    let phases = PhaseTimes {
        simulate: modeled_seconds(sim_t, threads, cfg.cores, &cfg.sim_scaling, speed),
        reduce: modeled_seconds(
            reduce_t,
            threads,
            cfg.cores,
            &reduce_scaling(&cfg.reduction),
            speed,
        ),
        select: modeled_seconds(
            select_t,
            threads,
            cfg.cores,
            &ScalingModel::selection(),
            speed,
        ),
        output: totals.output_modeled,
    };
    Ok(InsituReport {
        total_modeled: phases.sum(),
        phases,
        wall_seconds: wall0.elapsed().as_secs_f64(),
        selected,
        peak_memory_bytes: mem.peak(),
        bytes_written: totals.bytes_written,
        raw_bytes_per_step: totals.raw_bytes_per_step,
        summary_bytes_total: totals.summary_bytes_total,
        steps: cfg.steps,
        step_outcomes: outcomes,
        fault_events: injector.events(),
    })
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

    #[test]
    fn checkpoint_round_trips() {
        let data: Vec<f64> = (0..200).map(|i| (i % 30) as f64).collect();
        let binner = Binner::distinct_ints(0, 29);
        let perm = Arc::new(
            RowOrder::HistogramSorted
                .permutation(&[], &binner, &data)
                .unwrap(),
        );
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

        // every truncation and every single-bit flip is a typed error
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    parse_checkpoint(&bytes[..cut]),
                    Err(IbisError::BadCheckpoint(_))
                ),
                "truncated to {cut} bytes"
            );
        }
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(
                matches!(parse_checkpoint(&bad), Err(IbisError::BadCheckpoint(_))),
                "bit flipped in byte {at}"
            );
        }

        // the same damage under a recomputed CRC reaches the parser proper:
        // a cut body is always an error, a flipped one never a panic
        let reseal = |mut body: Vec<u8>| {
            let crc = crate::crc::crc32c(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            body
        };
        let body = &bytes[..bytes.len() - 4];
        for cut in 0..body.len() {
            assert!(
                matches!(
                    parse_checkpoint(&reseal(body[..cut].to_vec())),
                    Err(IbisError::BadCheckpoint(_))
                ),
                "resealed body cut to {cut} bytes"
            );
        }
        for at in 0..body.len() {
            let mut bad = body.to_vec();
            bad[at] ^= 1 << (at % 8);
            if let Err(e) = parse_checkpoint(&reseal(bad)) {
                assert!(matches!(e, IbisError::BadCheckpoint(_)), "byte {at}: {e}");
            }
        }

        // a v2 checkpoint (valid CRC, old version word) is refused by name
        let mut v2 = body.to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let v2 = reseal(v2);
        assert_eq!(
            parse_checkpoint(&v2).err(),
            Some(IbisError::BadCheckpoint("unsupported version 2".into()))
        );

        // reloading the named winner: from the store, in field order
        let dir = std::env::temp_dir().join(format!("ibis-ckpt-prev-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let names = ["temperature".to_string(), "salinity".to_string()];
        let persist = |with_order: bool| {
            let mut w = StoreWriter::create(&dir).unwrap();
            w.put(3, "temperature", &idx).unwrap();
            w.put(3, "salinity", &idx.unpermute(&perm)).unwrap();
            if with_order {
                w.put_order(3, RowOrder::HistogramSorted, &perm).unwrap();
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
        std::fs::remove_dir_all(&dir).ok();
    }
}
