//! Overload-safe query serving: the robustness shell around
//! [`QueryEngine`](crate::engine::QueryEngine) that lets one finished run directory answer thousands
//! of concurrent queries without queueing collapse.
//!
//! The engine itself is correct under concurrency (sharded cache, `&self`
//! everywhere) but has no opinion about *load*: an unbounded caller swarm
//! would queue without limit, duplicate hot decodes, and drag every
//! request's latency down together. [`QueryServer`] adds the missing
//! overload-control layer (DESIGN.md §6i):
//!
//! * **bounded admission** — requests enter a fixed-capacity queue via
//!   try-then-timed-block (the pipeline's backpressure idiom); when the
//!   queue stays full past the admission window the request is *shed*
//!   with a typed [`ServeError::Shed`] carrying a `retry_after_ms` hint,
//!   so excess load turns into fast typed refusals instead of collapse;
//! * **per-request deadlines** — checked at admission, again at dequeue,
//!   and between bitmap loads (via [`QueryEngine::run_with_deadline`](crate::engine::QueryEngine::run_with_deadline));
//!   a request that can no longer meet its budget is dropped early with
//!   [`ServeError::Deadline`] rather than wasting decode work;
//! * **duplicate coalescing** — identical in-flight requests share one
//!   execution: the first becomes the *leader* and runs, the rest attach
//!   to its result slot, so a thundering herd on one cold bitmap decodes
//!   exactly once and the answer fans out;
//! * **contained faults** — a panicking worker poisons only its in-flight
//!   request (`catch_unwind` + [`ServeError::WorkerPanic`]) and the pool
//!   respawns the thread; [`crate::fault::FaultPlan`]'s serving events
//!   (slow worker, worker death, stalled client) exercise every path
//!   deterministically;
//! * **socket front end** — [`SocketServer`] speaks line-delimited frames
//!   of the existing JSON batch protocol over a `TcpListener`, tolerant
//!   of split frames, trailing garbage, oversized lines, and mid-request
//!   disconnects; stalled clients are reaped by a read timeout and a
//!   connection cap sheds accept-time overload.
//!
//! Counters/gauges/histograms live in the `serving.*` family; the
//! admission queue's occupancy gauge (`serving.queue.depth`, bound
//! published as `serving.queue.bound`) is the "no queueing collapse"
//! witness the serving bench asserts on. Per-instance [`ServeStats`]
//! mirror the counters so tests stay independent of global obs state.

use crate::engine::{self, QueryAnswer, QueryRequest};
use crate::error::{panic_message, IbisError};
use crate::fault::{FaultInjector, FaultPlan};
use crate::json;
use crate::shard::EngineBackend;
use ibis_obs::{LazyCounter, LazyGauge, LazyHistogram};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static OBS_ADMITTED: LazyCounter = LazyCounter::new("serving.admitted");
static OBS_SHED: LazyCounter = LazyCounter::new("serving.shed");
static OBS_QUEUE_STALLS: LazyCounter = LazyCounter::new("serving.queue.stalls");
static OBS_DEADLINE_ADMISSION: LazyCounter = LazyCounter::new("serving.deadline.admission");
static OBS_DEADLINE_DEQUEUE: LazyCounter = LazyCounter::new("serving.deadline.dequeue");
static OBS_DEADLINE_EXECUTION: LazyCounter = LazyCounter::new("serving.deadline.execution");
static OBS_COALESCE_LEAD: LazyCounter = LazyCounter::new("serving.coalesce.lead");
static OBS_COALESCE_HIT: LazyCounter = LazyCounter::new("serving.coalesce.hit");
static OBS_OK: LazyCounter = LazyCounter::new("serving.ok");
static OBS_FAILED: LazyCounter = LazyCounter::new("serving.failed");
static OBS_WORKER_PANICS: LazyCounter = LazyCounter::new("serving.worker.panics");
static OBS_WORKER_RESPAWNS: LazyCounter = LazyCounter::new("serving.worker.respawns");
static OBS_FRAMES_BAD: LazyCounter = LazyCounter::new("serving.frames.bad");
static OBS_CONNS_REJECTED: LazyCounter = LazyCounter::new("serving.conns.rejected");
static OBS_QUEUE_DEPTH: LazyGauge = LazyGauge::new("serving.queue.depth");
static OBS_QUEUE_BOUND: LazyGauge = LazyGauge::new("serving.queue.bound");
static OBS_WORKERS_ALIVE: LazyGauge = LazyGauge::new("serving.workers.alive");
static OBS_CONNS_OPEN: LazyGauge = LazyGauge::new("serving.conns.open");
static OBS_LATENCY_NS: LazyHistogram =
    LazyHistogram::new("serving.latency_ns", ibis_obs::TIME_NS_BOUNDS);
static OBS_QUEUE_WAIT_NS: LazyHistogram =
    LazyHistogram::new("serving.queue.wait_ns", ibis_obs::TIME_NS_BOUNDS);

/// Locks ignoring poisoning: a worker panic is already contained and
/// reported per-request, so the shared state stays usable (matching the
/// parking_lot semantics used elsewhere in the crate).
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a request's deadline was found expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// The budget was already spent when the request arrived.
    Admission,
    /// It expired while queued; the worker dropped it at dequeue instead
    /// of executing it.
    Dequeue,
    /// It expired during execution, between bitmap loads.
    Execution,
    /// The *caller* stopped waiting at its deadline; the shared result
    /// may still complete for coalesced peers.
    Wait,
}

impl DeadlineStage {
    /// Stable lowercase name (wire protocol + reports).
    pub fn name(self) -> &'static str {
        match self {
            DeadlineStage::Admission => "admission",
            DeadlineStage::Dequeue => "dequeue",
            DeadlineStage::Execution => "execution",
            DeadlineStage::Wait => "wait",
        }
    }
}

/// Why the server refused or failed a request. Every variant is typed and
/// `Clone + PartialEq`, so overload behavior is comparable across runs —
/// the serving determinism tests assert on it.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue stayed full past the admission window; retry
    /// after the hinted backoff.
    Shed {
        /// Suggested client backoff, derived from queue depth × recent
        /// mean service time.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before an answer was produced.
    Deadline {
        /// Where the expiry was detected.
        stage: DeadlineStage,
    },
    /// The worker executing this request panicked; the panic was
    /// contained and poisoned only this request.
    WorkerPanic {
        /// The panic payload, stringified.
        message: String,
    },
    /// The server is shutting down.
    Closed,
    /// The query itself failed (unknown variable, malformed predicate,
    /// corrupt blob, ...).
    Query(IbisError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed { retry_after_ms } => {
                write!(f, "overloaded: shed, retry after {retry_after_ms}ms")
            }
            ServeError::Deadline { stage } => {
                write!(f, "deadline exceeded at {}", stage.name())
            }
            ServeError::WorkerPanic { message } => {
                write!(f, "worker panicked (contained): {message}")
            }
            ServeError::Closed => f.write_str("server is shutting down"),
            ServeError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A request's final disposition.
pub type ServeResult = std::result::Result<QueryAnswer, ServeError>;

/// Configuration of a [`QueryServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission queue capacity — the hard bound on queued requests.
    pub queue_capacity: usize,
    /// How long admission may block on a full queue before shedding (the
    /// timed-block half of the try-then-block idiom). Zero sheds
    /// immediately on a full queue.
    pub admission_timeout: Duration,
    /// Deadline budget applied to requests that don't carry their own.
    /// `None` means no default deadline.
    pub default_deadline: Option<Duration>,
    /// Longest accepted socket frame (one protocol line) in bytes;
    /// longer lines get an error response and the connection is closed.
    pub max_frame_bytes: usize,
    /// Socket read timeout: a connection idle (or stalled mid-frame) this
    /// long is closed, reaping stalled clients.
    pub read_timeout: Duration,
    /// Open-connection cap; further accepts are shed with a typed
    /// response before a handler thread is spawned.
    pub max_connections: usize,
    /// Record per-request completion latencies (nanoseconds) for
    /// benches/tests via [`QueryServer::take_latencies`].
    pub record_latencies: bool,
    /// Fault schedule for the serving path (slow workers, worker deaths).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            admission_timeout: Duration::from_millis(5),
            default_deadline: None,
            max_frame_bytes: 1 << 20,
            read_timeout: Duration::from_secs(10),
            max_connections: 256,
            record_latencies: false,
            faults: FaultPlan::none(),
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> crate::error::Result<()> {
        if self.workers == 0 {
            return Err(IbisError::Config("serving: workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(IbisError::Config(
                "serving: queue_capacity must be >= 1".into(),
            ));
        }
        if self.max_frame_bytes < 2 {
            return Err(IbisError::Config(
                "serving: max_frame_bytes must be >= 2".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(IbisError::Config(
                "serving: max_connections must be >= 1".into(),
            ));
        }
        if self.read_timeout.is_zero() {
            return Err(IbisError::Config(
                "serving: read_timeout must be non-zero".into(),
            ));
        }
        Ok(())
    }
}

/// Point-in-time counters of one [`QueryServer`] instance — the
/// per-instance mirror of the `serving.*` obs family, so tests and the
/// determinism regression compare exact values without global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests accepted into the queue (leaders only; coalesced
    /// followers don't occupy a slot).
    pub admitted: u64,
    /// Requests refused with [`ServeError::Shed`].
    pub shed: u64,
    /// Admissions that had to block on a full queue at least once.
    pub queue_stalls: u64,
    /// Deadlines expired on arrival.
    pub deadline_admission: u64,
    /// Deadlines expired in the queue (dropped at dequeue).
    pub deadline_dequeue: u64,
    /// Deadlines expired during execution (between bitmap loads).
    pub deadline_execution: u64,
    /// Requests that became coalescing leaders (executed).
    pub coalesce_leads: u64,
    /// Requests that attached to an identical in-flight leader.
    pub coalesce_hits: u64,
    /// Requests answered successfully.
    pub ok: u64,
    /// Requests that failed with a query error.
    pub failed: u64,
    /// Worker panics contained (each poisoned exactly one request).
    pub worker_panics: u64,
    /// Worker threads respawned after an injected death.
    pub worker_respawns: u64,
    /// Highest queue occupancy observed — never exceeds
    /// [`ServeConfig::queue_capacity`] by construction.
    pub queue_peak: u64,
    /// Current queue occupancy.
    pub queue_depth: u64,
}

/// Atomic counter block behind [`ServeStats`].
#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    queue_stalls: AtomicU64,
    deadline_admission: AtomicU64,
    deadline_dequeue: AtomicU64,
    deadline_execution: AtomicU64,
    coalesce_leads: AtomicU64,
    coalesce_hits: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    worker_respawns: AtomicU64,
}

/// One-shot result slot shared by a leader and its coalesced followers.
struct Slot {
    result: Mutex<Option<ServeResult>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn resolve(&self, outcome: ServeResult) {
        *lock(&self.result) = Some(outcome);
        self.ready.notify_all();
    }

    /// Waits for the result, up to `deadline`. `None` = the caller's
    /// deadline passed first (the slot may still resolve for others).
    fn wait(&self, deadline: Option<Instant>) -> Option<ServeResult> {
        let mut g = lock(&self.result);
        loop {
            if let Some(r) = g.as_ref() {
                return Some(r.clone());
            }
            match deadline {
                None => {
                    g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    let (g2, _) = self
                        .ready
                        .wait_timeout(g, d - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    g = g2;
                }
            }
        }
    }
}

/// A queued unit of work: the leader's request plus its shared slot.
struct Job {
    request: QueryRequest,
    deadline: Option<Instant>,
    enqueued: Instant,
    op: u64,
    key: String,
    slot: Arc<Slot>,
}

enum PushRejected {
    Full,
    Closed,
}

/// The bounded admission queue: a `VecDeque` behind a mutex with two
/// condvars, giving real timed blocking (no polling) and an exact
/// occupancy gauge — `serving.queue.depth` can never exceed
/// `serving.queue.bound` because the capacity check and the push happen
/// under one lock.
struct BoundedQueue {
    state: Mutex<QueueState>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
    peak: AtomicU64,
}

struct QueueState {
    items: VecDeque<Job>,
    closed: bool,
}

impl BoundedQueue {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            peak: AtomicU64::new(0),
        }
    }

    fn push_in(&self, g: &mut MutexGuard<'_, QueueState>, job: Job) {
        g.items.push_back(job);
        let depth = g.items.len() as u64;
        self.peak.fetch_max(depth, Ordering::Relaxed);
        OBS_QUEUE_DEPTH.inc();
        self.not_empty.notify_one();
    }

    // Rejections hand the job back boxed: the error path is cold, and
    // boxing keeps the hot `Ok` return small (clippy::result_large_err).
    fn try_push(&self, job: Job) -> std::result::Result<(), (PushRejected, Box<Job>)> {
        let mut g = lock(&self.state);
        if g.closed {
            return Err((PushRejected::Closed, Box::new(job)));
        }
        if g.items.len() >= self.cap {
            return Err((PushRejected::Full, Box::new(job)));
        }
        self.push_in(&mut g, job);
        Ok(())
    }

    /// Blocks until space frees up, `until` passes, or the queue closes.
    fn push_until(
        &self,
        job: Job,
        until: Instant,
    ) -> std::result::Result<(), (PushRejected, Box<Job>)> {
        let mut g = lock(&self.state);
        loop {
            if g.closed {
                return Err((PushRejected::Closed, Box::new(job)));
            }
            if g.items.len() < self.cap {
                self.push_in(&mut g, job);
                return Ok(());
            }
            let now = Instant::now();
            if now >= until {
                return Err((PushRejected::Full, Box::new(job)));
            }
            let (g2, _) = self
                .not_full
                .wait_timeout(g, until - now)
                .unwrap_or_else(PoisonError::into_inner);
            g = g2;
        }
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained (graceful shutdown answers everything already admitted).
    fn pop(&self) -> Option<Job> {
        let mut g = lock(&self.state);
        loop {
            if let Some(job) = g.items.pop_front() {
                OBS_QUEUE_DEPTH.dec();
                self.not_full.notify_one();
                return Some(job);
            }
            if g.closed {
                return None;
            }
            g = self
                .not_empty
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn len(&self) -> usize {
        lock(&self.state).items.len()
    }
}

/// Stable coalescing key: two requests coalesce iff they are equal, and
/// `QueryRequest`'s derived `Debug` is a total, deterministic rendering
/// of that equality (the store is fixed per server, so it needs no key).
fn coalesce_key(request: &QueryRequest) -> String {
    format!("{request:?}")
}

struct Core {
    engine: EngineBackend,
    cfg: ServeConfig,
    queue: BoundedQueue,
    inflight: Mutex<HashMap<String, Arc<Slot>>>,
    injector: FaultInjector,
    request_ops: AtomicU64,
    counters: Counters,
    handles: Mutex<Vec<JoinHandle<()>>>,
    closing: AtomicBool,
    /// EWMA of successful service time (ns), for the shed backoff hint.
    service_ns: AtomicU64,
    latencies: Option<Mutex<Vec<u64>>>,
}

impl Core {
    /// Removes the request from the coalescing map *then* resolves its
    /// slot, so a later identical request starts a fresh leader while
    /// every already-attached follower still sees this outcome.
    fn finish(&self, key: &str, slot: &Arc<Slot>, outcome: ServeResult) {
        lock(&self.inflight).remove(key);
        slot.resolve(outcome);
    }

    /// Folds one successful service time into the EWMA. The word packs a
    /// wrapping sample count (high 32 bits) next to the EWMA in ns (low
    /// 32 bits, saturated at ~4.3s — far past the 10s retry clamp): a
    /// plain load→compute→store here loses concurrent workers' samples,
    /// letting the shed hint drift under exactly the load it describes.
    fn note_service(&self, ns: u64) {
        let ns = ns.min(u32::MAX as u64);
        let _ = self
            .service_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |packed| {
                let (count, old) = (packed >> 32, packed & u32::MAX as u64);
                let new = if count == 0 { ns } else { (3 * old + ns) / 4 };
                Some((count.wrapping_add(1) & u32::MAX as u64) << 32 | new)
            });
    }

    /// Samples folded into the service-time EWMA so far (wraps at 2^32).
    #[cfg(test)]
    fn service_samples(&self) -> u64 {
        self.service_ns.load(Ordering::Relaxed) >> 32
    }

    /// Backoff hint for a shed response: roughly how long the current
    /// backlog needs to drain at the recent mean service time.
    fn retry_after_ms(&self) -> u64 {
        let svc_ns = (self.service_ns.load(Ordering::Relaxed) & u32::MAX as u64).max(1_000_000);
        let depth = self.queue.len() as u64 + 1;
        let per_worker = depth.div_ceil(self.cfg.workers.max(1) as u64);
        (per_worker * svc_ns / 1_000_000).clamp(1, 10_000)
    }
}

fn spawn_worker(core: &Arc<Core>, id: usize) {
    let c = Arc::clone(core);
    let handle = std::thread::spawn(move || worker_loop(c, id));
    lock(&core.handles).push(handle);
}

fn worker_loop(core: Arc<Core>, id: usize) {
    OBS_WORKERS_ALIVE.inc();
    while let Some(job) = core.queue.pop() {
        let now = Instant::now();
        OBS_QUEUE_WAIT_NS.record(now.duration_since(job.enqueued).as_nanos() as u64);
        if job.deadline.is_some_and(|d| now >= d) {
            core.counters
                .deadline_dequeue
                .fetch_add(1, Ordering::Relaxed);
            OBS_DEADLINE_DEQUEUE.inc();
            core.finish(
                &job.key,
                &job.slot,
                Err(ServeError::Deadline {
                    stage: DeadlineStage::Dequeue,
                }),
            );
            continue;
        }
        let dies = core.injector.worker_death_at(job.op);
        let t0 = Instant::now();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            if let Some(delay) = core.injector.serve_delay_for(job.op) {
                std::thread::sleep(delay);
            }
            if dies {
                core.injector.worker_death_panic(job.op);
            }
            core.engine.run_with_deadline(&job.request, job.deadline)
        }));
        let outcome = match executed {
            Ok(Ok(answer)) => {
                core.counters.ok.fetch_add(1, Ordering::Relaxed);
                OBS_OK.inc();
                core.note_service(t0.elapsed().as_nanos() as u64);
                let latency_ns = job.enqueued.elapsed().as_nanos() as u64;
                OBS_LATENCY_NS.record(latency_ns);
                if let Some(lat) = &core.latencies {
                    lock(lat).push(latency_ns);
                }
                Ok(answer)
            }
            Ok(Err(IbisError::DeadlineExceeded { .. })) => {
                core.counters
                    .deadline_execution
                    .fetch_add(1, Ordering::Relaxed);
                OBS_DEADLINE_EXECUTION.inc();
                Err(ServeError::Deadline {
                    stage: DeadlineStage::Execution,
                })
            }
            Ok(Err(e)) => {
                core.counters.failed.fetch_add(1, Ordering::Relaxed);
                OBS_FAILED.inc();
                Err(ServeError::Query(e))
            }
            Err(payload) => {
                core.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
                OBS_WORKER_PANICS.inc();
                let message = panic_message(payload.as_ref());
                core.injector
                    .record(format!("request op {}: worker panic contained", job.op));
                Err(ServeError::WorkerPanic { message })
            }
        };
        core.finish(&job.key, &job.slot, outcome);
        if dies {
            // The thread "died": hand its identity to a fresh worker and
            // exit. Only the poisoned request above was lost.
            core.counters
                .worker_respawns
                .fetch_add(1, Ordering::Relaxed);
            OBS_WORKER_RESPAWNS.inc();
            if !core.closing.load(Ordering::Relaxed) {
                spawn_worker(&core, id);
            }
            OBS_WORKERS_ALIVE.dec();
            return;
        }
    }
    OBS_WORKERS_ALIVE.dec();
}

/// An admitted (or coalesced) request's pending answer. Dropping the
/// ticket abandons the wait; the request still executes and resolves for
/// any coalesced peers.
pub struct Ticket {
    slot: Arc<Slot>,
    deadline: Option<Instant>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &lock(&self.slot.result).is_some())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl Ticket {
    /// Blocks until the answer is ready or this caller's deadline passes
    /// (then [`ServeError::Deadline`] at [`DeadlineStage::Wait`]).
    pub fn wait(self) -> ServeResult {
        match self.slot.wait(self.deadline) {
            Some(outcome) => outcome,
            None => Err(ServeError::Deadline {
                stage: DeadlineStage::Wait,
            }),
        }
    }
}

/// A long-running query server over one [`QueryEngine`](crate::engine::QueryEngine): bounded
/// admission, deadlines, coalescing, and a respawning worker pool.
/// Dropping the server shuts it down gracefully (admitted requests are
/// still answered).
pub struct QueryServer {
    core: Arc<Core>,
}

impl fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryServer")
            .field("workers", &self.core.cfg.workers)
            .field("queue_capacity", &self.core.cfg.queue_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl QueryServer {
    /// Starts the worker pool over `engine` — a [`QueryEngine`](crate::engine::QueryEngine) of
    /// any shard count (or the compatibility [`EngineBackend`] around one).
    pub fn start(
        engine: impl Into<EngineBackend>,
        cfg: ServeConfig,
    ) -> crate::error::Result<QueryServer> {
        cfg.validate()?;
        OBS_QUEUE_BOUND.set(cfg.queue_capacity as i64);
        let latencies = cfg.record_latencies.then(|| Mutex::new(Vec::new()));
        let core = Arc::new(Core {
            engine: engine.into(),
            queue: BoundedQueue::new(cfg.queue_capacity),
            inflight: Mutex::new(HashMap::new()),
            injector: FaultInjector::new(cfg.faults.clone()),
            request_ops: AtomicU64::new(0),
            counters: Counters::default(),
            handles: Mutex::new(Vec::new()),
            closing: AtomicBool::new(false),
            service_ns: AtomicU64::new(0),
            latencies,
            cfg,
        });
        for id in 0..core.cfg.workers {
            spawn_worker(&core, id);
        }
        Ok(QueryServer { core })
    }

    /// The engine this server answers from (cache stats, catalog,
    /// maintenance) — derefs to [`QueryEngine`](crate::engine::QueryEngine); the wrapper type
    /// is compatibility-only (see [`EngineBackend`]).
    pub fn engine(&self) -> &EngineBackend {
        &self.core.engine
    }

    /// This server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.core.cfg
    }

    /// Per-instance counters (see [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        let c = &self.core.counters;
        ServeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            queue_stalls: c.queue_stalls.load(Ordering::Relaxed),
            deadline_admission: c.deadline_admission.load(Ordering::Relaxed),
            deadline_dequeue: c.deadline_dequeue.load(Ordering::Relaxed),
            deadline_execution: c.deadline_execution.load(Ordering::Relaxed),
            coalesce_leads: c.coalesce_leads.load(Ordering::Relaxed),
            coalesce_hits: c.coalesce_hits.load(Ordering::Relaxed),
            ok: c.ok.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            worker_respawns: c.worker_respawns.load(Ordering::Relaxed),
            queue_peak: self.core.queue.peak.load(Ordering::Relaxed),
            queue_depth: self.core.queue.len() as u64,
        }
    }

    /// Every fault event fired on the serving path so far (sorted; equal
    /// across runs of the same plan — the determinism guarantee).
    pub fn fault_events(&self) -> Vec<String> {
        self.core.injector.events()
    }

    /// Drains the recorded per-request latencies (ns); empty unless
    /// [`ServeConfig::record_latencies`] is set.
    pub fn take_latencies(&self) -> Vec<u64> {
        match &self.core.latencies {
            Some(lat) => std::mem::take(&mut *lock(lat)),
            None => Vec::new(),
        }
    }

    /// Submits one request and blocks for its outcome. `budget` bounds
    /// the request's wall-clock (falling back to the configured default).
    pub fn submit(&self, request: &QueryRequest, budget: Option<Duration>) -> ServeResult {
        let deadline = effective_deadline(budget.or(self.core.cfg.default_deadline));
        match self.submit_async_until(request, deadline) {
            Ok(ticket) => ticket.wait(),
            Err(e) => Err(e),
        }
    }

    /// [`QueryServer::submit`] against an absolute deadline — the socket
    /// front end stamps one deadline per frame and applies it to every
    /// query in the batch.
    pub fn submit_until(&self, request: &QueryRequest, deadline: Option<Instant>) -> ServeResult {
        match self.submit_async_until(request, deadline) {
            Ok(ticket) => ticket.wait(),
            Err(e) => Err(e),
        }
    }

    /// Admits (or coalesces) a request and returns a [`Ticket`] without
    /// waiting for execution — open-loop load generators submit at their
    /// arrival schedule regardless of completion. Admission itself may
    /// block up to [`ServeConfig::admission_timeout`].
    pub fn submit_async(
        &self,
        request: &QueryRequest,
        budget: Option<Duration>,
    ) -> std::result::Result<Ticket, ServeError> {
        let deadline = effective_deadline(budget.or(self.core.cfg.default_deadline));
        self.submit_async_until(request, deadline)
    }

    fn submit_async_until(
        &self,
        request: &QueryRequest,
        deadline: Option<Instant>,
    ) -> std::result::Result<Ticket, ServeError> {
        let core = &self.core;
        if core.closing.load(Ordering::Relaxed) {
            return Err(ServeError::Closed);
        }
        let now = Instant::now();
        if deadline.is_some_and(|d| now >= d) {
            core.counters
                .deadline_admission
                .fetch_add(1, Ordering::Relaxed);
            OBS_DEADLINE_ADMISSION.inc();
            return Err(ServeError::Deadline {
                stage: DeadlineStage::Admission,
            });
        }
        let key = coalesce_key(request);
        let slot = {
            let mut m = lock(&core.inflight);
            if let Some(existing) = m.get(&key) {
                core.counters.coalesce_hits.fetch_add(1, Ordering::Relaxed);
                OBS_COALESCE_HIT.inc();
                return Ok(Ticket {
                    slot: Arc::clone(existing),
                    deadline,
                });
            }
            let slot = Arc::new(Slot::new());
            m.insert(key.clone(), Arc::clone(&slot));
            core.counters.coalesce_leads.fetch_add(1, Ordering::Relaxed);
            OBS_COALESCE_LEAD.inc();
            slot
        };
        let op = core.request_ops.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            request: request.clone(),
            deadline,
            enqueued: now,
            op,
            key: key.clone(),
            slot: Arc::clone(&slot),
        };
        // Admission: try, then block for a bounded window (the pipeline's
        // backpressure idiom — except past the window we shed instead of
        // waiting forever).
        let job = match core.queue.try_push(job) {
            Ok(()) => {
                core.counters.admitted.fetch_add(1, Ordering::Relaxed);
                OBS_ADMITTED.inc();
                return Ok(Ticket { slot, deadline });
            }
            Err((PushRejected::Closed, _)) => {
                core.finish(&key, &slot, Err(ServeError::Closed));
                return Err(ServeError::Closed);
            }
            Err((PushRejected::Full, job)) => *job,
        };
        core.counters.queue_stalls.fetch_add(1, Ordering::Relaxed);
        OBS_QUEUE_STALLS.inc();
        let mut until = now + core.cfg.admission_timeout;
        if let Some(d) = deadline {
            until = until.min(d);
        }
        match core.queue.push_until(job, until) {
            Ok(()) => {
                core.counters.admitted.fetch_add(1, Ordering::Relaxed);
                OBS_ADMITTED.inc();
                Ok(Ticket { slot, deadline })
            }
            Err((PushRejected::Closed, _)) => {
                core.finish(&key, &slot, Err(ServeError::Closed));
                Err(ServeError::Closed)
            }
            Err((PushRejected::Full, _)) => {
                let outcome = if deadline.is_some_and(|d| Instant::now() >= d) {
                    core.counters
                        .deadline_admission
                        .fetch_add(1, Ordering::Relaxed);
                    OBS_DEADLINE_ADMISSION.inc();
                    ServeError::Deadline {
                        stage: DeadlineStage::Admission,
                    }
                } else {
                    core.counters.shed.fetch_add(1, Ordering::Relaxed);
                    OBS_SHED.inc();
                    ServeError::Shed {
                        retry_after_ms: core.retry_after_ms(),
                    }
                };
                core.finish(&key, &slot, Err(outcome.clone()));
                Err(outcome)
            }
        }
    }

    /// Handles one protocol frame (a line of the socket protocol) and
    /// returns the response line: `{"answers": [...]}` with per-query
    /// outcomes, or a frame-level `{"error": ..., "kind": "bad_request"}`.
    ///
    /// The frame is a batch document (`{"queries": [...]}`) with an
    /// optional `deadline_ms` applied to every query in the batch.
    pub fn handle_frame(&self, line: &str) -> String {
        let (requests, budget) = match parse_frame(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                OBS_FRAMES_BAD.inc();
                return format!(
                    "{{\"error\": \"{}\", \"kind\": \"bad_request\"}}",
                    json::escape(&e.to_string())
                );
            }
        };
        let deadline = effective_deadline(budget.or(self.core.cfg.default_deadline));
        let mut out = String::from("{\"answers\": [");
        for (i, request) in requests.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&render_outcome(&self.submit_until(request, deadline)));
        }
        out.push_str("]}");
        out
    }

    /// Shuts the pool down: new submissions get [`ServeError::Closed`],
    /// already-admitted requests are drained and answered, workers join.
    pub fn shutdown(&self) {
        if self.core.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        self.core.queue.close();
        // Respawns can push new handles while we join; drain until quiet.
        loop {
            let handles: Vec<JoinHandle<()>> = lock(&self.core.handles).drain(..).collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn effective_deadline(budget: Option<Duration>) -> Option<Instant> {
    budget.map(|b| Instant::now() + b)
}

/// Parses one protocol frame into its requests and optional deadline.
fn parse_frame(line: &str) -> crate::error::Result<(Vec<QueryRequest>, Option<Duration>)> {
    let bad = |reason: String| IbisError::BadRequest {
        index: None,
        reason,
    };
    let doc = json::parse(line).map_err(|e| bad(e.to_string()))?;
    let budget = match doc.get("deadline_ms") {
        None => None,
        Some(v) => {
            let ms = v
                .as_num()
                .ok_or_else(|| bad("\"deadline_ms\" must be a number".into()))?;
            if !ms.is_finite() || ms < 0.0 {
                return Err(bad(format!(
                    "\"deadline_ms\" must be a non-negative number, got {ms}"
                )));
            }
            Some(Duration::from_millis(ms as u64))
        }
    };
    let requests = engine::parse_batch_doc(&doc)?;
    Ok((requests, budget))
}

/// Renders one request's disposition as a JSON answer element. Typed
/// refusals carry a `kind` (and `retry_after_ms` for sheds) so clients
/// can distinguish backpressure from query errors.
fn render_outcome(outcome: &ServeResult) -> String {
    match outcome {
        Ok(answer) => engine::render_ok(answer),
        Err(ServeError::Query(e)) => format!(
            "{{\"error\": \"{}\", \"kind\": \"query\"}}",
            json::escape(&e.to_string())
        ),
        Err(ServeError::Shed { retry_after_ms }) => format!(
            "{{\"error\": \"overloaded\", \"kind\": \"shed\", \"retry_after_ms\": {retry_after_ms}}}"
        ),
        Err(ServeError::Deadline { stage }) => format!(
            "{{\"error\": \"deadline exceeded at {0}\", \"kind\": \"deadline\", \"stage\": \"{0}\"}}",
            stage.name()
        ),
        Err(ServeError::WorkerPanic { message }) => format!(
            "{{\"error\": \"{}\", \"kind\": \"panic\"}}",
            json::escape(message)
        ),
        Err(ServeError::Closed) => {
            "{\"error\": \"server is shutting down\", \"kind\": \"closed\"}".to_string()
        }
    }
}

/// The TCP front end: accepts connections and speaks newline-delimited
/// frames of the JSON batch protocol against a shared [`QueryServer`].
///
/// Robustness properties (held by the adversarial socket suite):
/// frames may arrive split across arbitrarily many reads or packed many
/// per read; a malformed line gets an error response and the connection
/// keeps serving; a line longer than [`ServeConfig::max_frame_bytes`]
/// gets an error response and the connection closes; a mid-frame
/// disconnect or stall never wedges a worker (parsing happens on the
/// per-connection thread, which the read timeout reaps).
pub struct SocketServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    completed: Arc<AtomicU64>,
}

impl SocketServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop over `server`.
    pub fn bind(server: Arc<QueryServer>, addr: &str) -> crate::error::Result<SocketServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| IbisError::io(format!("bind {addr}"), &e))?;
        let local = listener
            .local_addr()
            .map_err(|e| IbisError::io("local_addr", &e))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicU64::new(0));
        let open = Arc::new(AtomicUsize::new(0));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || {
                accept_loop(listener, server, shutdown, completed, open);
            })
        };
        Ok(SocketServer {
            addr: local,
            shutdown,
            accept: Some(accept),
            completed,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections fully handled so far (including shed accepts) — lets
    /// `ibis serve --conns N` terminate deterministically.
    pub fn connections_completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Stops accepting and joins the accept loop. Already-open
    /// connections finish on their own threads (bounded by the read
    /// timeout).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(handle) = self.accept.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        let _ = handle.join();
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: TcpListener,
    server: Arc<QueryServer>,
    shutdown: Arc<AtomicBool>,
    completed: Arc<AtomicU64>,
    open: Arc<AtomicUsize>,
) {
    let mut conn_id: u64 = 0;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if open.load(Ordering::Relaxed) >= server.core.cfg.max_connections {
            OBS_CONNS_REJECTED.inc();
            let retry = server.core.retry_after_ms();
            let mut s = &stream;
            let _ = writeln!(
                s,
                "{{\"error\": \"connection limit reached\", \"kind\": \"shed\", \
                 \"retry_after_ms\": {retry}}}"
            );
            completed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        open.fetch_add(1, Ordering::Relaxed);
        OBS_CONNS_OPEN.inc();
        // Injected stalled client: this connection goes silent mid-
        // exchange (no reads are serviced) until the read timeout reaps
        // it — other connections must keep being served throughout.
        let stalled = server.core.injector.client_stall_at(conn_id);
        conn_id += 1;
        let server = Arc::clone(&server);
        let completed = Arc::clone(&completed);
        let open = Arc::clone(&open);
        std::thread::spawn(move || {
            if stalled {
                std::thread::sleep(server.core.cfg.read_timeout);
            } else {
                handle_connection(&server, stream);
            }
            open.fetch_sub(1, Ordering::Relaxed);
            OBS_CONNS_OPEN.dec();
            completed.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// Serves one connection: buffers bytes, answers each complete line.
/// Returns (closing the connection) on EOF, error, read timeout, an
/// oversized frame, or a failed write.
fn handle_connection(server: &QueryServer, stream: TcpStream) {
    let cfg = &server.core.cfg;
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Serve every complete line currently buffered (frames may be
        // split across reads or packed several per read).
        let mut start = 0usize;
        while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
            let end = start + nl;
            let line = &buf[start..end];
            start = end + 1;
            let line = std::str::from_utf8(line)
                .map(|s| s.trim_matches(['\r', ' ', '\t']))
                .unwrap_or("\u{fffd}");
            if line.is_empty() {
                continue; // blank keep-alive lines get no response
            }
            let response = server.handle_frame(line);
            if writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .is_err()
            {
                return;
            }
        }
        buf.drain(..start);
        if buf.len() > cfg.max_frame_bytes {
            OBS_FRAMES_BAD.inc();
            let _ = writer.write_all(
                format!(
                    "{{\"error\": \"frame exceeds {} bytes\", \"kind\": \"bad_request\"}}\n",
                    cfg.max_frame_bytes
                )
                .as_bytes(),
            );
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return, // EOF — possibly mid-frame; just drop it
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            // Timeout (stalled or idle client) or any hard error: reap.
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedStore;
    use crate::engine::QueryEngine;
    use crate::store::{Store, StoreWriter};
    use ibis_analysis::SubsetQuery;
    use ibis_core::{Binner, BitmapIndex};
    use ibis_testkit::TempDir;

    fn test_store(name: &str) -> (TempDir, Store) {
        let dir = TempDir::new(&format!("serving-unit-{name}"));
        let mut w = StoreWriter::create(&dir).unwrap();
        let temp: Vec<f64> = (0..2000).map(|i| ((i * 7) % 300) as f64 / 10.0).collect();
        w.put(
            0,
            "temperature",
            &BitmapIndex::build(&temp, Binner::fixed_width(0.0, 30.0, 64)),
        )
        .unwrap();
        w.finish().unwrap();
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn server(store: Store, cfg: ServeConfig) -> QueryServer {
        QueryServer::start(QueryEngine::new(CachedStore::new(store, 64 << 20)), cfg).unwrap()
    }

    fn subset_req() -> QueryRequest {
        QueryRequest::Subset {
            step: 0,
            variable: "temperature".into(),
            query: SubsetQuery::value(0.0, 15.0),
        }
    }

    #[test]
    fn submit_answers_and_counts() {
        let (_dir, store) = test_store("basic");
        let s = server(store, ServeConfig::default());
        let ans = s.submit(&subset_req(), None).unwrap();
        assert!(matches!(ans, QueryAnswer::Subset { of: 2000, .. }));
        let st = s.stats();
        assert_eq!((st.admitted, st.ok, st.shed), (1, 1, 0));
        s.shutdown();
    }

    #[test]
    fn zero_budget_deadlines_at_admission() {
        let (_dir, store) = test_store("admission");
        let s = server(store, ServeConfig::default());
        let err = s.submit(&subset_req(), Some(Duration::ZERO)).unwrap_err();
        assert_eq!(
            err,
            ServeError::Deadline {
                stage: DeadlineStage::Admission
            }
        );
        assert_eq!(s.stats().deadline_admission, 1);
    }

    #[test]
    fn closed_server_rejects_submissions() {
        let (_dir, store) = test_store("closed");
        let s = server(store, ServeConfig::default());
        s.shutdown();
        assert_eq!(s.submit(&subset_req(), None), Err(ServeError::Closed));
    }

    #[test]
    fn bad_frames_are_typed_responses_not_panics() {
        let (_dir, store) = test_store("frames");
        let s = server(store, ServeConfig::default());
        for bad in [
            "not json",
            "{}",
            r#"{"queries": 7}"#,
            r#"{"queries": [], "deadline_ms": "soon"}"#,
            r#"{"queries": [], "deadline_ms": -4}"#,
            r#"{"queries": [{"kind": "nope"}]}"#,
        ] {
            let resp = s.handle_frame(bad);
            assert!(
                resp.contains("\"error\"") && resp.contains("bad_request"),
                "{bad:?} → {resp}"
            );
            json::parse(&resp).unwrap();
        }
        // a well-formed frame with a per-query failure answers inline
        let resp =
            s.handle_frame(r#"{"queries": [{"kind": "subset", "variable": "no_such_var"}]}"#);
        assert!(resp.contains("\"answers\"") && resp.contains("\"kind\": \"query\""));
        json::parse(&resp).unwrap();
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        let (_dir, store) = test_store("retry");
        let s = server(store, ServeConfig::default());
        let hint = s.core.retry_after_ms();
        assert!((1..=10_000).contains(&hint));
    }

    #[test]
    fn note_service_loses_no_update_under_contention() {
        // Regression: the EWMA was a load→compute→store, so concurrent
        // workers silently dropped each other's samples. The packed
        // sample counter is carried through the same atomic word, so a
        // lost EWMA update is a lost count: exact count == no loss.
        let (_dir, store) = test_store("ewma_race");
        let s = server(store, ServeConfig::default());
        let core = Arc::clone(&s.core);
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let core = Arc::clone(&core);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        core.note_service(1_000_000 + (t * PER_THREAD + i) % 997);
                    }
                });
            }
        });
        assert_eq!(core.service_samples(), THREADS * PER_THREAD);
        // the EWMA itself stays in the band of the fed samples
        let ewma = core.service_ns.load(Ordering::Relaxed) & u32::MAX as u64;
        assert!((1_000_000..1_001_000).contains(&ewma), "ewma {ewma}");
        drop(s);
    }

    #[test]
    fn serve_errors_display_and_compare() {
        let a = ServeError::Shed { retry_after_ms: 7 };
        assert_eq!(a, a.clone());
        assert!(a.to_string().contains("7ms"));
        let d = ServeError::Deadline {
            stage: DeadlineStage::Dequeue,
        };
        assert!(d.to_string().contains("dequeue"));
    }
}
