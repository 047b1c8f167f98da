//! Deterministic fault injection for the in-situ pipeline.
//!
//! Surviving worker panics, torn writes, and flaky links is only credible
//! if every failure path is exercised — so faults are *planned*, not
//! random: a [`FaultPlan`] is either built explicitly or derived from a
//! seed by a fixed PRNG, and the runtime [`FaultInjector`] fires each
//! fault at a deterministic operation index. The same plan therefore
//! produces the identical failure report on every run, which the test
//! suite asserts.
//!
//! Sites:
//!
//! * **modeled storage writes** — transient I/O errors, torn writes (the
//!   transfer dies midway), delayed acks (a slow remote link) — only on a
//!   modeled sink ([`crate::retry::write_with_retry`]);
//! * **workers** — the producer (simulation), consumer (reduction), or a
//!   cluster node panics at a chosen time-step;
//! * **kill** — the whole process "dies" at a chosen step (crash/resume
//!   testing for the durable pipeline);
//! * **serving** — a query worker serves a request slowly, a worker thread
//!   dies mid-request (the pool respawns it), or a client connection
//!   stalls mid-frame. Serving faults are keyed by *request op index*
//!   (the n-th request the server admits) and *connection index* (accept
//!   order), so the same plan replays identically under the SLO tests.

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where an injected panic can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The simulation step of the producer.
    Producer,
    /// The reduction step of the consumer.
    Consumer,
    /// A cluster node's step (any phase on the node thread).
    Node(usize),
}

/// What a storage-write fault does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteFault {
    /// The write fails outright with an I/O error.
    IoError,
    /// The transfer dies midway: partial bytes may be on disk, the
    /// operation reports failure.
    Torn,
    /// The write succeeds but its acknowledgement is delayed by the given
    /// modeled seconds (a slow or congested link).
    DelayedAck(f64),
}

/// A deterministic schedule of faults.
///
/// Write faults are keyed by the *operation index*: the n-th modeled
/// storage write the run performs (0-based, counted by the
/// [`FaultInjector`]); they reach only modeled sinks, never a durable
/// run's files. Worker panics and kills are keyed by time-step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Write operations that fail with an I/O error.
    pub io_error_ops: BTreeSet<u64>,
    /// Write operations that tear mid-transfer.
    pub torn_write_ops: BTreeSet<u64>,
    /// Write operations whose ack is delayed, and by how many modeled
    /// seconds.
    pub delayed_ack_ops: BTreeMap<u64, u64>,
    /// When `false` (default) a faulted write op succeeds if retried —
    /// the transient-failure model. When `true` the op fails on every
    /// attempt, exhausting the retry budget.
    pub persistent_write_faults: bool,
    /// Panic the simulation (producer) at this step.
    pub producer_panic_at: Option<usize>,
    /// Panic the reduction (consumer) at this step.
    pub consumer_panic_at: Option<usize>,
    /// Panic cluster node `.0` at step `.1`.
    pub node_panic_at: Option<(usize, usize)>,
    /// Kill the durable pipeline before processing this step (crash
    /// simulation for checkpoint/resume tests).
    pub kill_at_step: Option<usize>,
    /// Serving: extra worker latency in milliseconds, keyed by request op
    /// index (the n-th request the query server admits).
    pub slow_request_ops: BTreeMap<u64, u64>,
    /// Serving: request ops whose worker panics mid-execution and dies.
    /// The panic is contained per-request and the pool respawns the
    /// worker, so only the in-flight request is poisoned.
    pub worker_death_ops: BTreeSet<u64>,
    /// Serving: client connections (0-based accept order) that stall
    /// mid-frame. Drives load-generator clients; the server reaps them
    /// via its read timeout.
    pub stalled_client_conns: BTreeSet<u64>,
}

/// Delayed acks are stored in milliseconds so the plan stays `Eq`-friendly
/// and bit-exactly reproducible.
const MILLIS: f64 = 1e-3;

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` if the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Derives a mixed plan from `seed`, scaled to a run of `steps`
    /// time-steps: a few transient I/O errors, possibly a torn write, a
    /// delayed ack, and possibly a consumer panic. Identical seeds yield
    /// identical plans.
    pub fn seeded(seed: u64, steps: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let steps = steps.max(1) as u64;
        let mut plan = FaultPlan::default();
        // 1–3 transient I/O errors somewhere in the first `steps` writes.
        for _ in 0..(1 + rng.below(3)) {
            plan.io_error_ops.insert(rng.below(steps));
        }
        if rng.below(2) == 0 {
            plan.torn_write_ops.insert(rng.below(steps));
        }
        if rng.below(2) == 0 {
            // 50–550 ms of extra modeled latency on one ack
            plan.delayed_ack_ops
                .insert(rng.below(steps), 50 + rng.below(500));
        }
        if rng.below(3) == 0 {
            plan.consumer_panic_at = Some(rng.below(steps) as usize);
        }
        plan
    }

    /// Builder: fail write op `op` with a transient I/O error.
    pub fn with_io_error_at(mut self, op: u64) -> Self {
        self.io_error_ops.insert(op);
        self
    }

    /// Builder: tear write op `op`.
    pub fn with_torn_write_at(mut self, op: u64) -> Self {
        self.torn_write_ops.insert(op);
        self
    }

    /// Builder: delay write op `op`'s ack by `seconds` (modeled).
    pub fn with_delayed_ack_at(mut self, op: u64, seconds: f64) -> Self {
        self.delayed_ack_ops
            .insert(op, (seconds / MILLIS).round() as u64);
        self
    }

    /// Builder: make write faults permanent (every retry fails too).
    pub fn with_persistent_write_faults(mut self) -> Self {
        self.persistent_write_faults = true;
        self
    }

    /// Builder: panic the producer at `step`.
    pub fn with_producer_panic_at(mut self, step: usize) -> Self {
        self.producer_panic_at = Some(step);
        self
    }

    /// Builder: panic the consumer at `step`.
    pub fn with_consumer_panic_at(mut self, step: usize) -> Self {
        self.consumer_panic_at = Some(step);
        self
    }

    /// Builder: panic cluster node `node` at `step`.
    pub fn with_node_panic_at(mut self, node: usize, step: usize) -> Self {
        self.node_panic_at = Some((node, step));
        self
    }

    /// Builder: kill the durable pipeline before processing `step`.
    pub fn with_kill_at_step(mut self, step: usize) -> Self {
        self.kill_at_step = Some(step);
        self
    }

    /// Builder: serve request op `op` slowly (`ms` extra worker latency).
    pub fn with_slow_request(mut self, op: u64, ms: u64) -> Self {
        self.slow_request_ops.insert(op, ms);
        self
    }

    /// Builder: kill the worker executing request op `op` (contained
    /// panic + pool respawn).
    pub fn with_worker_death_at(mut self, op: u64) -> Self {
        self.worker_death_ops.insert(op);
        self
    }

    /// Builder: stall client connection `conn` (accept order) mid-frame.
    pub fn with_stalled_client(mut self, conn: u64) -> Self {
        self.stalled_client_conns.insert(conn);
        self
    }

    /// Derives a serving-path plan from `seed`, scaled to a run of
    /// `requests`: a few slow-worker events, possibly a worker death, and
    /// possibly a stalled client. Identical seeds yield identical plans —
    /// the determinism regression the serving tests assert.
    pub fn seeded_serving(seed: u64, requests: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5E57_1A6B_17A5_0FF5);
        let n = requests.max(1) as u64;
        let mut plan = FaultPlan::default();
        // 1–3 slow-worker events of 20–100 ms somewhere in the run.
        for _ in 0..(1 + rng.below(3)) {
            plan.slow_request_ops
                .insert(rng.below(n), 20 + rng.below(80));
        }
        if rng.below(2) == 0 {
            plan.worker_death_ops.insert(rng.below(n));
        }
        if rng.below(2) == 0 {
            plan.stalled_client_conns.insert(rng.below(4));
        }
        plan
    }
}

/// Runtime state of a plan: counts write operations, fires scheduled
/// faults, and records every event for the failure report.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    write_ops: AtomicU64,
    events: Mutex<Vec<String>>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            write_ops: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// An injector that never fires (production mode).
    pub fn inert() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Claims the next write-operation index and returns the fault (if
    /// any) scheduled for it. `attempt` is 0 for the first try; transient
    /// faults (the default) only fire on attempt 0, persistent faults fire
    /// on every attempt.
    ///
    /// Retries of the same logical write must call
    /// [`FaultInjector::write_fault_for`] with the op index this returned,
    /// not claim a fresh one.
    pub fn begin_write(&self) -> u64 {
        self.write_ops.fetch_add(1, Ordering::Relaxed)
    }

    /// The fault scheduled for write `op` at retry `attempt`, if it fires.
    pub fn write_fault_for(&self, op: u64, attempt: u32) -> Option<WriteFault> {
        if attempt > 0 && !self.plan.persistent_write_faults {
            return None;
        }
        if self.plan.io_error_ops.contains(&op) {
            self.record(format!(
                "write op {op} attempt {attempt}: injected I/O error"
            ));
            return Some(WriteFault::IoError);
        }
        if self.plan.torn_write_ops.contains(&op) {
            self.record(format!(
                "write op {op} attempt {attempt}: injected torn write"
            ));
            return Some(WriteFault::Torn);
        }
        if let Some(ms) = self.plan.delayed_ack_ops.get(&op) {
            self.record(format!(
                "write op {op} attempt {attempt}: ack delayed {ms}ms"
            ));
            return Some(WriteFault::DelayedAck(*ms as f64 * MILLIS));
        }
        None
    }

    /// Panics (with a recognizable message) if the plan schedules a panic
    /// at `site`/`step`. Callers run this *inside* their `catch_unwind`
    /// region, so the injected panic exercises the real containment path.
    pub fn maybe_panic(&self, site: FaultSite, step: usize) {
        let fire = match site {
            FaultSite::Producer => self.plan.producer_panic_at == Some(step),
            FaultSite::Consumer => self.plan.consumer_panic_at == Some(step),
            FaultSite::Node(id) => self.plan.node_panic_at == Some((id, step)),
        };
        if fire {
            let who = match site {
                FaultSite::Producer => "producer".to_string(),
                FaultSite::Consumer => "consumer".to_string(),
                FaultSite::Node(id) => format!("node {id}"),
            };
            self.record(format!("{who} step {step}: injected panic"));
            panic!("injected fault: {who} panic at step {step}");
        }
    }

    /// `true` if the plan kills the run before `step`; records the event.
    pub fn should_kill_at(&self, step: usize) -> bool {
        if self.plan.kill_at_step == Some(step) {
            self.record(format!("step {step}: injected kill"));
            true
        } else {
            false
        }
    }

    /// The injected extra service latency for serving request `op`, if
    /// any; records the event.
    pub fn serve_delay_for(&self, op: u64) -> Option<std::time::Duration> {
        let ms = *self.plan.slow_request_ops.get(&op)?;
        self.record(format!("request op {op}: injected slow worker {ms}ms"));
        Some(std::time::Duration::from_millis(ms))
    }

    /// `true` if the worker executing serving request `op` is scheduled
    /// to die. The worker calls [`FaultInjector::worker_death_panic`]
    /// inside its per-request `catch_unwind` (poisoning only that
    /// request), then exits its thread so the pool's respawn path runs.
    pub fn worker_death_at(&self, op: u64) -> bool {
        self.plan.worker_death_ops.contains(&op)
    }

    /// Records and fires the worker-death panic for request `op`.
    pub fn worker_death_panic(&self, op: u64) -> ! {
        self.record(format!("request op {op}: injected worker death"));
        panic!("{INJECTED_PANIC_PREFIX} worker death at request op {op}");
    }

    /// `true` if client connection `conn` (accept order) should stall
    /// mid-frame; records the event. Consulted by load generators — the
    /// server itself only ever sees the resulting silence.
    pub fn client_stall_at(&self, conn: u64) -> bool {
        if self.plan.stalled_client_conns.contains(&conn) {
            self.record(format!("connection {conn}: injected stalled client"));
            true
        } else {
            false
        }
    }

    /// Appends an event line to the failure report (also used by the
    /// pipeline to log contained panics and retry outcomes).
    pub fn record(&self, event: String) {
        self.events.lock().push(event);
    }

    /// Snapshot of every fault event fired so far, in firing order within
    /// each thread. Event strings contain only deterministic quantities
    /// (op indices, steps, attempt numbers) so two runs of the same plan
    /// compare equal.
    pub fn events(&self) -> Vec<String> {
        let mut ev = self.events.lock().clone();
        // Producer and consumer record concurrently under Separate-Cores;
        // sort for a stable cross-run order.
        ev.sort();
        ev
    }
}

/// The panic-role marker for injected panics (used to assert a contained
/// panic was the injected one).
pub const INJECTED_PANIC_PREFIX: &str = "injected fault:";

/// SplitMix64: tiny, deterministic, good enough for deriving fault mixes.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(FaultPlan::seeded(seed, 20), FaultPlan::seeded(seed, 20));
        }
        // different seeds almost surely differ
        assert_ne!(FaultPlan::seeded(1, 20), FaultPlan::seeded(2, 20));
    }

    #[test]
    fn transient_faults_fire_once() {
        let inj = FaultInjector::new(FaultPlan::none().with_io_error_at(0));
        let op = inj.begin_write();
        assert_eq!(inj.write_fault_for(op, 0), Some(WriteFault::IoError));
        assert_eq!(inj.write_fault_for(op, 1), None, "retry succeeds");
        let op2 = inj.begin_write();
        assert_eq!(inj.write_fault_for(op2, 0), None);
    }

    #[test]
    fn persistent_faults_fire_on_every_attempt() {
        let inj = FaultInjector::new(
            FaultPlan::none()
                .with_io_error_at(0)
                .with_persistent_write_faults(),
        );
        let op = inj.begin_write();
        for attempt in 0..5 {
            assert_eq!(inj.write_fault_for(op, attempt), Some(WriteFault::IoError));
        }
    }

    #[test]
    fn injected_panic_is_catchable_and_recorded() {
        let inj = FaultInjector::new(FaultPlan::none().with_consumer_panic_at(3));
        inj.maybe_panic(FaultSite::Consumer, 2); // no fire
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.maybe_panic(FaultSite::Consumer, 3)
        }));
        assert!(r.is_err());
        let events = inj.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].contains("injected panic"));
    }

    #[test]
    fn seeded_serving_plans_are_reproducible() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(
                FaultPlan::seeded_serving(seed, 100),
                FaultPlan::seeded_serving(seed, 100)
            );
        }
        assert_ne!(
            FaultPlan::seeded_serving(1, 100),
            FaultPlan::seeded_serving(2, 100)
        );
    }

    #[test]
    fn serving_faults_fire_at_their_ops_and_record() {
        let inj = FaultInjector::new(
            FaultPlan::none()
                .with_slow_request(3, 25)
                .with_worker_death_at(5)
                .with_stalled_client(1),
        );
        assert_eq!(inj.serve_delay_for(0), None);
        assert_eq!(
            inj.serve_delay_for(3),
            Some(std::time::Duration::from_millis(25))
        );
        assert!(!inj.worker_death_at(4));
        assert!(inj.worker_death_at(5));
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.worker_death_panic(5)));
        assert!(r.is_err());
        assert!(!inj.client_stall_at(0));
        assert!(inj.client_stall_at(1));
        let events = inj.events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(events.iter().any(|e| e.contains("slow worker")));
        assert!(events.iter().any(|e| e.contains("worker death")));
        assert!(events.iter().any(|e| e.contains("stalled client")));
    }

    #[test]
    fn delayed_ack_round_trips_milliseconds() {
        let inj = FaultInjector::new(FaultPlan::none().with_delayed_ack_at(0, 0.25));
        let op = inj.begin_write();
        match inj.write_fault_for(op, 0) {
            Some(WriteFault::DelayedAck(s)) => assert!((s - 0.25).abs() < 1e-9),
            other => panic!("expected delayed ack, got {other:?}"),
        }
    }
}
