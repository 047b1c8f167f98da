//! Parallel in-situ environment (Section 5.3, Figure 13): `N` nodes each
//! simulate a z-slab of the Heat3D mesh, exchange boundary planes with
//! their neighbours every sweep (the paper's MPI communication, carried
//! over channels), build local bitmaps, and cooperate on a *global*
//! time-steps selection.
//!
//! Global selection works because every quantity the conditional-entropy
//! metric needs is **additive across nodes**: each node holds its slab's
//! [`VarSummary`] per step and votes its [`VarSummary::partial`] of each
//! candidate against the previously selected step (the joint bin counts
//! over its slab); a coordinator [`CorrelationPartial::merge`]s the votes
//! and scores the global counts with [`Metric::finish`] — the same
//! finisher `select_greedy` runs, so the selection is bit-identical to a
//! single-node run over the whole mesh.
//!
//! Output goes either to node-local disks (independent, parallel) or to one
//! shared remote data server whose link serializes all writers
//! ([`crate::io::RemoteLink`]) — the contrast that yields the paper's
//! 1.24×–3.79× remote-case speedups.
//!
//! ## Fault tolerance
//!
//! A node that panics is contained by `catch_unwind` on its own thread and
//! surfaces as a structured [`IbisError::NodeFailure`], never as a hung
//! cluster: the dead node's channels disconnect, its neighbours' halo
//! exchanges fail fast, and the coordinator's per-vote `recv_timeout`
//! backstop catches any node that can no longer vote. Storage writes go
//! through the retrying [`write_with_retry`] path. Cascade errors (a
//! healthy node aborting because its neighbour vanished) are folded into
//! the root-cause report rather than listed as independent failures.

use crate::error::{panic_message, IbisError, Result, WorkerRole};
use crate::fault::{FaultInjector, FaultSite};
use crate::io::{LocalDisk, RemoteLink, Storage};
use crate::machine::{
    decontend, modeled_seconds, timed_in_pool, MachineModel, PhaseClock, ScalingModel,
};
use crate::pipeline::RobustnessConfig;
use crate::report::PhaseTimes;
use crate::retry::write_with_retry;
use crossbeam::channel::{bounded, Receiver, Sender};
use ibis_analysis::selection::fixed_intervals;
use ibis_analysis::{CorrelationPartial, Metric, VarSummary};
use ibis_core::Binner;
use ibis_datagen::{Heat3DConfig, Heat3DPartition};
use ibis_obs::{LazyCounter, LazyHistogram, TIME_NS_BOUNDS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

static OBS_CLUSTER_RUNS: LazyCounter = LazyCounter::new("cluster.runs");
static OBS_CLUSTER_NODE_STEPS: LazyCounter = LazyCounter::new("cluster.node.steps");
/// Wall time one node spends on one time-step (halo exchange + sweeps +
/// reduction + its share of the coordinated selection).
static OBS_CLUSTER_STEP_NS: LazyHistogram = LazyHistogram::new("cluster.step.ns", TIME_NS_BOUNDS);
static OBS_CLUSTER_VOTES: LazyCounter = LazyCounter::new("cluster.votes");
static OBS_CLUSTER_NODE_FAILURES: LazyCounter = LazyCounter::new("cluster.node.failures");
static OBS_CLUSTER_CASCADES: LazyCounter = LazyCounter::new("cluster.cascades");

/// Where each node's selected summaries are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterIo {
    /// Node-local disks: writes proceed in parallel.
    Local,
    /// One shared remote data server (~100 MB/s): writes contend.
    Remote,
}

/// Reduction method for the cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterReduction {
    /// Local WAH bitmap indices.
    Bitmaps,
    /// Keep (and ship) the raw slabs.
    FullData,
}

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of compute nodes (threads-as-nodes).
    pub nodes: usize,
    /// Cores used on each node.
    pub cores_per_node: usize,
    /// Per-node platform profile.
    pub machine: MachineModel,
    /// The Heat3D mesh, split along z across the nodes.
    pub heat: Heat3DConfig,
    /// Jacobi sweeps per output time-step.
    pub sweeps_per_step: usize,
    /// Time-steps to simulate.
    pub steps: usize,
    /// Time-steps to select.
    pub select_k: usize,
    /// Shared binning scale for the temperature variable.
    pub binner: Binner,
    /// Reduction method.
    pub reduction: ClusterReduction,
    /// Output target.
    pub io: ClusterIo,
    /// Bandwidth of the shared remote link in bytes/second (the paper's
    /// data server runs at ~100 MB/s; benches rescale it to preserve the
    /// paper's data-to-bandwidth ratio at reduced problem sizes).
    pub remote_bw: f64,
    /// Simulation scalability per node.
    pub sim_scaling: ScalingModel,
    /// Fault-tolerance configuration. The coordinated global selection
    /// needs every node's vote, so a node failure always aborts the run
    /// (the `policy` field is not consulted); the `retry` schedule and
    /// `faults` plan apply as in the single-node pipeline.
    pub robustness: RobustnessConfig,
    /// How long the coordinator waits for any single node's vote before
    /// declaring the cluster wedged (the deadlock backstop). Keep this
    /// comfortably above one selection interval's compute time.
    pub coordinator_timeout: Duration,
}

/// The cluster run's result.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Slowest node's modeled per-phase times (nodes run in parallel).
    pub phases: PhaseTimes,
    /// End-to-end modeled time (slowest node, I/O contention included).
    pub total_modeled: f64,
    /// Globally selected step indices.
    pub selected: Vec<usize>,
    /// Total bytes shipped to storage across all nodes.
    pub bytes_written: u64,
    /// Nodes used.
    pub nodes: usize,
    /// Deterministic log of injected faults that fired (empty without
    /// injection).
    pub fault_events: Vec<String>,
}

/// Per-interval message from a node: `(step index, partial)` per buffered
/// candidate, its slab's conditional-entropy partial (the joint table)
/// against the previously selected step.
type NodeVote = Vec<(usize, CorrelationPartial)>;

/// A node aborted because a peer it depends on went away.
fn disconnected(waiting_for: &str) -> IbisError {
    IbisError::Disconnected {
        role: WorkerRole::Node,
        waiting_for: waiting_for.to_string(),
    }
}

/// Runs the cluster experiment; returns the per-node-max report, or a
/// structured error naming every failed node — a node panic can no longer
/// hang the halo exchange or the coordinator.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterReport> {
    if cfg.nodes < 1 {
        return Err(IbisError::Config("need at least one node".into()));
    }
    if cfg.steps < 1 || cfg.select_k < 1 || cfg.select_k > cfg.steps {
        return Err(IbisError::Config(format!(
            "bad steps/k: select {} of {}",
            cfg.select_k, cfg.steps
        )));
    }
    cfg.robustness.retry.validate()?;
    OBS_CLUSTER_RUNS.inc();
    let injector = Arc::new(FaultInjector::new(cfg.robustness.faults.clone()));
    // the partitions' source clock must tick with this run's sweep count
    let mut heat = cfg.heat.clone();
    heat.sweeps_per_step = cfg.sweeps_per_step;
    let parts = Heat3DPartition::split(&heat, cfg.nodes);
    let intervals = if cfg.select_k > 1 {
        fixed_intervals(cfg.steps, cfg.select_k - 1)
    } else {
        vec![]
    };

    // Storage: one shared remote link, or one disk per node.
    let remote = RemoteLink::new(cfg.remote_bw);
    let locals: Vec<LocalDisk> = (0..cfg.nodes)
        .map(|_| LocalDisk::new(cfg.machine.disk_bw))
        .collect();

    // Halo channels: one pair per adjacent node boundary.
    let mut up_tx: Vec<Option<Sender<Vec<f64>>>> = vec![None; cfg.nodes];
    let mut up_rx: Vec<Option<Receiver<Vec<f64>>>> = vec![None; cfg.nodes];
    let mut down_tx: Vec<Option<Sender<Vec<f64>>>> = vec![None; cfg.nodes];
    let mut down_rx: Vec<Option<Receiver<Vec<f64>>>> = vec![None; cfg.nodes];
    for i in 0..cfg.nodes.saturating_sub(1) {
        let (tx, rx) = bounded(1); // i -> i+1 (upward boundary plane)
        up_tx[i] = Some(tx);
        up_rx[i + 1] = Some(rx);
        let (tx, rx) = bounded(1); // i+1 -> i (downward boundary plane)
        down_tx[i + 1] = Some(tx);
        down_rx[i] = Some(rx);
    }

    // Selection coordination channels, bounded to the cluster size so a
    // node-failure storm can never grow an unbounded backlog: each node
    // sends exactly one vote per selection interval and then blocks on
    // its decision receive, so at most `nodes` votes are ever in flight,
    // and each decision channel holds at most the single broadcast winner.
    let (vote_tx, vote_rx) = bounded::<NodeVote>(cfg.nodes.max(1));
    let mut decision_tx: Vec<Sender<usize>> = Vec::new();
    let mut decision_rx: Vec<Option<Receiver<usize>>> = Vec::new();
    for _ in 0..cfg.nodes {
        let (tx, rx) = bounded::<usize>(1);
        decision_tx.push(tx);
        decision_rx.push(Some(rx));
    }

    struct NodeResult {
        phases: PhaseTimes,
        total: f64,
        bytes: u64,
        selected: Vec<usize>,
    }

    let (results, coordinator_err) =
        std::thread::scope(|scope| -> (Vec<Result<NodeResult>>, Option<IbisError>) {
            let mut handles = Vec::new();
            for (node_id, mut part) in parts.into_iter().enumerate() {
                let utx = up_tx[node_id].take();
                let urx = up_rx[node_id].take();
                let dtx = down_tx[node_id].take();
                let drx = down_rx[node_id].take();
                let Some(my_decisions) = decision_rx[node_id].take() else {
                    unreachable!("one decision channel per node");
                };
                let vote_tx = vote_tx.clone();
                let intervals = intervals.clone();
                let remote = &remote;
                let local_disk = &locals[node_id];
                let cfg = &cfg;
                let injector = Arc::clone(&injector);
                handles.push(scope.spawn(move || -> Result<NodeResult> {
                    let body = move || -> Result<NodeResult> {
                        let pool = cfg.machine.pool(cfg.cores_per_node);
                        let threads = pool.current_num_threads();
                        let mut sim_t = Duration::ZERO;
                        let mut reduce_t = Duration::ZERO;
                        let mut select_t = Duration::ZERO;
                        let mut output_modeled = 0.0f64;
                        let mut bytes = 0u64;
                        let mut prev: Option<VarSummary> = None;
                        let mut buffer: Vec<(usize, VarSummary)> = Vec::new();
                        let mut selected = Vec::new();
                        let mut cur_interval = 0usize;

                        let storage: &dyn Storage = match cfg.io {
                            ClusterIo::Remote => remote,
                            ClusterIo::Local => local_disk,
                        };
                        let ship = |bytes_out: u64,
                                    sim_t: Duration,
                                    reduce_t: Duration,
                                    select_t: Duration,
                                    output_modeled: &mut f64|
                         -> Result<()> {
                            let output = *output_modeled;
                            let phases =
                                modeled_phases(sim_t, reduce_t, select_t, output, threads, cfg);
                            let now = phases.sum();
                            let receipt = write_with_retry(
                                storage,
                                &injector,
                                &cfg.robustness.retry,
                                now,
                                bytes_out,
                            )?;
                            *output_modeled += receipt.seconds;
                            Ok(())
                        };

                        for step in 0..cfg.steps {
                            OBS_CLUSTER_NODE_STEPS.inc();
                            let _step_span = OBS_CLUSTER_STEP_NS.span();
                            injector.maybe_panic(FaultSite::Node(node_id), step);
                            // --- simulate (halo exchange + sweeps) ---
                            // Boundary copies are timed on the node thread;
                            // the sweep inside its pool. Waits on neighbours
                            // are excluded (on an oversubscribed host they
                            // measure the scheduler, not the algorithm). A
                            // failed send/recv means the neighbour died —
                            // abort this node instead of hanging.
                            for _ in 0..cfg.sweeps_per_step {
                                let c = PhaseClock::start();
                                if let Some(tx) = &utx {
                                    tx.send(part.boundary_high())
                                        .map_err(|_| disconnected("upper halo neighbour"))?;
                                }
                                if let Some(tx) = &dtx {
                                    tx.send(part.boundary_low())
                                        .map_err(|_| disconnected("lower halo neighbour"))?;
                                }
                                sim_t += c.elapsed();
                                if let Some(rx) = &urx {
                                    let plane = rx
                                        .recv()
                                        .map_err(|_| disconnected("lower halo neighbour"))?;
                                    let c = PhaseClock::start();
                                    part.set_halo_low(&plane);
                                    sim_t += c.elapsed();
                                }
                                if let Some(rx) = &drx {
                                    let plane = rx
                                        .recv()
                                        .map_err(|_| disconnected("upper halo neighbour"))?;
                                    let c = PhaseClock::start();
                                    part.set_halo_high(&plane);
                                    sim_t += c.elapsed();
                                }
                                let ((), d) = timed_in_pool(&pool, || part.sweep());
                                sim_t += d;
                            }
                            let c = PhaseClock::start();
                            let data = part.owned_data();
                            sim_t += c.elapsed();

                            // --- reduce ---
                            let (summary, d) = timed_in_pool(&pool, || match cfg.reduction {
                                ClusterReduction::Bitmaps => VarSummary::Bitmap(
                                    ibis_core::build_index_parallel(&data, cfg.binner.clone()),
                                ),
                                ClusterReduction::FullData => {
                                    VarSummary::full(data, cfg.binner.clone())
                                }
                            });
                            reduce_t += d;

                            // --- select (global, coordinated) ---
                            if step == 0 {
                                selected.push(0);
                                bytes += summary.size_bytes() as u64;
                                ship(
                                    summary.size_bytes() as u64,
                                    sim_t,
                                    reduce_t,
                                    select_t,
                                    &mut output_modeled,
                                )?;
                                prev = Some(summary);
                                continue;
                            }
                            buffer.push((step, summary));
                            let done = intervals
                                .get(cur_interval)
                                .is_some_and(|iv| step + 1 == iv.end);
                            if !done {
                                continue;
                            }
                            cur_interval += 1;
                            let clock = PhaseClock::start();
                            let Some(p) = prev.as_ref() else {
                                unreachable!("seeded at step 0");
                            };
                            let candidates = buffer
                                .iter()
                                .map(|(idx, s)| (*idx, s.partial(p, Metric::ConditionalEntropy)))
                                .collect();
                            select_t += clock.elapsed();
                            OBS_CLUSTER_VOTES.inc();
                            vote_tx
                                .send(candidates)
                                .map_err(|_| disconnected("coordinator (vote)"))?;
                            let winner = my_decisions
                                .recv()
                                .map_err(|_| disconnected("coordinator (decision)"))?;
                            selected.push(winner);
                            let mut kept = None;
                            for (idx, s) in buffer.drain(..) {
                                if idx == winner {
                                    kept = Some(s);
                                }
                            }
                            let Some(kept) = kept else {
                                return Err(IbisError::Coordination(format!(
                                    "coordinator picked step {winner} outside the interval"
                                )));
                            };
                            bytes += kept.size_bytes() as u64;
                            ship(
                                kept.size_bytes() as u64,
                                sim_t,
                                reduce_t,
                                select_t,
                                &mut output_modeled,
                            )?;
                            prev = Some(kept);
                        }

                        let phases =
                            modeled_phases(sim_t, reduce_t, select_t, output_modeled, threads, cfg);
                        Ok(NodeResult {
                            total: phases.sum(),
                            phases,
                            bytes,
                            selected,
                        })
                    };
                    // Containment boundary: a panic anywhere in this node
                    // (injected or real) becomes a structured error, and
                    // dropping the node's channel endpoints on exit is what
                    // unblocks its neighbours.
                    match catch_unwind(AssertUnwindSafe(body)) {
                        Ok(result) => result,
                        Err(payload) => Err(IbisError::WorkerPanic {
                            role: WorkerRole::Node,
                            step: None,
                            message: panic_message(payload.as_ref()),
                        }),
                    }
                }));
            }
            drop(vote_tx);

            // Coordinator: merge each interval's partials across nodes,
            // finish conditional entropy on the *global* counts, broadcast
            // the winner. Each vote wait is bounded: if a node can no longer
            // vote (died mid-interval while its peers already voted and
            // still hold their vote senders), the timeout fires, the
            // decision channels drop, and every blocked node unwinds with a
            // Disconnected error instead of deadlocking.
            let mut coordinator_err = None;
            let mut pending: Vec<NodeVote> = Vec::new();
            'intervals: for _ in 0..intervals.len() {
                pending.clear();
                for _ in 0..cfg.nodes {
                    match vote_rx.recv_timeout(cfg.coordinator_timeout) {
                        Ok(vote) => pending.push(vote),
                        Err(e) => {
                            coordinator_err =
                                Some(IbisError::Coordination(format!("collecting votes: {e}")));
                            break 'intervals;
                        }
                    }
                }
                let mut best: Option<(usize, f64)> = None;
                for (c, (step_idx, first)) in pending[0].iter().enumerate() {
                    let mut global = first.clone();
                    for vote in &pending[1..] {
                        debug_assert_eq!(vote[c].0, *step_idx);
                        if let Err(e) = global.merge(&vote[c].1) {
                            coordinator_err = Some(IbisError::Coordination(format!(
                                "merging votes for step {step_idx}: {e}"
                            )));
                            break 'intervals;
                        }
                    }
                    let score =
                        Metric::ConditionalEntropy.finish(&cfg.binner, &cfg.binner, &global);
                    if best.is_none_or(|(_, b)| score > b) {
                        best = Some((*step_idx, score));
                    }
                }
                let Some((winner, _)) = best else {
                    coordinator_err = Some(IbisError::Coordination("empty interval vote".into()));
                    break 'intervals;
                };
                for tx in &decision_tx {
                    // a dead node's decision endpoint is gone; its failure
                    // is collected at join time
                    let _ = tx.send(winner);
                }
            }
            // Dropping the decision senders releases any node still blocked
            // waiting for a verdict.
            drop(decision_tx);

            let results = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => Err(IbisError::WorkerPanic {
                        role: WorkerRole::Node,
                        step: None,
                        message: panic_message(payload.as_ref()),
                    }),
                })
                .collect();
            (results, coordinator_err)
        });

    // Fold per-node results. Root-cause failures (panics, storage
    // exhaustion) are reported first, then the coordinator's own error (a
    // vote timeout, or votes counted under different binnings), whose
    // cascade is every node released from its decision wait; pure cascade
    // errors (Disconnected / Coordination) are kept only when no root cause
    // exists, so the report is deterministic for a deterministic fault plan.
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut cascades: Vec<(usize, String)> = Vec::new();
    let mut oks: Vec<NodeResult> = Vec::new();
    for (node_id, r) in results.into_iter().enumerate() {
        match r {
            Ok(res) => oks.push(res),
            Err(e @ (IbisError::Disconnected { .. } | IbisError::Coordination(_))) => {
                OBS_CLUSTER_CASCADES.inc();
                cascades.push((node_id, e.to_string()))
            }
            Err(e) => {
                OBS_CLUSTER_NODE_FAILURES.inc();
                failures.push((node_id, e.to_string()))
            }
        }
    }
    if !failures.is_empty() {
        return Err(IbisError::NodeFailure { failures });
    }
    if let Some(e) = coordinator_err {
        return Err(e);
    }
    if !cascades.is_empty() {
        return Err(IbisError::NodeFailure { failures: cascades });
    }

    // Parallel nodes: the cluster finishes when the slowest node does.
    let mut phases = PhaseTimes::default();
    let mut total = 0.0f64;
    let mut bytes = 0u64;
    for r in &oks {
        phases.simulate = phases.simulate.max(r.phases.simulate);
        phases.reduce = phases.reduce.max(r.phases.reduce);
        phases.select = phases.select.max(r.phases.select);
        phases.output = phases.output.max(r.phases.output);
        total = total.max(r.total);
        bytes += r.bytes;
    }
    let selected = oks[0].selected.clone();
    debug_assert!(
        oks.iter().all(|r| r.selected == selected),
        "nodes must agree"
    );
    Ok(ClusterReport {
        phases,
        total_modeled: total,
        selected,
        bytes_written: bytes,
        nodes: cfg.nodes,
        fault_events: injector.events(),
    })
}

/// A node's modeled phase times from its measured clocks. CPU-time clocks
/// (one-thread pools, node-thread work such as selection) need no
/// correction; wall-measured wide pools do. Their sum so far is the
/// node's arrival time for contended remote writes.
fn modeled_phases(
    sim_t: Duration,
    reduce_t: Duration,
    select_t: Duration,
    output: f64,
    threads: usize,
    cfg: &ClusterConfig,
) -> PhaseTimes {
    let active = cfg.nodes * threads;
    let wall = |t: Duration| {
        if threads == 1 {
            t
        } else {
            decontend(t, active)
        }
    };
    let model = |t: Duration, scaling: &ScalingModel| {
        modeled_seconds(
            t,
            threads,
            cfg.cores_per_node,
            scaling,
            cfg.machine.core_speed,
        )
    };
    PhaseTimes {
        simulate: model(wall(sim_t), &cfg.sim_scaling),
        reduce: model(wall(reduce_t), &ScalingModel::bitmap_gen()),
        select: model(select_t, &ScalingModel::selection()),
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ibis_analysis::{select_greedy, Partitioning, StepSummary};

    fn base(nodes: usize, reduction: ClusterReduction, io: ClusterIo) -> ClusterConfig {
        ClusterConfig {
            nodes,
            cores_per_node: 4,
            machine: MachineModel::oakley_node(),
            heat: Heat3DConfig {
                nx: 16,
                ny: 16,
                nz: 24,
                ..Heat3DConfig::tiny()
            },
            sweeps_per_step: 1,
            steps: 9,
            select_k: 3,
            binner: Binner::precision(-1.0, 101.0, 0),
            reduction,
            io,
            remote_bw: MachineModel::remote_link_bw(),
            sim_scaling: ScalingModel::heat3d(),
            robustness: RobustnessConfig::default(),
            coordinator_timeout: Duration::from_secs(30),
        }
    }

    #[test]
    fn single_node_runs() {
        let r = run_cluster(&base(1, ClusterReduction::Bitmaps, ClusterIo::Local)).unwrap();
        assert_eq!(r.nodes, 1);
        assert_eq!(r.selected.len(), 3);
        assert_eq!(r.selected[0], 0);
        assert!(r.bytes_written > 0);
        assert!(r.fault_events.is_empty());
    }

    #[test]
    fn nodes_agree_and_match_single_node_selection() {
        // additive partials ⇒ the global selection at every node count and
        // reduction is `select_greedy`'s over the whole mesh
        let cfg = base(1, ClusterReduction::Bitmaps, ClusterIo::Local);
        let mut heat = cfg.heat.clone();
        heat.sweeps_per_step = cfg.sweeps_per_step;
        let mut whole = ibis_datagen::Heat3D::new(heat);
        let summaries: Vec<StepSummary> = (0..cfg.steps)
            .map(|step| {
                let out = ibis_datagen::Simulation::step(&mut whole);
                let data = &out.fields[0].data;
                let vars = vec![VarSummary::bitmap(data, cfg.binner.clone())];
                StepSummary { step, vars }
            })
            .collect();
        let want = select_greedy(
            &summaries,
            cfg.select_k,
            Metric::ConditionalEntropy,
            Partitioning::FixedLength,
        );
        for nodes in 1..=3 {
            for reduction in [ClusterReduction::Bitmaps, ClusterReduction::FullData] {
                let r = run_cluster(&base(nodes, reduction, ClusterIo::Local)).unwrap();
                assert_eq!(r.selected, want.selected, "{nodes} node(s), {reduction:?}");
            }
        }
    }

    #[test]
    fn bitmap_and_full_reductions_select_identically() {
        let rb = run_cluster(&base(2, ClusterReduction::Bitmaps, ClusterIo::Local)).unwrap();
        let rf = run_cluster(&base(2, ClusterReduction::FullData, ClusterIo::Local)).unwrap();
        assert_eq!(rb.selected, rf.selected, "no accuracy loss in the cluster");
        assert!(
            rb.bytes_written < rf.bytes_written,
            "bitmaps ship fewer bytes"
        );
    }

    #[test]
    fn remote_io_is_contended() {
        // `phases.output` of two remote runs cannot be compared: a write's
        // arrival time is its node's *measured* compute clock, and writes
        // reach the link in host order, so a node whose clock trails the
        // link's `busy_until` is charged the skew between node clocks as
        // queueing — milliseconds on a loaded host, against transfers of
        // microseconds. What each run ships is deterministic, so replay it
        // on the link at pinned arrival times instead.
        let rb = run_cluster(&base(3, ClusterReduction::Bitmaps, ClusterIo::Remote)).unwrap();
        let rf = run_cluster(&base(3, ClusterReduction::FullData, ClusterIo::Remote)).unwrap();
        assert!(rb.bytes_written < rf.bytes_written);
        // three nodes each arrive with a third of the run's bytes at t = 1
        let link_seconds = |total: u64| -> Vec<f64> {
            let link = RemoteLink::new(MachineModel::remote_link_bw());
            (0..3)
                .map(|_| link.write(1.0, total / 3).unwrap())
                .collect()
        };
        let (bitmaps, full) = (
            link_seconds(rb.bytes_written),
            link_seconds(rf.bytes_written),
        );
        for waits in [&bitmaps, &full] {
            // contended: the k-th simultaneous writer waits out k transfers
            assert!((waits[1] - 2.0 * waits[0]).abs() < 1e-12, "{waits:?}");
            assert!((waits[2] - 3.0 * waits[0]).abs() < 1e-12, "{waits:?}");
        }
        // full data over the shared link costs more link time than bitmaps
        assert!(full[2] > bitmaps[2], "full {full:?} vs bitmaps {bitmaps:?}");
    }

    #[test]
    fn more_nodes_less_sim_time_per_node() {
        // `phases.simulate` of two runs cannot be compared: each is a
        // *measured* clock of a few hundred microseconds, and on a loaded
        // host four node threads can each take longer over a quarter of
        // the mesh than one took over all of it. What a node sweeps is
        // deterministic, and so is the model the clock goes through, so
        // check the split and replay the phase on a pinned clock instead.
        let cfg = base(4, ClusterReduction::Bitmaps, ClusterIo::Local);
        let r4 = run_cluster(&cfg).unwrap();
        assert_eq!(r4.nodes, 4);
        let cells = |nodes: usize| -> Vec<usize> {
            let parts = Heat3DPartition::split(&cfg.heat, nodes);
            parts.iter().map(Heat3DPartition::num_owned).collect()
        };
        assert_eq!(cells(1), [16 * 16 * 24]);
        assert_eq!(cells(4), [16 * 16 * 6; 4]);
        // one microsecond a cell a step on every node's clock
        let simulate = |nodes: usize| {
            let swept = Duration::from_micros((cells(nodes)[0] * cfg.steps) as u64);
            let speed = cfg.machine.core_speed;
            modeled_seconds(swept, 1, cfg.cores_per_node, &cfg.sim_scaling, speed)
        };
        assert!(simulate(4) > 0.0);
        assert!((simulate(1) - 4.0 * simulate(4)).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_config() {
        let mut cfg = base(1, ClusterReduction::Bitmaps, ClusterIo::Local);
        cfg.select_k = 50;
        assert!(matches!(run_cluster(&cfg), Err(IbisError::Config(_))));
    }

    #[test]
    fn node_panic_is_contained_and_reported() {
        let mut cfg = base(3, ClusterReduction::Bitmaps, ClusterIo::Local);
        cfg.coordinator_timeout = Duration::from_secs(5);
        cfg.robustness.faults = FaultPlan::none().with_node_panic_at(1, 4);
        let err = run_cluster(&cfg).unwrap_err();
        let IbisError::NodeFailure { failures } = err else {
            panic!("expected NodeFailure, got {err}");
        };
        assert_eq!(failures.len(), 1, "cascades folded away: {failures:?}");
        assert_eq!(failures[0].0, 1);
        assert!(
            failures[0]
                .1
                .contains("injected fault: node 1 panic at step 4"),
            "{}",
            failures[0].1
        );
    }

    #[test]
    fn node_panic_failure_report_is_deterministic() {
        let run = || {
            let mut cfg = base(3, ClusterReduction::Bitmaps, ClusterIo::Local);
            cfg.coordinator_timeout = Duration::from_secs(5);
            cfg.robustness.faults = FaultPlan::none().with_node_panic_at(0, 2);
            run_cluster(&cfg).unwrap_err()
        };
        assert_eq!(run(), run());
    }
}
