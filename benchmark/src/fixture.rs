//! Workload definitions, set-up (data, query store, oracle, gates) and
//! the four phases every round replays: ingest → analysis → query →
//! cold open.
//!
//! Each phase goes through the program's public functions only and hands
//! the [`Tracer`] a span per call, so the traced pass and the untraced
//! rounds run the same code.

use crate::catalog::{Catalog, Skew};
use crate::data::{Dataset, Sizes, Source};
use crate::oracle::{
    check_mining, check_replies, check_selection, full_data_mining, full_data_selection,
    off_by_one, Oracle, Sabotage,
};
use crate::trace::Tracer;
use ibis_analysis::{
    mine_index, select_greedy, Metric, MinedSubset, MiningConfig, Partitioning, StepSummary,
    VarSummary,
};
use ibis_core::{BitmapIndex, RowOrder, WahBuilder, WahVec};
use ibis_insitu::machine::ScalingModel;
use ibis_insitu::{
    run_durable, CachedStore, CoreAllocation, EngineBackend, InsituReport, MachineModel,
    PipelineConfig, QueryEngine, QueryServer, Reduction, RobustnessConfig, ServeConfig,
    ShardedEngine, ShardedStore, ShardedWriter, SocketServer, Store, StoreWriter,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `Result` with a printable reason; a gate failure and an I/O error both
/// end the run the same way.
pub type Res<T> = Result<T, String>;

pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// How a workload lays its store out and reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `run_durable` into a flat store; in-process JSON batches; the
    /// cache holds the whole working set.
    FlatBatch,
    /// `ShardedWriter` with [`SHARDS`] shards; `ShardedEngine` under a
    /// byte budget of a quarter of the decoded working set.
    ShardEvict,
    /// Permuted build under `RowOrder::GrayBin` plus lossy companions;
    /// `QueryServer` + `SocketServer` over loopback TCP.
    ReorderLossyTcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Where the data comes from.
    pub source: Source,
    /// Store layout and client path.
    pub layout: Layout,
}

/// The four workloads (`BENCHMARK.json` carries the reasons).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "heat3d_flat_batch",
        source: Source::Heat3d,
        layout: Layout::FlatBatch,
    },
    Spec {
        name: "ocean_flat_batch",
        source: Source::Ocean,
        layout: Layout::FlatBatch,
    },
    Spec {
        name: "ocean_shard_evict",
        source: Source::Ocean,
        layout: Layout::ShardEvict,
    },
    Spec {
        name: "heat3d_reorder_lossy_tcp",
        source: Source::Heat3d,
        layout: Layout::ReorderLossyTcp,
    },
];

/// Shards of the sharded workload.
pub const SHARDS: usize = 4;
/// FPR of the lossy companions.
pub const LOSSY_FPR: f64 = 1e-2;
/// Blobs the cold-open batch touches.
pub const COLD_BLOBS: usize = 8;
/// Cache budget that holds any working set of this benchmark.
pub(crate) const AMPLE_CACHE: u64 = 1 << 34;

/// Closed-loop TCP connections (and server workers): never more busy
/// threads than CPUs, since a client blocks while a worker runs.
pub fn tcp_clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The selection metric: the paper's conditional entropy on Heat3D; the
/// XOR-based spatial EMD on the two-variable ocean, where it keeps the
/// scoring kernel-bound without dwarfing the rest of the ingest.
pub fn metric_of(source: Source) -> Metric {
    match source {
        Source::Heat3d => Metric::ConditionalEntropy,
        Source::Ocean => Metric::EmdSpatial,
    }
}

/// Durations of a phase's fixed-work units, in execution order. Every
/// round produces the same units, so the harness can take each unit's
/// fastest repeat — the smaller the unit, the likelier one repeat of it
/// ran undisturbed.
#[derive(Debug, Default, Clone)]
pub struct Units(pub Vec<f64>);

impl Units {
    /// Runs `f` as one unit.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0.push(t.elapsed().as_secs_f64());
        out
    }

    /// Runs `f` as one unit inside a span named `name`.
    pub fn span<R>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time(|| tr.span(name, |_| f()))
    }

    /// The units' total, seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// What one ingest produced.
#[derive(Debug)]
pub struct Ingested {
    /// One unit per public call of the write path (each build, each put,
    /// the finish) — or, where the write path is the single `run_durable`
    /// call, that call. The replay's own `step()` time is never part of
    /// a unit.
    pub units: Units,
    /// `run_durable`'s report (flat layout only).
    pub report: Option<InsituReport>,
    /// Bits the lossy pass set (reorder-lossy layout only).
    pub lossy_bits_dropped: u64,
}

/// One round's query or cold-open phase.
#[derive(Debug, Default)]
pub struct QueryRound {
    /// Catalog indices of the ops this round ran, ascending (query phase).
    pub ops: Vec<usize>,
    /// One unit per op run (cold open: the engine open, then one per op),
    /// in catalog order whichever client sent it.
    pub units: Units,
    /// Replies that differ from the oracle's.
    pub failed: usize,
}

/// How the query phase reaches the program.
pub enum Client {
    /// In-process: one `run_batch_json` call per document.
    Batch(EngineBackend),
    /// Loopback TCP: one frame per document over closed-loop connections.
    Tcp {
        /// The overload shell the socket front end feeds.
        server: Arc<QueryServer>,
        /// The listener; dropped (and joined) with the fixture.
        socket: SocketServer,
        /// One connection per client thread.
        conns: Vec<BufReader<TcpStream>>,
    },
}

impl Client {
    /// The engine behind the client path.
    pub fn engine(&self) -> &EngineBackend {
        match self {
            Client::Batch(e) => e,
            Client::Tcp { server, .. } => server.engine(),
        }
    }
}

/// Sends one frame and reads the reply line.
fn tcp_ask(conn: &mut BufReader<TcpStream>, doc: &str, line: &mut String) -> Res<()> {
    let mut frame = Vec::with_capacity(doc.len() + 1);
    frame.extend_from_slice(doc.as_bytes());
    frame.push(b'\n');
    conn.get_mut().write_all(&frame).map_err(err)?;
    line.clear();
    conn.read_line(line).map_err(err)?;
    if line.ends_with('\n') {
        line.pop();
    }
    Ok(())
}

/// A workload's inputs and stores: everything the phases read.
pub struct Plan {
    /// The workload.
    pub spec: Spec,
    /// Problem sizes.
    pub sizes: Sizes,
    /// The pre-generated steps.
    pub data: Dataset,
    /// One round's query ops.
    pub catalog: Catalog,
    /// The oracle's reply to each catalog op.
    pub expected: Vec<String>,
    /// The cold-open batch and the oracle's replies to it.
    pub cold: Catalog,
    /// Expected cold-open replies.
    pub cold_expected: Vec<String>,
    /// The finished store queries and analysis read.
    pub store_dir: PathBuf,
    /// Where each round's ingest writes.
    pub scratch: PathBuf,
    /// Cache budget of the sharded engine, and the decoded working set it
    /// is a quarter of (0 for the other layouts).
    pub cache_budget: u64,
    /// Decoded bytes of every blob the catalog touches.
    pub working_set: u64,
    /// Steps `select_greedy` keeps on full-data summaries.
    pub full_selection: Vec<usize>,
    /// Subsets `mine_full` finds (ocean only).
    pub full_mining: Vec<MinedSubset>,
    /// Step the miner runs on.
    pub mining_step: usize,
    /// Miner thresholds.
    pub mining_cfg: MiningConfig,
}

/// A set-up workload: its [`Plan`] plus the open query path.
pub struct Fixture {
    /// Inputs and stores.
    pub plan: Plan,
    /// The query path.
    pub client: Client,
}

impl Fixture {
    /// Builds the workload's inputs and stores, and passes every identity
    /// gate, or says which one failed.
    pub fn setup(
        spec: Spec,
        sizes: &Sizes,
        seed: u64,
        scratch: &Path,
        sabotage: Sabotage,
    ) -> Res<Fixture> {
        // the reordered workload sorts every step's rows: a smaller mesh
        let sizes = &match spec.layout {
            Layout::ReorderLossyTcp => Sizes {
                heat: sizes.heat_reorder,
                ..sizes.clone()
            },
            _ => sizes.clone(),
        };
        let data = Dataset::generate(spec.source, sizes);
        let oracle = Oracle::new(&data);
        let skew = match spec.layout {
            Layout::ShardEvict => Skew::ZipfSharded { shards: SHARDS },
            _ => Skew::Uniform,
        };
        let catalog = Catalog::generate(&data, seed, sizes.subsets, sizes.correlations, skew);
        let cold = Catalog::cold_batch(&data, seed, COLD_BLOBS);
        let expect = |c: &Catalog| -> Res<Vec<String>> {
            c.requests
                .iter()
                .map(|r| oracle.expected_reply(r))
                .collect()
        };
        let (expected, cold_expected) = (expect(&catalog)?, expect(&cold)?);
        let full_selection = full_data_selection(&data, sizes.select_k, metric_of(spec.source));
        let mining_step = data.steps.len() / 2;
        let mining_cfg = MiningConfig {
            unit_size: sizes.mining_unit,
            ..MiningConfig::default()
        };
        let full_mining = match spec.source {
            Source::Ocean => full_data_mining(&data, mining_step, &mining_cfg),
            Source::Heat3d => Vec::new(),
        };
        std::fs::create_dir_all(scratch).map_err(err)?;
        let mut plan = Plan {
            spec,
            sizes: sizes.clone(),
            data,
            catalog,
            expected,
            cold,
            cold_expected,
            store_dir: scratch.join("store"),
            scratch: scratch.to_path_buf(),
            cache_budget: 0,
            working_set: 0,
            full_selection,
            full_mining,
            mining_step,
            mining_cfg,
        };

        // The query store holds all N steps (K = N), written by the same
        // path the ingest phase times.
        remove_dir(&plan.store_dir)?;
        let n = plan.data.steps.len();
        let ingested = plan.ingest_into(&plan.store_dir, n, &mut Tracer::off())?;
        if let Some(report) = &ingested.report {
            let all: Vec<usize> = (0..n).collect();
            check_selection(
                "query store (K = N)",
                &report.selected,
                &all,
                Sabotage::None,
            )?;
        }
        plan.gate_fsck()?;

        // Gate: the timed ingest (K of N) selects what full data selects.
        if spec.layout == Layout::FlatBatch {
            let dir = plan.scratch.join("ingest-gate");
            remove_dir(&dir)?;
            let got = plan.ingest_into(&dir, plan.sizes.select_k, &mut Tracer::off())?;
            let selected = got.report.map(|r| r.selected).unwrap_or_default();
            check_selection(
                "in-situ selection",
                &selected,
                &plan.full_selection,
                sabotage,
            )?;
            remove_dir(&dir)?;
        }

        // Gate: every catalog answer equals the oracle's, through the
        // workload's own client path.
        plan.measure_working_set()?;
        let client = plan.open_client()?;
        let mut fx = Fixture { plan, client };
        let mut replies = fx.ask_all()?;
        if sabotage == Sabotage::Count {
            if let Some(first) = replies.first_mut() {
                *first = off_by_one(first);
            }
        }
        let plan = &fx.plan;
        check_replies("catalog", &plan.catalog.requests, &plan.expected, &replies)?;

        // Gate: lossy and sharded engines answer byte-identically to the
        // flat exact engine over the same data.
        if spec.layout != Layout::FlatBatch {
            let exact_replies = plan.flat_exact_replies()?;
            check_replies(
                "flat exact engine",
                &plan.catalog.requests,
                &exact_replies,
                &replies,
            )?;
        }

        // Gates: post-analysis on the stored bitmaps equals full data.
        let analysis = plan.analysis(&mut Tracer::off())?;
        check_selection(
            "post-analysis selection",
            &analysis.selected,
            &plan.full_selection,
            Sabotage::None,
        )?;
        check_mining(&analysis.mined, &plan.full_mining)?;
        let cold = plan.cold_open(&mut Tracer::off())?;
        if cold.failed > 0 {
            return Err(format!("cold-open batch: {} wrong replies", cold.failed));
        }
        Ok(fx)
    }

    /// Sends the catalog one document at a time over the first client
    /// connection (the gates; the timed path is [`Fixture::query`]).
    pub fn ask_all(&mut self) -> Res<Vec<String>> {
        let docs = &self.plan.catalog.docs;
        match &mut self.client {
            Client::Batch(engine) => docs
                .iter()
                .map(|d| engine.run_batch_json(d).map_err(err))
                .collect(),
            Client::Tcp { conns, .. } => {
                let mut line = String::new();
                docs.iter()
                    .map(|d| {
                        tcp_ask(&mut conns[0], d, &mut line)?;
                        Ok(line.clone())
                    })
                    .collect()
            }
        }
    }

    /// Phase 3 — one slice of the catalog (ops `slice`, `slice + of`, …)
    /// through the client path, closed loop, one query per document; one
    /// unit per op. TCP clients take alternate ops of the slice.
    pub fn query(&mut self, tr: &mut Tracer, slice: usize, of: usize) -> Res<QueryRound> {
        let (docs, expected) = (&self.plan.catalog.docs, &self.plan.expected);
        let client = &mut self.client;
        tr.span("phase.query", |_| {
            let ops: Vec<usize> = (slice..docs.len()).step_by(of).collect();
            let mut round = QueryRound::default();
            match client {
                Client::Batch(engine) => {
                    let mut replies = Vec::with_capacity(ops.len());
                    for &i in &ops {
                        let reply = round.units.time(|| engine.run_batch_json(&docs[i]));
                        replies.push(reply.map_err(err)?);
                    }
                    round.failed = ops
                        .iter()
                        .zip(&replies)
                        .filter(|(&i, r)| **r != expected[i])
                        .count();
                }
                Client::Tcp { conns, .. } => {
                    let n = conns.len();
                    let ops = &ops;
                    let per_client: Vec<Res<Vec<(usize, f64, bool)>>> = std::thread::scope(|s| {
                        let handles: Vec<_> = conns
                            .iter_mut()
                            .enumerate()
                            .map(|(c, conn)| {
                                s.spawn(move || {
                                    let mut line = String::new();
                                    let mut out = Vec::new();
                                    for at in (c..ops.len()).step_by(n) {
                                        let t = Instant::now();
                                        tcp_ask(conn, &docs[ops[at]], &mut line)?;
                                        out.push((
                                            at,
                                            t.elapsed().as_secs_f64(),
                                            line == expected[ops[at]],
                                        ));
                                    }
                                    Ok(out)
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                            .collect()
                    });
                    round.units.0 = vec![0.0; ops.len()];
                    for client in per_client {
                        for (at, lat, ok) in client? {
                            round.units.0[at] = lat;
                            round.failed += usize::from(!ok);
                        }
                    }
                }
            }
            round.ops = ops;
            Ok(round)
        })
    }

    /// Stops the server threads and removes everything set-up wrote.
    pub fn teardown(self) -> Res<()> {
        let scratch = self.plan.scratch.clone();
        if let Client::Tcp {
            server,
            socket,
            conns,
        } = self.client
        {
            drop(conns);
            socket.stop();
            server.shutdown();
        }
        remove_dir(&scratch)
    }
}

impl Plan {
    /// A flat, identity-order, exact engine over the same data, its store
    /// written into `dir` — the reference the sharded and lossy engines
    /// must reproduce byte for byte (and are compared with for speed).
    pub(crate) fn flat_exact_engine(&self, dir: &Path) -> Res<QueryEngine> {
        remove_dir(dir)?;
        let mut w = StoreWriter::create(dir).map_err(err)?;
        for s in self.data.steps.iter() {
            for (f, b) in s.fields.iter().zip(&self.data.binners) {
                w.put(s.step, f.name, &BitmapIndex::build(&f.data, b.clone()))
                    .map_err(err)?;
            }
        }
        w.finish().map_err(err)?;
        Ok(QueryEngine::new(CachedStore::new(
            Store::open(dir).map_err(err)?,
            AMPLE_CACHE,
        )))
    }

    /// The catalog's replies from [`Plan::flat_exact_engine`].
    fn flat_exact_replies(&self) -> Res<Vec<String>> {
        let dir = self.scratch.join("exact");
        let exact = self.flat_exact_engine(&dir)?;
        let replies = self
            .catalog
            .docs
            .iter()
            .map(|d| exact.run_batch_json(d).map_err(err))
            .collect::<Res<_>>();
        drop(exact);
        remove_dir(&dir)?;
        replies
    }

    pub(crate) fn pipeline_cfg(&self, select_k: usize) -> PipelineConfig {
        PipelineConfig {
            machine: MachineModel::xeon32(),
            cores: 1,
            allocation: CoreAllocation::Shared,
            reduction: Reduction::Bitmaps,
            steps: self.data.steps.len(),
            select_k,
            metric: metric_of(self.spec.source),
            binners: self.data.binners.clone(),
            per_step_precision: None,
            row_order: RowOrder::Identity,
            queue_capacity: 1,
            sim_scaling: ScalingModel::heat3d(),
            robustness: RobustnessConfig::default(),
        }
    }

    /// Writes a whole store into `dir` through the workload's write path.
    /// `select_k` matters to the flat layout only (the other two bypass
    /// the selecting pipeline and store every step).
    pub fn ingest_into(&self, dir: &Path, select_k: usize, tr: &mut Tracer) -> Res<Ingested> {
        use ibis_datagen::Simulation;
        let spent = Arc::new(AtomicU64::new(0));
        let mut out = Ingested {
            units: Units::default(),
            report: None,
            lossy_bits_dropped: 0,
        };
        let mut replay = self.data.replay(Arc::clone(&spent));
        let nsteps = self.data.steps.len();
        match self.spec.layout {
            Layout::FlatBatch => {
                let cfg = self.pipeline_cfg(select_k);
                let t = Instant::now();
                out.report = Some(
                    tr.span("insitu.pipeline.run_durable", |_| {
                        run_durable(replay, &cfg, dir)
                    })
                    .map_err(err)?,
                );
                let replay_s = spent.load(Ordering::Relaxed) as f64 * 1e-9;
                out.units.0.push(t.elapsed().as_secs_f64() - replay_s);
            }
            Layout::ShardEvict => {
                let mut w = ShardedWriter::create(dir, SHARDS).map_err(err)?;
                for _ in 0..nsteps {
                    let step = replay.step();
                    for (f, b) in step.fields.iter().zip(&self.data.binners) {
                        let idx = out.units.span(tr, "core.builder.build", || {
                            BitmapIndex::build(&f.data, b.clone())
                        });
                        out.units
                            .span(tr, "insitu.store.put", || w.put(step.step, f.name, &idx))
                            .map_err(err)?;
                    }
                }
                out.units
                    .span(tr, "insitu.store.finish", || w.finish())
                    .map_err(err)?;
            }
            Layout::ReorderLossyTcp => {
                let mut w = StoreWriter::create(dir).map_err(err)?;
                for _ in 0..nsteps {
                    let step = replay.step();
                    let perm = out.units.span(tr, "core.roworder.perm", || {
                        RowOrder::GrayBin.permutation(
                            &self.data.dims,
                            &self.data.binners[0],
                            &step.fields[0].data,
                        )
                    });
                    for (f, b) in step.fields.iter().zip(&self.data.binners) {
                        let idx = out.units.span(tr, "core.builder.build", || match &perm {
                            Some(p) => BitmapIndex::build_permuted(&f.data, b.clone(), p),
                            None => BitmapIndex::build(&f.data, b.clone()),
                        });
                        out.units
                            .span(tr, "insitu.store.put", || w.put(step.step, f.name, &idx))
                            .map_err(err)?;
                        let (lossy, stats) = out
                            .units
                            .span(tr, "core.lossy.pass", || idx.lossy(LOSSY_FPR));
                        out.lossy_bits_dropped += stats.bits_dropped;
                        out.units
                            .span(tr, "insitu.store.put", || {
                                w.put_lossy(step.step, f.name, &lossy, LOSSY_FPR, &stats)
                            })
                            .map_err(err)?;
                    }
                    if let Some(p) = &perm {
                        out.units
                            .span(tr, "insitu.store.put", || {
                                w.put_order(step.step, RowOrder::GrayBin, p)
                            })
                            .map_err(err)?;
                    }
                }
                out.units
                    .span(tr, "insitu.store.finish", || w.finish())
                    .map_err(err)?;
            }
        }
        tr.add(
            "bench.replay",
            Duration::from_nanos(spent.load(Ordering::Relaxed)),
        );
        Ok(out)
    }

    /// Phase 1 — in-situ ingest into a fresh directory. Returns what was
    /// ingested and the bytes the store takes on disk; the directory is
    /// removed again outside the timed units.
    pub fn ingest(&self, tr: &mut Tracer) -> Res<(Ingested, u64)> {
        let dir = self.scratch.join("ingest");
        remove_dir(&dir)?;
        let ingested = tr.span("phase.ingest", |tr| {
            self.ingest_into(&dir, self.sizes.select_k, tr)
        })?;
        let bytes = dir_bytes(&dir, &|_| true)?;
        remove_dir(&dir)?;
        Ok((ingested, bytes))
    }

    /// Raw bytes the ingested store stands in for: every simulated step.
    pub fn raw_bytes(&self) -> u64 {
        self.data.raw_bytes_per_step() * self.data.steps.len() as u64
    }

    /// Phase 2 — post-analysis on the stored bitmaps: open the store,
    /// load every variable's series, select K of N, and (ocean) mine the
    /// temperature × salinity subsets of one step. Units: the loads, the
    /// selection, the mining.
    pub fn analysis(&self, tr: &mut Tracer) -> Res<Analysis> {
        tr.span("phase.analysis", |tr| {
            let mut units = Units::default();
            let vars = self.data.variables();
            let series = units.time(|| match self.spec.layout {
                Layout::ShardEvict => self.load_series_sharded(&vars, tr),
                _ => self.load_series_flat(&vars, tr),
            })?;
            let n = series[0].len();
            let summaries: Vec<StepSummary> = (0..n)
                .map(|s| StepSummary {
                    step: s,
                    vars: series
                        .iter()
                        .map(|v| VarSummary::Bitmap(v[s].clone()))
                        .collect(),
                })
                .collect();
            let selected = units.time(|| {
                tr.span("analysis.selection.select_greedy", |_| {
                    select_greedy(
                        &summaries,
                        self.sizes.select_k,
                        metric_of(self.spec.source),
                        Partitioning::FixedLength,
                    )
                    .selected
                })
            });
            let mut out = Analysis {
                selected,
                ..Analysis::default()
            };
            if self.spec.source == Source::Ocean {
                let (a, b) = (&series[0][self.mining_step], &series[1][self.mining_step]);
                let mined = units.time(|| {
                    tr.span("analysis.mining.mine_index", |_| {
                        mine_index(a, b, &self.mining_cfg)
                    })
                });
                out.pairs_evaluated = mined.pairs_evaluated;
                out.pairs_pruned = mined.pairs_pruned;
                out.mined = mined.subsets;
            }
            out.units = units;
            Ok(out)
        })
    }

    /// `series[var][step]`, in original row order.
    fn load_series_flat(&self, vars: &[&str], tr: &mut Tracer) -> Res<Vec<Vec<BitmapIndex>>> {
        let store = tr
            .span("insitu.store.open", |_| Store::open(&self.store_dir))
            .map_err(err)?;
        vars.iter()
            .map(|v| {
                let series = tr
                    .span("insitu.store.load", |_| store.load_series(v))
                    .map_err(err)?;
                series
                    .into_iter()
                    .map(|(step, idx)| {
                        // Steps stored under a row permutation share no row
                        // space until restored (cross-step metrics need it).
                        let order = tr
                            .span("insitu.store.load", |_| store.load_order(step))
                            .map_err(err)?;
                        Ok(match order {
                            Some((_, perm)) => {
                                tr.span("core.roworder.unpermute", |_| idx.unpermute(&perm))
                            }
                            None => idx,
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The sharded store has no series reader: gather each step's shard
    /// slices back into one index (per-bin concatenation is exact — a
    /// shard holds `slice_rows` of the global index).
    fn load_series_sharded(&self, vars: &[&str], tr: &mut Tracer) -> Res<Vec<Vec<BitmapIndex>>> {
        let store = tr
            .span("insitu.store.open", |_| ShardedStore::open(&self.store_dir))
            .map_err(err)?;
        vars.iter()
            .map(|v| {
                let per_shard: Vec<Vec<(usize, BitmapIndex)>> = store
                    .shards()
                    .iter()
                    .map(|s| {
                        tr.span("insitu.store.load", |_| s.load_series(v))
                            .map_err(err)
                    })
                    .collect::<Res<_>>()?;
                Ok(tr.span("bench.shard_gather", |_| {
                    (0..per_shard[0].len())
                        .map(|s| {
                            let first = &per_shard[0][s].1;
                            let bins: Vec<WahVec> = (0..first.nbins())
                                .map(|b| {
                                    let mut v = WahBuilder::new();
                                    for shard in &per_shard {
                                        v.append_wah(shard[s].1.bin(b));
                                    }
                                    v.finish()
                                })
                                .collect();
                            BitmapIndex::from_bins(first.binner().clone(), bins)
                        })
                        .collect()
                }))
            })
            .collect()
    }

    /// Opens a fresh engine over the query store, as the cold-open phase
    /// and set-up both need it.
    pub fn open_engine(&self, tr: &mut Tracer) -> Res<EngineBackend> {
        Ok(match self.spec.layout {
            Layout::ShardEvict => EngineBackend::Sharded(
                tr.span("insitu.store.open", |_| {
                    ShardedEngine::open(&self.store_dir, self.cache_budget)
                })
                .map_err(err)?,
            ),
            layout => {
                let store = tr
                    .span("insitu.store.open", |_| Store::open(&self.store_dir))
                    .map_err(err)?;
                let engine = QueryEngine::new(CachedStore::new(store, AMPLE_CACHE));
                EngineBackend::Single(if layout == Layout::ReorderLossyTcp {
                    engine.with_lossy_fpr(LOSSY_FPR)
                } else {
                    engine
                })
            }
        })
    }

    fn open_client(&self) -> Res<Client> {
        let engine = self.open_engine(&mut Tracer::off())?;
        if self.spec.layout != Layout::ReorderLossyTcp {
            return Ok(Client::Batch(engine));
        }
        let clients = tcp_clients();
        let server = Arc::new(
            QueryServer::start(
                engine,
                ServeConfig {
                    workers: clients,
                    // connections idle while the other phases run
                    read_timeout: Duration::from_secs(600),
                    ..ServeConfig::default()
                },
            )
            .map_err(err)?,
        );
        let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").map_err(err)?;
        let conns = (0..clients)
            .map(|_| {
                let s = TcpStream::connect(socket.local_addr()).map_err(err)?;
                s.set_nodelay(true).map_err(err)?;
                Ok(BufReader::new(s))
            })
            .collect::<Res<_>>()?;
        Ok(Client::Tcp {
            server,
            socket,
            conns,
        })
    }

    /// The sharded workload's cache budget is a quarter of the decoded
    /// bytes its catalog touches, measured with an unbounded cache.
    fn measure_working_set(&mut self) -> Res<()> {
        if self.spec.layout != Layout::ShardEvict {
            return Ok(());
        }
        let engine = ShardedEngine::open(&self.store_dir, AMPLE_CACHE).map_err(err)?;
        for d in &self.catalog.docs {
            engine.run_batch_json(d).map_err(err)?;
        }
        self.working_set = engine.cache_stats().resident_bytes;
        self.cache_budget = self.working_set / 4;
        Ok(())
    }

    /// Phase 4 — cold open: a new engine and cache over the finished
    /// store, then a batch touching [`COLD_BLOBS`] distinct blobs. Units:
    /// the open, then each op.
    pub fn cold_open(&self, tr: &mut Tracer) -> Res<QueryRound> {
        tr.span("phase.cold_open", |tr| {
            let mut round = QueryRound::default();
            let engine = round.units.time(|| self.open_engine(tr))?;
            let replies: Vec<String> = tr.span("bench.cold_batch", |_| {
                self.cold
                    .docs
                    .iter()
                    .map(|d| round.units.time(|| engine.run_batch_json(d)).map_err(err))
                    .collect::<Res<_>>()
            })?;
            round.failed = replies
                .iter()
                .zip(&self.cold_expected)
                .filter(|(r, e)| r != e)
                .count();
            Ok(round)
        })
    }

    /// Gate: the reopened store verifies end to end.
    fn gate_fsck(&self) -> Res<()> {
        let reports = match self.spec.layout {
            Layout::ShardEvict => ShardedStore::open(&self.store_dir).map_err(err)?.fsck(),
            _ => vec![Store::open(&self.store_dir).map_err(err)?.fsck()],
        };
        match reports.iter().position(|r| !r.is_clean()) {
            Some(i) => Err(format!("fsck: store {i} is not clean: {:?}", reports[i])),
            None => Ok(()),
        }
    }
}

/// What the analysis phase found.
#[derive(Debug, Default)]
pub struct Analysis {
    /// The phase's units: series load, selection, mining.
    pub units: Units,
    /// Steps `select_greedy` kept.
    pub selected: Vec<usize>,
    /// Subsets the miner reported.
    pub mined: Vec<MinedSubset>,
    /// Value pairs the miner evaluated.
    pub pairs_evaluated: usize,
    /// Value pairs it pruned.
    pub pairs_pruned: usize,
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> Res<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

/// Bytes of the files under `dir`, recursively, that `keep` admits — what
/// the store costs on disk, recomputed from file sizes rather than trusted
/// from a report.
pub fn dir_bytes(dir: &Path, keep: &dyn Fn(&Path) -> bool) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let entry = entry.map_err(err)?;
        let meta = entry.metadata().map_err(err)?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path(), keep)?;
        } else if keep(&entry.path()) {
            total += meta.len();
        }
    }
    Ok(total)
}
