//! Per-layer metrics from the traced pass.
//!
//! After the untraced rounds, a few rounds run again with the tracer on:
//! the same phases, now leaving a span per public call, with `CacheStats`,
//! `ServeStats` and `ibis_obs` counter deltas taken at the phase
//! boundaries. Where a phase is one opaque public call (`run_durable`,
//! `run_batch_json`, a TCP round trip) the layers under it are timed by
//! *shadow* calls — the same public functions on the same inputs, outside
//! the phase's wall — and the remainder is the calling layer's self time.
//! Layer = module; each metric's name starts with its module path.

use crate::fixture::{
    dir_bytes, err, metric_of, remove_dir, Client, Fixture, Layout, Plan, Res, AMPLE_CACHE,
};
use crate::noise::Probe;
use crate::runner::{round, MetricLine, Rounds, PHASES};
use crate::stats::{floor, median};
use crate::trace::Tracer;
use ibis_analysis::{
    correlation_query_ml, correlation_query_ml_mapped, execute_range_plan, plan_value_range,
    select_greedy, Partitioning, StepSummary, SubsetQuery, VarSummary,
};
use ibis_core::{build_index_parallel, BitmapIndex};
use ibis_insitu::crc::crc32c;
use ibis_insitu::engine::{parse_batch, render_answers};
use ibis_insitu::{
    codec, run_durable, CachedStore, EngineBackend, FaultPlan, InsituReport, QueryRequest,
    ServeStats, ShardedStore, Store, StoreWriter,
};
use ibis_obs::{MetricValue, Snapshot};
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// Counter and histogram movement between two obs snapshots.
struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ObsDelta {
    fn read(snap: &Snapshot, name: &str) -> (u64, u64) {
        match snap.get(name) {
            Some(MetricValue::Counter(v)) => (*v, 0),
            Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0),
        }
    }

    /// A counter's increase (or a histogram's count increase).
    fn count(&self, name: &str) -> f64 {
        (Self::read(&self.after, name).0 - Self::read(&self.before, name).0) as f64
    }

    /// A histogram's sum increase.
    fn sum(&self, name: &str) -> f64 {
        (Self::read(&self.after, name).1 - Self::read(&self.before, name).1) as f64
    }
}

/// `a / (a + b)`, or 0 when neither happened.
fn share(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        a / (a + b)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What one traced round observed at its phase boundaries.
struct Observed {
    ingest: ObsDelta,
    analysis: ObsDelta,
    query: ObsDelta,
    report: Option<InsituReport>,
    lossy_bits_dropped: u64,
    pairs_evaluated: usize,
    pairs_pruned: usize,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    serve: Option<(ServeStats, ServeStats)>,
}

/// One traced round: [`round`] over the whole catalog, with obs, cache
/// and serving counters read at every phase boundary.
fn traced_round(
    fx: &mut Fixture,
    probe: &Probe,
    tr: &mut Tracer,
    rounds: &mut Rounds,
) -> Res<Observed> {
    let mut at = Vec::with_capacity(5);
    let out = round(fx, probe, tr, rounds, 1, &mut |fx: &Fixture| {
        let serve = match &fx.client {
            Client::Tcp { server, .. } => Some(server.stats()),
            Client::Batch(_) => None,
        };
        at.push((
            ibis_obs::global().snapshot(),
            fx.client.engine().cache_stats(),
            serve,
        ));
    })?;
    // boundary i precedes phase i: ingest 0→1, analysis 1→2, query 2→3
    let delta = |i: usize| ObsDelta {
        before: at[i].0.clone(),
        after: at[i + 1].0.clone(),
    };
    let (cache0, cache1) = (at[2].1, at[3].1);
    Ok(Observed {
        ingest: delta(0),
        analysis: delta(1),
        query: delta(2),
        report: out.ingested.report,
        lossy_bits_dropped: out.ingested.lossy_bits_dropped,
        pairs_evaluated: out.analysis.pairs_evaluated,
        pairs_pruned: out.analysis.pairs_pruned,
        cache_hits: cache1.hits - cache0.hits,
        cache_misses: cache1.misses - cache0.misses,
        cache_evictions: cache1.evictions - cache0.evictions,
        serve: at[2].2.zip(at[3].2),
    })
}

/// The stores a workload's blobs live in: the flat store, or one per shard.
fn open_stores(plan: &Plan) -> Res<Vec<Store>> {
    Ok(match plan.spec.layout {
        Layout::ShardEvict => ShardedStore::open(&plan.store_dir)
            .map_err(err)?
            .into_shards(),
        _ => vec![Store::open(&plan.store_dir).map_err(err)?],
    })
}

/// Shadow of the layers `run_durable` hides: build, streaming-selector
/// scoring, and the store writes of the selected steps, each through the
/// public function the pipeline itself calls.
fn shadow_durable(plan: &Plan, selected: &[usize], tr: &mut Tracer) -> Res<()> {
    let dir = plan.scratch.join("shadow");
    remove_dir(&dir)?;
    tr.span("shadow.ingest", |tr| {
        let summaries: Vec<StepSummary> = plan
            .data
            .steps
            .iter()
            .map(|s| StepSummary {
                step: s.step,
                vars: s
                    .fields
                    .iter()
                    .zip(&plan.data.binners)
                    .map(|(f, b)| {
                        VarSummary::Bitmap(tr.span("core.builder.build", |_| {
                            build_index_parallel(&f.data, b.clone())
                        }))
                    })
                    .collect(),
            })
            .collect();
        // the streaming selector scores the same (candidate, previous) pairs
        tr.span("shadow.score", |_| {
            black_box(select_greedy(
                &summaries,
                plan.sizes.select_k,
                metric_of(plan.spec.source),
                Partitioning::FixedLength,
            ))
        });
        let mut w = StoreWriter::create(&dir).map_err(err)?;
        let names = plan.data.variables();
        for &s in selected {
            for (name, var) in names.iter().zip(&summaries[s].vars) {
                if let VarSummary::Bitmap(idx) = var {
                    tr.span("insitu.store.put", |_| w.put(s, name, idx))
                        .map_err(err)?;
                }
            }
        }
        tr.span("insitu.store.finish", |_| w.finish())
            .map_err(err)?;
        Ok::<(), String>(())
    })?;
    remove_dir(&dir)
}

/// Bytes of the checkpoint `run_durable` leaves after its second-to-last
/// step (the pipeline is killed before the last one so the file survives).
fn checkpoint_bytes(plan: &Plan) -> Res<u64> {
    let dir = plan.scratch.join("checkpoint");
    remove_dir(&dir)?;
    let n = plan.data.steps.len();
    let mut cfg = plan.pipeline_cfg(plan.sizes.select_k);
    cfg.robustness.faults = FaultPlan::none().with_kill_at_step(n - 1);
    let killed = run_durable(plan.data.replay(Arc::new(AtomicU64::new(0))), &cfg, &dir);
    if killed.is_ok() {
        return Err("checkpoint probe: the kill fault did not fire".into());
    }
    let bytes = std::fs::metadata(dir.join("CHECKPOINT"))
        .map_err(err)?
        .len();
    remove_dir(&dir)?;
    Ok(bytes)
}

/// What the blob shadow measured outside spans.
struct BlobShadow {
    payload_bytes: u64,
    and_ns_per_kword: f64,
    or_ns_per_kword: f64,
    and_count_ns_per_kword: f64,
    hit_us: f64,
}

/// Codec, CRC, cache and kernel costs over the workload's own stored
/// blobs: every blob is read through a fresh cache (a miss, then a hit),
/// re-encoded, checksummed and decoded; the kernels run on bin pairs of
/// the mining step.
fn shadow_blobs(plan: &Plan, tr: &mut Tracer) -> Res<BlobShadow> {
    let vars = plan.data.variables();
    let mut out = BlobShadow {
        payload_bytes: 0,
        and_ns_per_kword: 0.0,
        or_ns_per_kword: 0.0,
        and_count_ns_per_kword: 0.0,
        hit_us: 0.0,
    };
    tr.span("shadow.blobs", |tr| {
        let mut kernel_pairs: Vec<(BitmapIndex, BitmapIndex)> = Vec::new();
        let mut hits = Vec::new();
        for store in open_stores(plan)? {
            let steps = store.steps();
            let cache = CachedStore::new(store, AMPLE_CACHE);
            for &step in &steps {
                for v in &vars {
                    let ml = tr
                        .span("insitu.cache.get_miss", |_| cache.get(v, step))
                        .map_err(err)?;
                    let t = Instant::now();
                    black_box(cache.get(v, step).map_err(err)?);
                    hits.push(t.elapsed().as_secs_f64() * 1e6);
                    let (payload, _) =
                        tr.span("core.codec.encode", |_| codec::encode_index_auto(ml.low()));
                    tr.span("insitu.crc.crc32c", |_| black_box(crc32c(&payload)));
                    tr.span("core.codec.decode", |_| codec::decode_index(&payload))
                        .map_err(err)?;
                    out.payload_bytes += payload.len() as u64;
                }
                if step == plan.mining_step && kernel_pairs.is_empty() {
                    let a = cache.get(vars[0], step).map_err(err)?;
                    let b = cache.get(vars[vars.len() - 1], step).map_err(err)?;
                    kernel_pairs.push((a.low().clone(), b.low().clone()));
                }
            }
        }
        out.hit_us = median(&hits);
        // operand pairs drawn from the stored bins: neighbouring non-empty
        // bins of the first variable against those of the last
        let (a, b) = &kernel_pairs[0];
        let bins = |i: &BitmapIndex| -> Vec<usize> {
            (0..i.nbins()).filter(|&x| i.counts()[x] > 0).collect()
        };
        let pairs: Vec<(usize, usize)> = bins(a).into_iter().zip(bins(b)).take(64).collect();
        let kwords: f64 = pairs
            .iter()
            .map(|&(x, y)| (a.bin(x).words().len() + b.bin(y).words().len()) as f64)
            .sum::<f64>()
            / 1e3;
        let time_ns = |f: &dyn Fn(usize, usize)| {
            // fastest of a few passes: these are microsecond kernels
            floor(
                &(0..5)
                    .map(|_| {
                        let t = Instant::now();
                        for &(x, y) in &pairs {
                            f(x, y);
                        }
                        t.elapsed().as_nanos() as f64
                    })
                    .collect::<Vec<_>>(),
            )
        };
        out.and_ns_per_kword = ratio(
            time_ns(&|x, y| {
                black_box(a.bin(x).and(b.bin(y)));
            }),
            kwords,
        );
        out.or_ns_per_kword = ratio(
            time_ns(&|x, y| {
                black_box(a.bin(x).or(b.bin(y)));
            }),
            kwords,
        );
        out.and_count_ns_per_kword = ratio(
            time_ns(&|x, y| {
                black_box(a.bin(x).and_count(b.bin(y)));
            }),
            kwords,
        );
        Ok(out)
    })
}

/// Per catalog op, the fastest microseconds seen for each layer under the
/// client path (folded over the shadow passes like any other unit floor).
struct QueryShadow {
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    run_us: Vec<f64>,
    cache_us: Vec<f64>,
    eval_us: Vec<f64>,
    submit_us: Vec<f64>,
    frame_us: Vec<f64>,
}

impl QueryShadow {
    fn new(ops: usize) -> Self {
        let inf = || vec![f64::INFINITY; ops];
        QueryShadow {
            parse_us: inf(),
            render_us: inf(),
            run_us: inf(),
            cache_us: inf(),
            eval_us: inf(),
            submit_us: inf(),
            frame_us: inf(),
        }
    }
}

/// Mean of per-op floors; 0 for a layer the workload never crossed.
fn mean_us(v: &[f64]) -> f64 {
    if v.iter().all(|x| x.is_finite()) {
        v.iter().sum::<f64>() / v.len() as f64
    } else {
        0.0
    }
}

/// Times `f` inside a span and keeps the fastest microseconds in `slot`.
fn timed<R>(tr: &mut Tracer, name: &'static str, slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = tr.span(name, |_| f());
    *slot = slot.min(t.elapsed().as_secs_f64() * 1e6);
    out
}

/// Shadow of the layers one client op crosses: JSON parse, engine run,
/// JSON render — and for the TCP client the server hand-off and the frame
/// handler. The cache read and the planner or correlation kernel inside
/// the run are timed against `cache`, a cache of the shadow's own (the
/// flat store, or shard 0's slice), so the engine's cache sees only the
/// sequence of runs it sees in the real phase.
///
/// Whichever of two calls on one op goes second finds the op's bitmaps in
/// the CPU cache, so `submit_first` alternates between passes: both the
/// direct run and the server hand-off then have a floor from the warm
/// position, and their difference is the hand-off alone.
fn shadow_query(
    fx: &Fixture,
    cache: &CachedStore,
    s: &mut QueryShadow,
    submit_first: bool,
    tr: &mut Tracer,
) -> Res<()> {
    let plan = &fx.plan;
    let engine = fx.client.engine();
    let sharded = matches!(engine, EngineBackend::Sharded(_));
    tr.span("shadow.query", |tr| {
        for (i, (doc, req)) in plan
            .catalog
            .docs
            .iter()
            .zip(&plan.catalog.requests)
            .enumerate()
        {
            black_box(
                timed(tr, "insitu.json.parse", &mut s.parse_us[i], || {
                    parse_batch(doc)
                })
                .map_err(err)?,
            );
            let mut submit = |tr: &mut Tracer| -> Res<()> {
                if let Client::Tcp { server, .. } = &fx.client {
                    timed(tr, "insitu.serving.submit", &mut s.submit_us[i], || {
                        server.submit(req, None)
                    })
                    .map_err(err)?;
                }
                Ok(())
            };
            if submit_first {
                submit(tr)?;
            }
            let answer = timed(tr, "insitu.engine.run", &mut s.run_us[i], || {
                engine.run(req)
            });
            if !submit_first {
                submit(tr)?;
            }
            black_box(timed(tr, "insitu.json.render", &mut s.render_us[i], || {
                render_answers(std::slice::from_ref(&answer))
            }));
            answer.map_err(err)?;

            match req {
                QueryRequest::Subset {
                    step,
                    variable,
                    query,
                } => {
                    let ml = timed(tr, "insitu.cache.get", &mut s.cache_us[i], || {
                        cache.get(variable, *step)
                    })
                    .map_err(err)?;
                    let (lo, hi) = query.value_range.unwrap_or((f64::MIN, f64::MAX));
                    timed(tr, "analysis.query.plan_eval", &mut s.eval_us[i], || {
                        plan_value_range(ml.low(), Some(&ml), lo, hi)
                            .map(|p| black_box(execute_range_plan(ml.low(), Some(&ml), &p)))
                    })
                    .map_err(err)?;
                }
                QueryRequest::Correlation {
                    step,
                    var_a,
                    var_b,
                    query_a,
                    query_b,
                } => {
                    let (a, b) = timed(tr, "insitu.cache.get", &mut s.cache_us[i], || {
                        (cache.get(var_a, *step), cache.get(var_b, *step))
                    });
                    let (a, b) = (a.map_err(err)?, b.map_err(err)?);
                    let order = cache.get_order(*step).map_err(err)?;
                    // a shard's slice is shorter than the rows the global
                    // regions name, so its shadow correlates without them
                    let strip = |q: &SubsetQuery| SubsetQuery {
                        position_range: q.position_range.clone().filter(|_| !sharded),
                        ..q.clone()
                    };
                    let (qa, qb) = (strip(query_a), strip(query_b));
                    timed(
                        tr,
                        "analysis.query.corr",
                        &mut s.eval_us[i],
                        || match order.as_deref() {
                            Some((_, perm)) => correlation_query_ml_mapped(&a, &b, &qa, &qb, perm),
                            None => correlation_query_ml(&a, &b, &qa, &qb),
                        },
                    )
                    .map_err(err)?;
                }
            }

            if let Client::Tcp { server, .. } = &fx.client {
                black_box(timed(
                    tr,
                    "insitu.serving.handle_frame",
                    &mut s.frame_us[i],
                    || server.handle_frame(doc),
                ));
            }
        }
        Ok(())
    })
}

/// Mean warm `run` microseconds of an unbounded sharded engine and of a
/// flat engine over the same data, same catalog.
fn shadow_merge(plan: &Plan, tr: &mut Tracer) -> Res<(f64, f64)> {
    let flat_dir = plan.scratch.join("flat-twin");
    let flat = plan.flat_exact_engine(&flat_dir)?;
    let sharded = ibis_insitu::ShardedEngine::open(&plan.store_dir, AMPLE_CACHE).map_err(err)?;
    let mean_us = |run: &dyn Fn(&QueryRequest) -> Res<()>| -> Res<f64> {
        for r in &plan.catalog.requests {
            run(r)?; // warm
        }
        let t = Instant::now();
        for r in &plan.catalog.requests {
            run(r)?;
        }
        Ok(t.elapsed().as_secs_f64() * 1e6 / plan.catalog.len() as f64)
    };
    let out = tr.span("shadow.merge", |_| {
        Ok((
            mean_us(&|r| sharded.run(r).map(|_| ()).map_err(err))?,
            mean_us(&|r| flat.run(r).map(|_| ()).map_err(err))?,
        ))
    });
    drop(flat);
    remove_dir(&flat_dir)?;
    out
}

/// Runs the traced rounds and the shadow measurements, and reduces them
/// to the per-layer metrics (every workload prints every metric; a layer
/// the workload does not cross reads 0). Also returns the ops that failed
/// in those rounds.
pub fn traced_pass(
    fx: &mut Fixture,
    probe: &Probe,
    tr: &mut Tracer,
    untraced: &Rounds,
) -> Res<(Vec<MetricLine>, u64)> {
    let layout = fx.plan.spec.layout;
    let nrounds = fx.plan.sizes.traced_rounds;
    // A traced round, its untraced twin (whole catalog, like the traced
    // one, so tracing overhead compares floors of equal support), then two
    // shadow passes — interleaved, so a change of the machine's weather
    // hits the phases and the shadows of their layers alike.
    let (mut traced, mut twins) = (Rounds::default(), Rounds::default());
    let mut observed = Vec::new();
    let shadow_cache = CachedStore::new(open_stores(&fx.plan)?.swap_remove(0), AMPLE_CACHE);
    let mut q = QueryShadow::new(fx.plan.catalog.len());
    let mut blob = None;
    for r in 0..nrounds {
        tr.set_round(3 * r);
        observed.push(traced_round(fx, probe, tr, &mut traced)?);
        round(fx, probe, &mut Tracer::off(), &mut twins, 1, &mut |_| ())?;
        let selected = observed[0].report.as_ref().map(|r| r.selected.clone());
        for pass in 1..=2 {
            tr.set_round(3 * r + pass);
            if let Some(selected) = &selected {
                shadow_durable(&fx.plan, selected, tr)?;
            }
            blob = Some(shadow_blobs(&fx.plan, tr)?);
            shadow_query(fx, &shadow_cache, &mut q, pass == 2, tr)?;
        }
    }
    let blob = blob.ok_or("no traced round")?;
    let (warm_sharded_run_us, warm_flat_run_us) = match layout {
        Layout::ShardEvict => shadow_merge(&fx.plan, tr)?,
        _ => (0.0, 0.0),
    };
    let ckpt_bytes = match layout {
        Layout::FlatBatch => checkpoint_bytes(&fx.plan)? as f64,
        _ => 0.0,
    };
    let plan = &fx.plan;
    let o = &observed[0];
    // floor over traced rounds of a span's per-round total, seconds
    let span_s = |name: &str| -> f64 {
        let per_round: Vec<f64> = tr.per_round(name).values().copied().collect();
        if per_round.is_empty() {
            0.0
        } else {
            floor(&per_round)
        }
    };
    let elements = plan.data.elements() as f64;
    let nq = plan.catalog.len() as f64;

    // ---- ingest: who owns the wall ----
    let build_s = span_s("core.builder.build");
    let put_s = span_s("insitu.store.put");
    let finish_s = span_s("insitu.store.finish");
    let replay_s = span_s("bench.replay");
    let insitu_score_s = span_s("shadow.score");
    let durable_s = span_s("insitu.pipeline.run_durable");
    let residual_s = match layout {
        Layout::FlatBatch => durable_s - replay_s - build_s - insitu_score_s - put_s - finish_s,
        _ => 0.0,
    };
    let ingest_wall = span_s("phase.ingest");
    let coverage_ingest = match layout {
        Layout::FlatBatch => ratio(
            replay_s + build_s + insitu_score_s + put_s + finish_s + residual_s.max(0.0),
            durable_s,
        ),
        _ => tr.coverage("phase.ingest"),
    };

    // ---- query: who owns an op (means of per-op floors) ----
    // the client path's floors over the traced rounds and their twins:
    // as many repeats as the shadows had
    let client_floor: Vec<f64> = traced.unit_floor_s[2]
        .iter()
        .zip(&twins.unit_floor_s[2])
        .map(|(a, b)| a.min(*b))
        .collect();
    let client_us = mean_us(&client_floor) * 1e6;
    let (parse_us, run_us, render_us) = (
        mean_us(&q.parse_us),
        mean_us(&q.run_us),
        mean_us(&q.render_us),
    );
    let (handoff_us, socket_us, coverage_query) = match layout {
        Layout::ReorderLossyTcp => {
            let submit_us = mean_us(&q.submit_us);
            let socket = client_us - mean_us(&q.frame_us);
            (
                submit_us - run_us,
                socket,
                ratio(parse_us + submit_us + render_us + socket, client_us),
            )
        }
        _ => (0.0, 0.0, ratio(parse_us + run_us + render_us, client_us)),
    };
    let shards = fx.client.engine().nshards() as f64;
    let pruned = o.query.count("shard.query.pruned");
    let (shed, coalesce) = o.serve.map_or((0.0, 0.0), |(a, b)| {
        (
            (b.shed - a.shed) as f64,
            (b.coalesce_hits - a.coalesce_hits) as f64,
        )
    });

    // ---- noise and tracing ----
    let twin_sum: f64 = (0..4).map(|p| twins.floor(p)).sum();
    let traced_sum: f64 = (0..4).map(|p| traced.floor(p)).sum();
    let gated: Vec<_> = (0..4).map(|p| untraced.gated(p)).collect();
    let nuntraced = untraced.gate.rounds() as f64;

    let blob_bytes = dir_bytes(&plan.store_dir, &|p| {
        p.extension().is_some_and(|e| e == "ibis")
    })? as f64;

    let mut m: Vec<MetricLine> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(MetricLine::new(name, value, unit));
    };
    put("core.builder.build_s", build_s, "s");
    put(
        "core.builder.melem_per_s",
        ratio(elements / 1e6, build_s),
        "Melem/s",
    );
    put(
        "core.builder.fast_segment_share",
        share(
            o.ingest.count("generation.segments.fast"),
            o.ingest.count("generation.segments.mixed"),
        ),
        "ratio",
    );
    put("core.roworder.perm_s", span_s("core.roworder.perm"), "s");
    put("core.lossy.pass_s", span_s("core.lossy.pass"), "s");
    put(
        "core.lossy.bits_dropped",
        o.lossy_bits_dropped as f64,
        "count",
    );
    put("core.codec.encode_s", span_s("core.codec.encode"), "s");
    put("core.codec.decode_s", span_s("core.codec.decode"), "s");
    put(
        "core.codec.roaring_bin_share",
        share(
            o.ingest.count("codec.select.roaring"),
            o.ingest.count("codec.select.wah"),
        ),
        "ratio",
    );
    put("core.kernels.and_ns_per_kword", blob.and_ns_per_kword, "ns");
    put("core.kernels.or_ns_per_kword", blob.or_ns_per_kword, "ns");
    put(
        "core.kernels.and_count_ns_per_kword",
        blob.and_count_ns_per_kword,
        "ns",
    );
    put(
        "core.kernels.dense_path_share",
        share(
            o.query.count("kernels.materialize.dense_path"),
            o.query.count("kernels.materialize.run_path"),
        ),
        "ratio",
    );
    put(
        "analysis.selection.score_s",
        span_s("analysis.selection.select_greedy"),
        "s",
    );
    put(
        "analysis.selection.step_evals",
        o.analysis.count("analysis.metric.step_evals"),
        "count",
    );
    put(
        "analysis.mining.mine_s",
        span_s("analysis.mining.mine_index"),
        "s",
    );
    put(
        "analysis.mining.pairs_pruned_share",
        ratio(o.pairs_pruned as f64, o.pairs_evaluated as f64),
        "ratio",
    );
    put(
        "analysis.query.plan_eval_s",
        span_s("analysis.query.plan_eval"),
        "s",
    );
    put("analysis.query.corr_s", span_s("analysis.query.corr"), "s");
    for plan_kind in ["or_bins", "complement", "multilevel", "empty"] {
        put(
            &format!("analysis.query.plan_mix.{plan_kind}"),
            o.query.count(&format!("query.plan.{plan_kind}")),
            "count",
        );
    }
    put("insitu.pipeline.residual_s", residual_s, "s");
    put("insitu.pipeline.checkpoint_bytes", ckpt_bytes, "bytes");
    put(
        "insitu.pipeline.peak_mem_per_raw_step",
        o.report.as_ref().map_or(0.0, |r| {
            ratio(r.peak_memory_bytes as f64, r.raw_bytes_per_step as f64)
        }),
        "ratio",
    );
    put("insitu.store.put_s", put_s, "s");
    put(
        "insitu.store.put_bytes",
        o.ingest.count("store.put.bytes"),
        "bytes",
    );
    put("insitu.store.finish_s", finish_s, "s");
    put("insitu.store.open_s", span_s("insitu.store.open"), "s");
    put("insitu.store.load_s", span_s("insitu.store.load"), "s");
    put("insitu.store.load_bytes", blob_bytes, "bytes");
    put(
        "insitu.crc.mb_per_s",
        ratio(blob.payload_bytes as f64 / 1e6, span_s("insitu.crc.crc32c")),
        "MB/s",
    );
    put(
        "insitu.store.crc_verified",
        o.analysis.count("store.crc.verified"),
        "count",
    );
    put(
        "insitu.cache.hit_share",
        share(o.cache_hits as f64, o.cache_misses as f64),
        "ratio",
    );
    put("insitu.cache.evictions", o.cache_evictions as f64, "count");
    put(
        "insitu.cache.get_miss_s",
        span_s("insitu.cache.get_miss"),
        "s",
    );
    put("insitu.cache.get_hit_us", blob.hit_us, "us");
    put("insitu.json.parse_us", parse_us, "us");
    put("insitu.json.render_us", render_us, "us");
    put(
        "insitu.engine.residual_us",
        run_us - mean_us(&q.cache_us) - mean_us(&q.eval_us),
        "us",
    );
    put(
        "insitu.shard.fanout_mean",
        if layout == Layout::ShardEvict {
            (shards * nq - pruned) / nq
        } else {
            0.0
        },
        "count",
    );
    put(
        "insitu.shard.pruned_share",
        ratio(pruned, shards * nq),
        "ratio",
    );
    put(
        "insitu.shard.merge_us",
        warm_sharded_run_us - warm_flat_run_us,
        "us",
    );
    put("insitu.serving.handoff_us", handoff_us, "us");
    put("insitu.serving.socket_us", socket_us, "us");
    put(
        "insitu.serving.queue_wait_us",
        ratio(
            o.query.sum("serving.queue.wait_ns") / 1e3,
            o.query.count("serving.queue.wait_ns"),
        ),
        "us",
    );
    put("insitu.serving.shed", shed, "count");
    put("insitu.serving.coalesce_hits", coalesce, "count");
    put("trace.coverage.ingest", coverage_ingest, "ratio");
    put("trace.coverage.query", coverage_query, "ratio");
    put("trace.overhead_share", traced_sum / twin_sum - 1.0, "ratio");
    for (p, name) in PHASES.iter().enumerate() {
        put(
            &format!("noise.clean_share.{name}"),
            gated[p].clean as f64 / nuntraced,
            "ratio",
        );
    }
    put("noise.probe_best_ms", floor(&untraced.gate.best()), "ms");
    put(
        "noise.fallback_used",
        f64::from(u8::from(gated.iter().any(|g| g.fallback))),
        "count",
    );
    eprintln!(
        "# traced: ingest wall {ingest_wall:.4}s (run_durable {durable_s:.4}s), client op {client_us:.1}us"
    );
    Ok((m, traced.failed + twins.failed))
}
