//! Sharded scatter-gather sweep: proves the distributed tier's three
//! headline properties and writes `BENCH_shard.json` at the repository
//! root.
//!
//!     cargo bench -p ibis-bench --bench shard
//!
//! Phases:
//! 1. identity: every sharded answer (k ∈ {1, 2, 4}, cold and warm) is
//!    asserted equal to the flat single-store engine before anything is
//!    timed — the numbers below are only meaningful for a correct tier;
//! 2. pruning, then scaling: a region query only evaluates the shards
//!    whose row ranges overlap it, and every catalog region is one slot
//!    inside one shard, so each query of phase 1 is also asserted to
//!    visit exactly one shard and prune the other `K - 1`
//!    (`shard.query.{fanout,pruned}`; skipped when `obs` is compiled
//!    out) — deterministic, so it holds at smoke size too. Throughput
//!    cannot show pruning: a subset count reads only the region's ranges
//!    and the joint kernel labels only the rows under them, so one shard
//!    pays for the region too and 4 shards run ~1.1x one. What warm
//!    region-local throughput at 1, 2 and 4 shards has to show is that
//!    sharding does not *cost* such a query: qps(4) / qps(1) >= 0.8
//!    (with pruning patched out it measures 0.12x, 0.02x at smoke size);
//! 3. over-budget serving: the 4-shard store is fronted by
//!    `QueryServer` with a cache budget *half* the decoded dataset (so
//!    each shard's slice cannot stay resident). Asserts eviction churn
//!    actually happened and p99 stays interactive (<= 150 ms, ~5x the
//!    PR 7 fault-free serving p99);
//! 4. node-kill: a sharded writer dies mid-ingest (its last append torn
//!    inside shard 2's record), resumes from what is durable, repairs by
//!    idempotent re-put, and the recovered tier answers exactly like a
//!    never-killed flat store.
//!
//! `IBIS_SHARD_SMOKE=1` shrinks everything and writes to
//! `target/BENCH_shard.smoke.json` so CI can schema-check the report
//! without clobbering the committed full-size numbers.

use ibis_analysis::SubsetQuery;
use ibis_core::{Binner, BitmapIndex};
use ibis_insitu::{
    CachedStore, QueryEngine, QueryRequest, QueryServer, ServeConfig, ShardedEngine, ShardedStore,
    ShardedWriter, Store, StoreWriter,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const NBINS: usize = 64;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const SCALING_TARGET: f64 = 0.8;
const INTERACTIVE_P99_MS: f64 = 150.0;

/// Ocean-like field: a large-scale gradient along the row axis (regions
/// are spatially meaningful) plus smooth waves.
fn temperature(step: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            30.0 + 24.0 * x + 8.0 * (x * 11.0 + step as f64 * 0.7).sin() + 2.0 * (x * 173.0).sin()
        })
        .collect()
}

fn salinity(temp: &[f64]) -> Vec<f64> {
    temp.iter()
        .enumerate()
        .map(|(i, &t)| 18.0 + t * 0.4 + 5.0 * ((i as f64 * 0.011).cos()))
        .collect()
}

/// splitmix64 (the bench must be self-deterministic).
struct Mix64(u64);

impl Mix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Region-local catalog: every query pins a region to one of 32 slots of
/// width n/8 (so at 4 shards a slot sits entirely inside one shard), with
/// a value window on top — the paper's Algorithm 2 regime, where mining
/// probes spatial subsets. A few correlations keep the merge path hot.
fn catalog(nsteps: usize, n: u64) -> Vec<QueryRequest> {
    let slot = n / 8;
    let mut out = Vec::new();
    for step in 0..nsteps {
        for s in 0..8u64 {
            for w in 0..4u64 {
                let lo = 28.0 + (w as f64) * 8.0;
                out.push(QueryRequest::Subset {
                    step,
                    variable: if w % 2 == 0 {
                        "temperature"
                    } else {
                        "salinity"
                    }
                    .into(),
                    query: SubsetQuery::value(lo, lo + 12.0).with_region(s * slot..(s + 1) * slot),
                });
            }
        }
        for s in 0..4u64 {
            out.push(QueryRequest::Correlation {
                step,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: SubsetQuery::value(30.0, 52.0).with_region(s * slot..(s + 1) * slot),
                query_b: SubsetQuery::region(s * slot..(s + 1) * slot),
            });
        }
    }
    out
}

fn zipf_cum(len: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..len)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

fn pick<'a>(cat: &'a [QueryRequest], cum: &[f64], rng: &mut Mix64) -> &'a QueryRequest {
    let total = cum[cum.len() - 1];
    let x = rng.unit() * total;
    &cat[cum.partition_point(|&c| c < x).min(cat.len() - 1)]
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let i = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[i] as f64 / 1e6
}

fn build_indexes(nsteps: usize, n: usize, binner: &Binner) -> Vec<[(String, BitmapIndex); 2]> {
    (0..nsteps)
        .map(|step| {
            let t = temperature(step, n);
            let s = salinity(&t);
            [
                (
                    "temperature".to_string(),
                    BitmapIndex::build(&t, binner.clone()),
                ),
                (
                    "salinity".to_string(),
                    BitmapIndex::build(&s, binner.clone()),
                ),
            ]
        })
        .collect()
}

fn main() {
    let smoke = std::env::var("IBIS_SHARD_SMOKE").is_ok_and(|v| v == "1");
    let n: usize = if smoke { 1 << 14 } else { 1 << 18 };
    // 8 steps x 2 vars = 16 cache entries per shard: more entries than
    // the cache's internal lock shards, so the over-budget phase *must*
    // evict (a lock shard never drops its last resident entry).
    let nsteps: usize = 8;
    let scaling_queries: usize = if smoke { 150 } else { 1200 };
    let serve_requests: usize = if smoke { 150 } else { 1500 };
    let binner = Binner::fixed_width(25.0, 60.0, NBINS);
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");

    // --- build: one dataset, one flat store, one store per shard count ---
    let indexes = build_indexes(nsteps, n, &binner);
    let flat_dir = root.join("bench-shard-flat");
    std::fs::remove_dir_all(&flat_dir).ok();
    let mut fw = StoreWriter::create(&flat_dir).expect("create flat store");
    for (step, vars) in indexes.iter().enumerate() {
        for (var, idx) in vars {
            fw.put(step, var, idx).expect("put flat");
        }
    }
    fw.finish().expect("finish flat store");
    let mut shard_dirs: Vec<(usize, PathBuf)> = Vec::new();
    for &k in &SHARD_COUNTS {
        let dir = root.join(format!("bench-shard-k{k}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut w = ShardedWriter::create(&dir, k).expect("create sharded store");
        for (step, vars) in indexes.iter().enumerate() {
            for (var, idx) in vars {
                w.put(step, var, idx).expect("put shard");
            }
        }
        w.finish().expect("finish sharded store");
        shard_dirs.push((k, dir));
    }
    let decoded_bytes: u64 = {
        let probe = CachedStore::new(Store::open(&flat_dir).expect("open flat"), u64::MAX);
        let mut total = 0u64;
        for (step, vars) in indexes.iter().enumerate() {
            for (var, _) in vars {
                let entry = probe.get(var, step).expect("decode probe");
                total += entry.low().size_bytes() as u64;
            }
        }
        total
    };
    println!(
        "shard: dataset {n} rows x {nsteps} steps x 2 vars, {:.1} MiB decoded",
        decoded_bytes as f64 / (1 << 20) as f64
    );

    let cat = catalog(nsteps, n as u64);
    let cum = zipf_cum(cat.len());
    let oracle = QueryEngine::new(CachedStore::new(
        Store::open(&flat_dir).expect("open flat"),
        u64::MAX,
    ));

    // --- phase 1 + 2: identity, then warm region-local throughput ---
    let counter = |name: &str| match ibis_obs::global().snapshot().get(name) {
        Some(ibis_obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let visits = || (counter("shard.query.fanout"), counter("shard.query.pruned"));
    let mut identity_checked = 0usize;
    let mut pruning_checked = 0usize;
    let mut throughput: Vec<(usize, f64)> = Vec::new();
    for (k, dir) in &shard_dirs {
        let engine = ShardedEngine::open(dir, u64::MAX).expect("open sharded engine");
        // identity first — cold pass, then warm pass (the pruned path)
        for pass in 0..2 {
            for req in &cat {
                let was = visits();
                let got = engine.run(req).expect("sharded answer");
                let now = visits();
                let want = oracle.run(req).expect("oracle answer");
                assert_eq!(got, want, "k={k} pass={pass} diverged on {req:?}");
                identity_checked += 1;
                // one slot lies inside one shard: only that shard is visited
                if ibis_obs::ENABLED {
                    let moved = (now.0 - was.0, now.1 - was.1);
                    assert_eq!(moved, (1, *k as u64 - 1), "k={k} visited/pruned on {req:?}");
                    pruning_checked += 1;
                }
            }
        }
        // timed warm loop: zipf-picked region-local queries, single thread
        let mut rng = Mix64(0x5AAD ^ (*k as u64) << 8);
        let t0 = Instant::now();
        for _ in 0..scaling_queries {
            let req = pick(&cat, &cum, &mut rng);
            engine.run(req).expect("timed query");
        }
        let wall = t0.elapsed().as_secs_f64();
        let qps = scaling_queries as f64 / wall.max(1e-9);
        println!("shard: k={k} warm region-local {qps:.0} q/s ({scaling_queries} queries)");
        throughput.push((*k, qps));
    }
    let qps1 = throughput[0].1;
    let qps4 = throughput[throughput.len() - 1].1;
    let speedup = qps4 / qps1;
    let scaling_met = speedup >= SCALING_TARGET;
    assert!(
        scaling_met,
        "4-shard region-local throughput must be >= {SCALING_TARGET}x the 1-shard \
         baseline, got {speedup:.2}x ({qps4:.0} vs {qps1:.0} q/s)"
    );
    println!("shard: 4 shards over 1 = {speedup:.2}x (floor {SCALING_TARGET}x)");

    // --- phase 3: over-budget dataset behind the serving tier ---
    // Budget = half the decoded dataset: each shard's slice cannot stay
    // resident, so the tier must churn and *still* answer interactively.
    let budget = decoded_bytes / 2;
    let dir4 = &shard_dirs[shard_dirs.len() - 1].1;
    let engine = ShardedEngine::open(dir4, budget).expect("open budgeted engine");
    let server = Arc::new(
        QueryServer::start(
            engine,
            ServeConfig {
                record_latencies: true,
                ..ServeConfig::default()
            },
        )
        .expect("start sharded server"),
    );
    let mut rng = Mix64(0x0CEA);
    for _ in 0..serve_requests / 10 {
        // warmup: populate whatever fits under the squeezed budget
        server
            .submit(pick(&cat, &cum, &mut rng), None)
            .expect("warmup");
    }
    server.take_latencies();
    for _ in 0..serve_requests {
        server
            .submit(pick(&cat, &cum, &mut rng), None)
            .expect("serve query");
    }
    let mut lat_ns = server.take_latencies();
    lat_ns.sort_unstable();
    let p50 = percentile_ms(&lat_ns, 0.50);
    let p99 = percentile_ms(&lat_ns, 0.99);
    let cache = server.engine().cache_stats();
    let over_budget = decoded_bytes > budget;
    let interactive = p99 <= INTERACTIVE_P99_MS;
    assert!(over_budget, "the dataset must not fit the serving budget");
    assert!(
        cache.evictions > 0,
        "an over-budget tier must churn, stats: {cache:?}"
    );
    assert!(
        interactive,
        "over-budget p99 {p99:.2} ms exceeds the {INTERACTIVE_P99_MS} ms interactive bound"
    );
    println!(
        "shard: over-budget serve ({:.1} MiB data / {:.1} MiB budget) p50 {p50:.3} ms  \
         p99 {p99:.3} ms  evictions {}",
        decoded_bytes as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
        cache.evictions
    );
    server.shutdown();

    // --- phase 4: node-kill, shard-local resume, repair ---
    let kill_dir = root.join("bench-shard-nodekill");
    std::fs::remove_dir_all(&kill_dir).ok();
    {
        let mut w = ShardedWriter::create(&kill_dir, 4).expect("create kill store");
        for (var, idx) in &indexes[0] {
            w.put(0, var, idx).expect("put step 0");
        }
        w.put(1, "temperature", &indexes[1][0].1)
            .expect("put step 1 half");
        // killed here: no finish()
    }
    // where shard 2's record of the torn append ends, from a finished copy
    let probe_dir = root.join("bench-shard-nodekill-probe");
    std::fs::remove_dir_all(&probe_dir).ok();
    std::fs::create_dir_all(&probe_dir).expect("create probe store");
    for e in std::fs::read_dir(&kill_dir).expect("list kill store") {
        let e = e.expect("kill store entry");
        std::fs::copy(e.path(), probe_dir.join(e.file_name())).expect("copy kill store");
    }
    ShardedWriter::resume(&probe_dir)
        .and_then(ShardedWriter::finish)
        .expect("finish probe store");
    let probe = ShardedStore::open(&probe_dir).expect("open probe store");
    let (located, at) = probe.shards()[2]
        .locate(1, "temperature")
        .expect("locate shard 2's record");
    let segment = kill_dir.join(located.file_name().expect("segment name"));
    let bytes = std::fs::read(&segment).expect("read segment");
    std::fs::write(&segment, &bytes[..at.end as usize - 3]).expect("tear shard 2's record");
    std::fs::remove_dir_all(&probe_dir).ok();
    let t0 = Instant::now();
    let mut w = ShardedWriter::resume(&kill_dir).expect("resume killed writer");
    assert_eq!(
        w.durable_steps(),
        vec![0],
        "only step 0 survived everywhere"
    );
    for (var, idx) in &indexes[1] {
        w.put(1, var, idx).expect("repair step 1");
    }
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    // the recovered node then finishes the rest of the run as normal
    for (step, vars) in indexes.iter().enumerate().skip(2) {
        for (var, idx) in vars {
            w.put(step, var, idx).expect("complete run");
        }
    }
    w.finish().expect("finish recovered store");
    let recovered = ShardedEngine::open(&kill_dir, u64::MAX).expect("open recovered");
    for req in &cat {
        assert_eq!(
            recovered.run(req).expect("recovered answer"),
            oracle.run(req).expect("oracle answer"),
            "recovered tier diverged on {req:?}"
        );
    }
    let nodekill_resumed = true;
    println!("shard: node-kill resume + repair in {resume_ms:.1} ms, answers re-verified");

    // --- report ---
    let samples = identity_checked + scaling_queries * SHARD_COUNTS.len() + lat_ns.len();
    let per_shard: Vec<String> = throughput
        .iter()
        .map(|(k, qps)| format!("{{\"shards\": {k}, \"qps\": {qps:.0}}}"))
        .collect();
    let out = format!(
        "{{\n  \"workload\": \"region-local zipf mix, {n} rows/step, {nsteps} steps, \
         {} catalog entries, shard counts {SHARD_COUNTS:?}\",\n  \
         \"samples\": {samples},\n  \
         \"shards\": [{}],\n  \
         \"throughput_qps\": {qps4:.0},\n  \
         \"speedup_4x_over_1\": {speedup:.3},\n  \
         \"scaling_target\": {SCALING_TARGET},\n  \
         \"scaling_target_met\": {scaling_met},\n  \
         \"identity_checked\": {identity_checked},\n  \
         \"pruning_checked\": {pruning_checked},\n  \
         \"ocean_rows\": {n},\n  \
         \"ocean_decoded_mib\": {:.2},\n  \
         \"ocean_budget_mib\": {:.2},\n  \
         \"ocean_over_budget\": {over_budget},\n  \
         \"ocean_p50_ms\": {p50:.4},\n  \
         \"ocean_p99_ms\": {p99:.4},\n  \
         \"ocean_p99_interactive\": {interactive},\n  \
         \"cache_evictions\": {},\n  \
         \"nodekill_resume_ms\": {resume_ms:.1},\n  \
         \"nodekill_resumed\": {nodekill_resumed}\n}}\n",
        cat.len(),
        per_shard.join(", "),
        decoded_bytes as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
        cache.evictions,
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_shard.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shard.json")
    };
    std::fs::write(path, out).expect("write BENCH_shard report");
    std::fs::remove_dir_all(&flat_dir).ok();
    for (_, dir) in &shard_dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    std::fs::remove_dir_all(&kill_dir).ok();
    println!("shard: wrote {path}");
}
