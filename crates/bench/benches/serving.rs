//! Overload-safe serving sweep: drives `QueryServer` with closed- and
//! open-loop zipf-skewed load and proves the core SLO property — under
//! injected slow workers, p99 latency of *admitted* requests stays
//! bounded (deadlines drop what can't finish in budget) and excess load
//! turns into typed sheds, never queueing collapse. Written to
//! `BENCH_serving.json` at the repository root.
//!
//!     cargo bench -p ibis-bench --bench serving
//!
//! Phases:
//! 1. closed-loop, fault-free: 8 clients over a zipf query mix —
//!    baseline p50/p99/p999 of server-side completion latency;
//! 2. saturation ramp: closed-loop throughput at 1..16 clients, the max
//!    is the saturation throughput;
//! 3. open-loop overload with slow-worker faults (every 4th request
//!    +10 ms): arrivals at a fixed schedule regardless of completion, a
//!    per-request deadline of ~3x the fault-free p99 (at least 2 ms) —
//!    asserts the SLO (faulted p99 within the deadline plus twice the
//!    fault-free p99) + typed-shed + queue-bound properties;
//! 4. coalescing proof: 8 concurrent identical queries on a cold cache
//!    with a slowed leader — exactly one store decode, 7 coalesce hits;
//! 5. socket round-trip p50 over the TCP front end.
//!
//! `IBIS_SERVE_SMOKE=1` shrinks everything and writes to
//! `target/BENCH_serving.smoke.json` so CI can schema-check the report
//! without clobbering the committed full-size numbers.

use ibis_analysis::SubsetQuery;
use ibis_core::{Binner, BitmapIndex};
use ibis_insitu::{
    CachedStore, FaultPlan, QueryEngine, QueryRequest, QueryServer, ServeConfig, ServeError,
    SocketServer, Store, StoreWriter,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const NBINS: usize = 64;
const QUEUE_CAP: usize = 32;
const WORKERS: usize = 4;
const SLOW_EVERY: u64 = 4;
const SLOW_MS: u64 = 10;

/// A smooth simulation-like field (same shape as the query bench).
fn temperature(step: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            32.0 + 28.0 * (x * 9.0 + step as f64 * 0.7).sin() + 3.0 * (x * 151.0).sin()
        })
        .collect()
}

fn salinity(temp: &[f64]) -> Vec<f64> {
    temp.iter()
        .enumerate()
        .map(|(i, &t)| 20.0 + t * 0.5 + 6.0 * ((i as f64 * 0.013).cos()))
        .collect()
}

/// splitmix64, for the zipf pick (the bench must be self-deterministic).
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

/// The query catalog: subset drills and correlations per step, ranked so
/// a zipf pick makes the head entries hot (the coalescing/cache regime)
/// while the tail keeps cold work in the mix.
fn catalog(nsteps: usize) -> Vec<QueryRequest> {
    // Wide enough that overload cannot hide behind coalescing: distinct
    // in-flight keys must be able to exceed the queue bound, or the
    // inflight map alone would absorb any arrival rate.
    let mut out = Vec::new();
    for step in 0..nsteps {
        for w in 0..24u32 {
            let lo = f64::from(w) * 2.5;
            out.push(QueryRequest::Subset {
                step,
                variable: "temperature".into(),
                query: SubsetQuery::value(lo, lo + 14.0),
            });
        }
        for w in 0..8u32 {
            let lo = f64::from(w) * 6.0;
            out.push(QueryRequest::Correlation {
                step,
                var_a: "temperature".into(),
                var_b: "salinity".into(),
                query_a: SubsetQuery::value(lo, lo + 18.0),
                query_b: SubsetQuery::all(),
            });
        }
    }
    out
}

/// Zipf cumulative weights over the catalog (weight 1/rank).
fn zipf_cum(len: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (0..len)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect()
}

fn pick<'a>(catalog: &'a [QueryRequest], cum: &[f64], rng: &mut Mix64) -> &'a QueryRequest {
    let total = cum[cum.len() - 1];
    let x = rng.unit() * total;
    &catalog[cum.partition_point(|&c| c < x).min(catalog.len() - 1)]
}

fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let i = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[i] as f64 / 1e6
}

fn open_engine(dir: &std::path::Path) -> QueryEngine {
    QueryEngine::new(CachedStore::new(
        Store::open(dir).expect("open bench store"),
        256 << 20,
    ))
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAP,
        record_latencies: true,
        ..ServeConfig::default()
    }
}

/// Closed-loop burst: `clients` threads each running their share of
/// `total` zipf-picked requests; returns (wall seconds, completed).
fn closed_loop(
    server: &Arc<QueryServer>,
    cat: &[QueryRequest],
    cum: &[f64],
    clients: usize,
    total: usize,
    seed: u64,
) -> (f64, u64) {
    let completed = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let share = total / clients + usize::from(c < total % clients);
            let server = Arc::clone(server);
            let completed = &completed;
            scope.spawn(move || {
                let mut rng = Mix64(seed ^ (c as u64).wrapping_mul(0xA5A5_1234));
                for _ in 0..share {
                    let req = pick(cat, cum, &mut rng);
                    if server.submit(req, None).is_ok() {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    (t0.elapsed().as_secs_f64(), completed.into_inner())
}

fn main() {
    let smoke = std::env::var("IBIS_SERVE_SMOKE").is_ok_and(|v| v == "1");
    let n: usize = if smoke { 1 << 14 } else { 1 << 18 };
    let nsteps: usize = if smoke { 2 } else { 4 };
    let closed_total: usize = if smoke { 240 } else { 2400 };
    let open_per_client: usize = if smoke { 120 } else { 600 };
    let open_clients: usize = 8;
    let binner = Binner::fixed_width(0.0, 66.0, NBINS);

    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-serving-store");
    std::fs::remove_dir_all(&dir).ok();
    let mut w = StoreWriter::create(&dir).expect("create bench store");
    for step in 0..nsteps {
        let t = temperature(step, n);
        let s = salinity(&t);
        w.put(step, "temperature", &BitmapIndex::build(&t, binner.clone()))
            .expect("put temperature");
        w.put(step, "salinity", &BitmapIndex::build(&s, binner.clone()))
            .expect("put salinity");
    }
    w.finish().expect("finish bench store");

    let cat = catalog(nsteps);
    let cum = zipf_cum(cat.len());

    // --- phase 1: closed-loop fault-free baseline ---
    let server = Arc::new(
        QueryServer::start(open_engine(&dir), base_config()).expect("start baseline server"),
    );
    // warm the cache so the baseline measures the serving layer, not disk
    for req in &cat {
        server.submit(req, None).expect("warmup query");
    }
    server.take_latencies();
    let (wall, completed) = closed_loop(&server, &cat, &cum, 8, closed_total, 0xBA5E);
    let mut free_ns = server.take_latencies();
    free_ns.sort_unstable();
    let free_p50 = percentile_ms(&free_ns, 0.50);
    let free_p99 = percentile_ms(&free_ns, 0.99);
    let free_p999 = percentile_ms(&free_ns, 0.999);
    let free_stats = server.stats();
    println!(
        "serving: fault-free closed loop {completed} done in {wall:.2}s  p50 {free_p50:.3} ms  \
         p99 {free_p99:.3} ms  p999 {free_p999:.3} ms  (coalesced {})",
        free_stats.coalesce_hits
    );
    server.shutdown();

    // --- phase 2: saturation ramp ---
    let ramp_total = closed_total / 2;
    let mut saturation_qps = 0.0f64;
    let mut ramp = Vec::new();
    for clients in [1usize, 2, 4, 8, 16] {
        let server = Arc::new(
            QueryServer::start(open_engine(&dir), base_config()).expect("start ramp server"),
        );
        for req in &cat {
            server.submit(req, None).expect("ramp warmup");
        }
        let (wall, done) = closed_loop(
            &server,
            &cat,
            &cum,
            clients,
            ramp_total,
            0x5A7 + clients as u64,
        );
        let qps = done as f64 / wall.max(1e-9);
        saturation_qps = saturation_qps.max(qps);
        ramp.push(format!("{{\"clients\": {clients}, \"qps\": {qps:.0}}}"));
        server.shutdown();
    }
    println!("serving: saturation ramp max {saturation_qps:.0} req/s");

    // --- phase 3: open-loop overload + slow workers ---
    // Deadline ~3x the fault-free p99: admitted requests mechanically
    // finish within ~4x (dequeue re-check caps queue wait at the
    // deadline), anything slower becomes a typed deadline drop, and the
    // arrival surplus becomes typed sheds. Floor at 2 ms so the smoke
    // config doesn't set a sub-scheduler-tick budget.
    let deadline = Duration::from_secs_f64((3.0 * free_p99 / 1e3).max(2e-3));
    let mut faults = FaultPlan::none();
    let open_total = (open_clients * open_per_client) as u64;
    for op in (0..open_total * 2).step_by(SLOW_EVERY as usize) {
        faults = faults.with_slow_request(op, SLOW_MS);
    }
    let cfg = ServeConfig {
        // shed immediately when the queue is full: open-loop arrivals
        // should not stack up behind a blocking admission window
        admission_timeout: Duration::ZERO,
        faults,
        ..base_config()
    };
    let server =
        Arc::new(QueryServer::start(open_engine(&dir), cfg).expect("start overload server"));
    for req in &cat {
        server.submit(req, None).expect("overload warmup");
    }
    server.take_latencies();
    let warm_stats = server.stats();
    // Offered load must overwhelm the pool *after* coalescing: with the
    // zipf head mostly in flight, ~90% of arrivals coalesce, so only the
    // distinct-key tail reaches admission. 8 clients at this arrival
    // spacing push that tail well past the slow-fault-degraded worker
    // capacity (~1.5k req/s) — a sustained overload that must surface as
    // typed sheds, not a growing queue.
    let arrival = Duration::from_micros(if smoke { 200 } else { 300 });
    std::thread::scope(|scope| {
        for c in 0..open_clients {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                let mut rng = Mix64(0xF417 ^ (c as u64).wrapping_mul(0x77));
                let cat = catalog(nsteps);
                let cum = zipf_cum(cat.len());
                for _ in 0..open_per_client {
                    let req = pick(&cat, &cum, &mut rng);
                    // fire-and-forget: the ticket is dropped, the request
                    // still executes and resolves for coalesced peers
                    match server.submit_async(req, Some(deadline)) {
                        Ok(_) | Err(ServeError::Shed { .. }) | Err(ServeError::Deadline { .. }) => {
                        }
                        Err(e) => panic!("unexpected admission outcome: {e}"),
                    }
                    std::thread::sleep(arrival);
                }
            });
        }
    });
    // drain: every admitted leader resolves as ok/failed/deadline/panic
    loop {
        let st = server.stats();
        let settled = st.ok + st.failed + st.deadline_dequeue + st.deadline_execution
            - (warm_stats.ok + warm_stats.failed);
        if settled >= st.admitted - warm_stats.admitted && st.queue_depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut faulted_ns = server.take_latencies();
    faulted_ns.sort_unstable();
    let faulted_p50 = percentile_ms(&faulted_ns, 0.50);
    let faulted_p99 = percentile_ms(&faulted_ns, 0.99);
    let st = server.stats();
    let shed = st.shed;
    let deadline_drops = st.deadline_admission + st.deadline_dequeue + st.deadline_execution;
    let faulted_over = if free_p99 > 0.0 {
        faulted_p99 / free_p99
    } else {
        0.0
    };
    // What the deadline guarantees an admitted request: a queue wait the
    // dequeue re-check caps at the deadline, its own execution (one
    // fault-free p99) and one more p99 of slack. Where the 2 ms floor does
    // not bind this is 5x the fault-free p99; where it does, the floor
    // itself is what an admitted request may wait.
    let bound_ms = deadline.as_secs_f64() * 1e3 + 2.0 * free_p99;
    let within_bound = faulted_p99 <= bound_ms;
    let queue_peak = st.queue_peak;
    let mut queue_bound_respected = queue_peak <= QUEUE_CAP as u64;
    // The obs gauge is the zero-collapse witness: its max watermark over
    // the whole process (every phase uses the same capacity) must stay
    // within the configured bound.
    if ibis_obs::ENABLED {
        match ibis_obs::global().snapshot().get("serving.queue.depth") {
            Some(ibis_obs::MetricValue::Gauge { max, .. }) => {
                assert!(
                    *max <= QUEUE_CAP as i64,
                    "obs queue depth max {max} exceeded bound {QUEUE_CAP}"
                );
                queue_bound_respected &= *max <= QUEUE_CAP as i64;
            }
            other => panic!("serving.queue.depth gauge missing: {other:?}"),
        }
    }
    assert!(
        within_bound,
        "faulted p99 {faulted_p99:.3} ms exceeds the deadline's bound {bound_ms:.3} ms \
         (fault-free p99 {free_p99:.3} ms)"
    );
    assert!(shed > 0, "overload phase must shed (typed), got zero sheds");
    assert!(queue_bound_respected, "queue exceeded its configured bound");
    println!(
        "serving: overload p50 {faulted_p50:.3} ms  p99 {faulted_p99:.3} ms \
         ({faulted_over:.2}x fault-free, <= {bound_ms:.3} ms: {within_bound})  shed {shed}  \
         deadline {deadline_drops}  queue peak {queue_peak}/{QUEUE_CAP}"
    );
    server.shutdown();

    // --- phase 4: coalescing on a cold cache ---
    // The leader is slowed so all 8 arrivals overlap its execution: one
    // decode (one cache miss), 7 coalesce hits, 8 equal answers.
    let cfg = ServeConfig {
        faults: FaultPlan::none().with_slow_request(0, 100),
        ..base_config()
    };
    let server =
        Arc::new(QueryServer::start(open_engine(&dir), cfg).expect("start coalesce server"));
    let req = QueryRequest::Subset {
        step: 0,
        variable: "temperature".into(),
        query: SubsetQuery::value(5.0, 25.0),
    };
    let barrier = Arc::new(Barrier::new(8));
    let answers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                scope.spawn(move || {
                    barrier.wait();
                    server.submit(&req, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("joiner"))
            .collect()
    });
    let st = server.stats();
    let cache = server.engine().cache_stats();
    assert!(answers.iter().all(|a| a.is_ok() && *a == answers[0]));
    assert_eq!(cache.misses, 1, "thundering herd must decode exactly once");
    assert_eq!(
        (st.coalesce_leads, st.coalesce_hits),
        (1, 7),
        "8 identical queries: 1 leader + 7 coalesced"
    );
    println!(
        "serving: coalesce 8 identical cold queries -> {} decode, {} coalesce hits",
        cache.misses, st.coalesce_hits
    );
    server.shutdown();

    // --- phase 5: socket round-trip ---
    let server = Arc::new(
        QueryServer::start(open_engine(&dir), base_config()).expect("start socket server"),
    );
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").expect("bind socket");
    let addr = socket.local_addr();
    let frames: usize = if smoke { 60 } else { 400 };
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut rtt_ns: Vec<u64> = Vec::with_capacity(frames);
    let mut line = String::new();
    for i in 0..frames {
        let step = i % nsteps;
        let frame = format!(
            "{{\"queries\": [{{\"kind\": \"subset\", \"step\": {step}, \
             \"variable\": \"temperature\", \"value_range\": [10, 30]}}]}}"
        );
        let t0 = Instant::now();
        writeln!(writer, "{frame}").expect("send frame");
        line.clear();
        reader.read_line(&mut line).expect("read response");
        rtt_ns.push(t0.elapsed().as_nanos() as u64);
        assert!(line.contains("\"ok\""), "socket answer: {line}");
    }
    drop(writer);
    drop(reader);
    rtt_ns.sort_unstable();
    let socket_rtt_p50 = percentile_ms(&rtt_ns, 0.50);
    println!("serving: socket round-trip p50 {socket_rtt_p50:.3} ms over {frames} frames");
    socket.stop();
    server.shutdown();

    let samples = free_ns.len() + faulted_ns.len() + rtt_ns.len();
    let out = format!(
        "{{\n  \"workload\": \"zipf query mix, {n} elements/step, {nsteps} steps, {} catalog entries, \
         {WORKERS} workers, queue {QUEUE_CAP}\",\n  \
         \"samples\": {samples},\n  \
         \"fault_free_p50_ms\": {free_p50:.4},\n  \
         \"fault_free_p99_ms\": {free_p99:.4},\n  \
         \"fault_free_p999_ms\": {free_p999:.4},\n  \
         \"saturation_ramp\": [{}],\n  \
         \"saturation_qps\": {saturation_qps:.0},\n  \
         \"slow_worker_every\": {SLOW_EVERY},\n  \
         \"slow_worker_ms\": {SLOW_MS},\n  \
         \"deadline_ms\": {:.4},\n  \
         \"faulted_p50_ms\": {faulted_p50:.4},\n  \
         \"faulted_p99_ms\": {faulted_p99:.4},\n  \
         \"faulted_over_fault_free_p99\": {faulted_over:.3},\n  \
         \"faulted_p99_bound_ms\": {bound_ms:.4},\n  \
         \"faulted_p99_within_bound\": {within_bound},\n  \
         \"shed\": {shed},\n  \
         \"deadline_drops\": {deadline_drops},\n  \
         \"coalesce_hits\": 7,\n  \
         \"coalesce_decodes\": 1,\n  \
         \"queue_peak\": {queue_peak},\n  \
         \"queue_bound\": {QUEUE_CAP},\n  \
         \"queue_bound_respected\": {queue_bound_respected},\n  \
         \"socket_rtt_p50_ms\": {socket_rtt_p50:.4}\n}}\n",
        cat.len(),
        ramp.join(", "),
        deadline.as_secs_f64() * 1e3,
    );
    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_serving.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json")
    };
    std::fs::write(path, out).expect("write BENCH_serving report");
    std::fs::remove_dir_all(&dir).ok();
    println!("serving: wrote {path}");
}
