//! Overload-safe serving: the adversarial socket-protocol suite plus the
//! fault-injected behavioral guarantees of `QueryServer`.
//!
//! What is pinned here:
//! * the TCP front end answers every well-formed frame on a connection —
//!   frames split across arbitrary writes, frames packed several per
//!   write, trailing garbage, oversized lines, mid-request disconnects,
//!   and stalled clients never panic the server or wedge its workers;
//! * a thundering herd of identical queries against a cold cache decodes
//!   exactly once (exact `query.cache.miss` + coalesce accounting across
//!   8 threads);
//! * the same `FaultPlan` seed on the serving path produces an identical
//!   shed/deadline/failure report — the PR 2 determinism guarantee
//!   extended to serving;
//! * a worker death poisons only its in-flight request, the pool
//!   respawns, and the admission queue never exceeds its bound.

use ibis_analysis::SubsetQuery;
use ibis_core::{Binner, BitmapIndex};
use ibis_insitu::fault::INJECTED_PANIC_PREFIX;
use ibis_insitu::{
    CachedStore, DeadlineStage, FaultPlan, QueryEngine, QueryRequest, QueryServer, ServeConfig,
    ServeError, SocketServer, Store, StoreWriter,
};
use ibis_testkit::TempDir;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn make_store(name: &str) -> (TempDir, Store) {
    let dir = TempDir::new(&format!("serving-test-{name}"));
    let mut w = StoreWriter::create(&dir).unwrap();
    for step in [0usize, 1] {
        let temp: Vec<f64> = (0..3000)
            .map(|i| ((i * 7 + step * 13) % 300) as f64 / 10.0)
            .collect();
        let salt: Vec<f64> = temp.iter().map(|t| 30.0 + t / 10.0).collect();
        w.put(
            step,
            "temperature",
            &BitmapIndex::build(&temp, Binner::fixed_width(0.0, 30.0, 64)),
        )
        .unwrap();
        w.put(
            step,
            "salinity",
            &BitmapIndex::build(&salt, Binner::fixed_width(29.0, 34.0, 64)),
        )
        .unwrap();
    }
    w.finish().unwrap();
    let store = Store::open(&dir).unwrap();
    (dir, store)
}

fn start(store: Store, cfg: ServeConfig) -> Arc<QueryServer> {
    Arc::new(QueryServer::start(QueryEngine::new(CachedStore::new(store, 64 << 20)), cfg).unwrap())
}

/// A family of distinct subset requests (distinct value windows), so
/// tests control exactly which submissions coalesce.
fn subset(i: u32) -> QueryRequest {
    let lo = f64::from(i) * 0.01;
    QueryRequest::Subset {
        step: 0,
        variable: "temperature".into(),
        query: SubsetQuery::value(lo, lo + 9.0),
    }
}

fn send_all(stream: &mut TcpStream, bytes: &[u8]) {
    stream.write_all(bytes).unwrap();
    stream.flush().unwrap();
}

const FRAME: &str =
    r#"{"queries": [{"kind": "subset", "variable": "temperature", "value_range": [5, 20]}]}"#;

// ---------------------------------------------------------------------
// adversarial socket-protocol suite
// ---------------------------------------------------------------------

#[test]
fn socket_answers_frames_split_and_packed_arbitrarily() {
    let (_dir, store) = make_store("split");
    let server = start(store, ServeConfig::default());
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // one frame dribbled in three writes with pauses between them
    let line = format!("{FRAME}\n");
    let bytes = line.as_bytes();
    for chunk in [&bytes[..10], &bytes[10..40], &bytes[40..]] {
        send_all(&mut stream, chunk);
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "split frame: {resp}");

    // two frames packed into a single write, answered in order
    send_all(&mut stream, format!("{FRAME}\n{FRAME}\n").as_bytes());
    for _ in 0..2 {
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\""), "packed frames: {resp}");
    }

    // a frame followed by trailing garbage (no newline) — the frame is
    // answered, the garbage is dropped with the disconnect
    send_all(&mut stream, format!("{FRAME}\n{{\"queries").as_bytes());
    resp.clear();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "frame before garbage: {resp}");
    drop(stream);
    drop(reader);

    // the server is still fine for the next connection
    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_all(&mut stream, format!("{FRAME}\n").as_bytes());
    resp.clear();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "post-garbage connection: {resp}");

    socket.stop();
    server.shutdown();
}

#[test]
fn socket_rejects_garbage_lines_but_keeps_serving_the_connection() {
    let (_dir, store) = make_store("garbage");
    let server = start(store, ServeConfig::default());
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    for garbage in [
        "this is not json",
        "{\"queries\": 7}",
        "[1, 2, 3]",
        "\u{1F980}\u{1F980}\u{1F980}",
    ] {
        send_all(&mut stream, format!("{garbage}\n").as_bytes());
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(
            resp.contains("\"kind\": \"bad_request\""),
            "garbage {garbage:?}: {resp}"
        );
        // the same connection still answers a well-formed frame
        send_all(&mut stream, format!("{FRAME}\n").as_bytes());
        resp.clear();
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("\"ok\""), "after garbage {garbage:?}: {resp}");
    }

    socket.stop();
    server.shutdown();
}

#[test]
fn socket_closes_connections_that_exceed_the_frame_size_cap() {
    let (_dir, store) = make_store("oversize");
    let cfg = ServeConfig {
        max_frame_bytes: 256,
        ..ServeConfig::default()
    };
    let server = start(store, cfg);
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // an endless line: the server must give up at the cap, answer with a
    // typed error, and close — not buffer without bound
    send_all(&mut stream, &b"x".repeat(4096));
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(
        resp.contains("\"kind\": \"bad_request\"") && resp.contains("exceeds"),
        "oversized line: {resp}"
    );
    resp.clear();
    assert_eq!(reader.read_line(&mut resp).unwrap(), 0, "must be closed");

    // fresh connections are unaffected
    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_all(&mut stream, format!("{FRAME}\n").as_bytes());
    resp.clear();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "post-oversize connection: {resp}");

    socket.stop();
    server.shutdown();
}

#[test]
fn socket_survives_mid_request_disconnects() {
    let (_dir, store) = make_store("disconnect");
    let server = start(store, ServeConfig::default());
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();

    // several clients hang up mid-frame
    for cut in [1usize, 17, 40] {
        let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
        send_all(&mut stream, &FRAME.as_bytes()[..cut]);
        drop(stream);
    }
    // ...and the server still answers the next well-formed request
    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_all(&mut stream, format!("{FRAME}\n").as_bytes());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "after disconnects: {resp}");

    socket.stop();
    server.shutdown();
}

#[test]
fn injected_stalled_client_is_reaped_while_others_are_served() {
    let (_dir, store) = make_store("stall");
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(200),
        faults: FaultPlan::none().with_stalled_client(0),
        ..ServeConfig::default()
    };
    let server = start(store, cfg);
    let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();

    // connection 0 is the injected stall: its frame gets no answer and
    // the read timeout eventually closes it
    let mut stalled = TcpStream::connect(socket.local_addr()).unwrap();
    send_all(&mut stalled, format!("{FRAME}\n").as_bytes());

    // a healthy connection is served while the stalled one is pending
    let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    send_all(&mut stream, format!("{FRAME}\n").as_bytes());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    assert!(resp.contains("\"ok\""), "healthy conn during stall: {resp}");

    // the stalled connection is reaped without an answer: either a clean
    // EOF or a reset (the server closed with our unread frame pending)
    let mut buf = Vec::new();
    match stalled.read_to_end(&mut buf) {
        Ok(_) => assert!(buf.is_empty(), "stalled conn must get no answer: {buf:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(server
        .fault_events()
        .iter()
        .any(|e| e.contains("injected stalled client")));

    socket.stop();
    server.shutdown();
}

// ---------------------------------------------------------------------
// coalescing
// ---------------------------------------------------------------------

#[test]
fn thundering_herd_on_a_cold_cache_decodes_exactly_once() {
    let (_dir, store) = make_store("coalesce");
    // slow the leader so all followers overlap its execution window
    let cfg = ServeConfig {
        faults: FaultPlan::none().with_slow_request(0, 150),
        ..ServeConfig::default()
    };
    let server = start(store, cfg);
    let req = subset(3);
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
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(answers.iter().all(Result::is_ok));
    assert!(
        answers.iter().all(|a| *a == answers[0]),
        "fanned-out answers must be identical"
    );
    let cache = server.engine().cache_stats();
    let stats = server.stats();
    assert_eq!(
        cache.misses, 1,
        "8 identical cold queries must decode exactly once: {cache:?}"
    );
    assert_eq!(
        (stats.coalesce_leads, stats.coalesce_hits, stats.admitted),
        (1, 7, 1),
        "one leader, seven followers: {stats:?}"
    );

    server.shutdown();
}

// ---------------------------------------------------------------------
// fault determinism + containment
// ---------------------------------------------------------------------

/// Stable tag for an outcome, for cross-run comparison.
fn tag(outcome: &Result<ibis_insitu::QueryAnswer, ServeError>) -> String {
    match outcome {
        Ok(_) => "ok".into(),
        Err(ServeError::Shed { .. }) => "shed".into(),
        Err(ServeError::Deadline { stage }) => format!("deadline:{}", stage.name()),
        Err(ServeError::WorkerPanic { .. }) => "panic".into(),
        Err(ServeError::Closed) => "closed".into(),
        Err(ServeError::Query(e)) => format!("query:{e}"),
    }
}

#[test]
fn same_fault_seed_gives_an_identical_serving_report() {
    let run = |seed: u64| {
        let (_dir, store) = make_store(&format!("seed{seed}"));
        let cfg = ServeConfig {
            workers: 2,
            faults: FaultPlan::seeded_serving(seed, 40),
            ..ServeConfig::default()
        };
        let server = start(store, cfg);
        // serial driver: op order (and thus which requests hit which
        // injected fault) is fully deterministic
        let outcomes: Vec<String> = (0..40)
            .map(|i| tag(&server.submit(&subset(i), None)))
            .collect();
        let stats = server.stats();
        let events = server.fault_events();
        server.shutdown();
        (outcomes, stats, events)
    };
    for seed in [7u64, 23, 1234] {
        let (o1, s1, e1) = run(seed);
        let (o2, s2, e2) = run(seed);
        assert_eq!(o1, o2, "seed {seed}: outcome report diverged");
        assert_eq!(s1, s2, "seed {seed}: stats diverged");
        assert_eq!(e1, e2, "seed {seed}: fault event log diverged");
        assert!(
            !e1.is_empty(),
            "seed {seed}: seeded serving plans always inject something"
        );
    }
}

#[test]
fn scripted_overload_burst_is_fully_deterministic() {
    let run = || {
        let (_dir, store) = make_store("burst");
        let cfg = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            admission_timeout: Duration::ZERO,
            // request op 0 occupies the only worker for 300 ms
            faults: FaultPlan::none().with_slow_request(0, 300),
            ..ServeConfig::default()
        };
        let server = start(store, cfg);
        // op 0: admitted and dequeued by the lone worker, then slowed
        let blocker = server.submit_async(&subset(0), None).unwrap();
        let t0 = Instant::now();
        while !(server.stats().admitted == 1 && server.stats().queue_depth == 0) {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "worker never dequeued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // two queued requests with a budget far shorter than the block:
        // both must be dropped at dequeue, not executed
        let q1 = server
            .submit_async(&subset(1), Some(Duration::from_millis(40)))
            .unwrap();
        let q2 = server
            .submit_async(&subset(2), Some(Duration::from_millis(40)))
            .unwrap();
        // the queue (capacity 2) is now full: further distinct requests
        // shed immediately and carry a retry hint
        let mut sheds = Vec::new();
        for i in [3u32, 4] {
            match server.submit_async(&subset(i), None) {
                Err(ServeError::Shed { retry_after_ms }) => sheds.push(retry_after_ms),
                other => panic!("expected shed, got {other:?}"),
            }
        }
        // let the worker drain the queue (its dequeue check drops both
        // expired jobs), so the tickets below read settled outcomes
        let t1 = Instant::now();
        while server.stats().ok + server.stats().deadline_dequeue < 3 {
            assert!(t1.elapsed() < Duration::from_secs(5), "burst never settled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = vec![
            tag(&blocker.wait()),
            tag(&q1.wait()),
            tag(&q2.wait()),
            format!("sheds:{}", sheds.len()),
        ];
        let stats = server.stats();
        server.shutdown();
        (report, stats)
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(
        r1,
        vec![
            "ok".to_string(),
            "deadline:dequeue".to_string(),
            "deadline:dequeue".to_string(),
            "sheds:2".to_string(),
        ]
    );
    assert_eq!(r1, r2, "scripted burst report diverged");
    assert_eq!(
        (s1.admitted, s1.shed, s1.deadline_dequeue, s1.ok),
        (3, 2, 2, 1)
    );
    assert_eq!(
        (s1.admitted, s1.shed, s1.deadline_dequeue, s1.ok),
        (s2.admitted, s2.shed, s2.deadline_dequeue, s2.ok)
    );
}

#[test]
fn worker_death_poisons_only_its_request_and_the_pool_respawns() {
    let (_dir, store) = make_store("death");
    let cfg = ServeConfig {
        workers: 2,
        faults: FaultPlan::none().with_worker_death_at(0),
        ..ServeConfig::default()
    };
    let server = start(store, cfg);

    let doomed = server.submit(&subset(0), None);
    let Err(ServeError::WorkerPanic { message }) = doomed else {
        panic!("request op 0 must be poisoned by the worker death, got {doomed:?}");
    };
    assert!(
        message.contains(INJECTED_PANIC_PREFIX),
        "panic message must carry the injected marker: {message}"
    );

    // the pool respawned: every subsequent request is served normally
    for i in 1..=8 {
        assert!(
            server.submit(&subset(i), None).is_ok(),
            "request {i} after death"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_respawns, 1);
    assert_eq!(stats.ok, 8);
    assert!(server
        .fault_events()
        .iter()
        .any(|e| e.contains("injected worker death")));

    server.shutdown();
}

// ---------------------------------------------------------------------
// deadlines + queue bound
// ---------------------------------------------------------------------

#[test]
fn deadlines_surface_with_their_stage() {
    let (_dir, store) = make_store("stages");
    let cfg = ServeConfig {
        workers: 1,
        faults: FaultPlan::none().with_slow_request(1, 400),
        ..ServeConfig::default()
    };
    let server = start(store, cfg);
    // warm the path so op numbering below is exact
    assert!(server.submit(&subset(0), None).is_ok());

    // admission: a zero budget is dead on arrival
    assert_eq!(
        server.submit(&subset(1), Some(Duration::ZERO)),
        Err(ServeError::Deadline {
            stage: DeadlineStage::Admission
        })
    );

    // wait: the caller gives up while the slowed worker still runs; the
    // leader itself is then dropped at the engine's deadline check
    let err = server
        .submit(&subset(2), Some(Duration::from_millis(60)))
        .unwrap_err();
    assert_eq!(
        err,
        ServeError::Deadline {
            stage: DeadlineStage::Wait
        }
    );

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.deadline_admission, 1);
    assert!(
        stats.deadline_execution <= 1,
        "slowed leader resolves as at most one execution drop: {stats:?}"
    );
}

#[test]
fn queue_occupancy_never_exceeds_the_configured_bound() {
    let (_dir, store) = make_store("bound");
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 4,
        admission_timeout: Duration::from_millis(1),
        ..ServeConfig::default()
    };
    let server = start(store, cfg);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let server = Arc::clone(&server);
            scope.spawn(move || {
                for i in 0..50u32 {
                    // distinct requests so coalescing can't mask pressure
                    let _ = server.submit_async(&subset(t * 50 + i), None);
                }
            });
        }
    });
    // drain, then check the high-water mark
    let t0 = Instant::now();
    while server.stats().queue_depth > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "queue never drained"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = server.stats();
    assert!(
        stats.queue_peak <= 4,
        "queue peak {} exceeded bound 4",
        stats.queue_peak
    );
    assert!(stats.admitted > 0);
    server.shutdown();
}
