//! Integration tests for the query-serving layer against real run
//! directories: the adversarial query corpus (no input may panic the
//! engine — everything surfaces as a structured [`IbisError`], in both obs
//! configurations since this file runs under each), the out-of-range
//! region regression the panic-free rewrite exists for, and a
//! multi-threaded stress test of the sharded cache.

use ibis_analysis::{QueryError, SubsetQuery};
use ibis_core::{Binner, BitmapIndex};
use ibis_insitu::engine::parse_batch;
use ibis_insitu::{
    CachedStore, IbisError, QueryAnswer, QueryEngine, QueryRequest, ShardedWriter, Store,
    StoreWriter,
};
use ibis_testkit::TempDir;
use std::sync::Arc;

const N: usize = 4096;

fn field(step: usize, phase: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 7 + step * 13 + phase * 101) % 640) as f64 / 16.0)
        .collect()
}

/// Builds a real durable store: 3 steps × 2 variables.
fn build_store(name: &str) -> (TempDir, Store) {
    let dir = TempDir::new(name);
    let mut w = StoreWriter::create(&dir).unwrap();
    for step in [0usize, 4, 9] {
        for (phase, var) in ["temperature", "salinity"].iter().enumerate() {
            let idx = BitmapIndex::build(&field(step, phase), Binner::fixed_width(0.0, 40.0, 64));
            w.put(step, var, &idx).unwrap();
        }
    }
    w.finish().unwrap();
    let store = Store::open(&dir).unwrap();
    (dir, store)
}

#[test]
fn out_of_range_region_on_live_store_is_err_not_panic() {
    let (_dir, store) = build_store("oob-region");
    let engine = QueryEngine::new(CachedStore::new(store, 64 << 20));
    let err = engine
        .run(&QueryRequest::Subset {
            step: 0,
            variable: "temperature".into(),
            query: SubsetQuery::region(0..(N as u64) * 10),
        })
        .unwrap_err();
    match err {
        IbisError::Query(QueryError::RegionOutOfRange { start, end, len }) => {
            assert_eq!((start, end, len), (0, N as u64 * 10, N as u64));
        }
        other => panic!("expected RegionOutOfRange, got {other}"),
    }
}

#[test]
fn adversarial_corpus_returns_structured_errors() {
    let (_dir, store) = build_store("adversarial");
    let engine = QueryEngine::new(CachedStore::new(store, 64 << 20));

    // --- typed API corpus: NaN bounds (inexpressible in strict JSON) ---
    for (lo, hi) in [(f64::NAN, 5.0), (5.0, f64::NAN), (f64::NAN, f64::NAN)] {
        let err = engine
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(lo, hi),
            })
            .unwrap_err();
        assert!(matches!(err, IbisError::Query(QueryError::NanBound { .. })));
    }
    // inverted / empty value intervals are NOT errors: empty selections
    for (lo, hi) in [(9.0, 3.0), (7.0, 7.0)] {
        let ans = engine
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(lo, hi),
            })
            .unwrap();
        assert_eq!(
            ans,
            QueryAnswer::Subset {
                selected: 0,
                of: N as u64
            }
        );
    }
    // unknown variable / step
    for (step, var) in [(0usize, "vorticity"), (3, "temperature")] {
        let err = engine
            .run(&QueryRequest::Subset {
                step,
                variable: var.into(),
                query: SubsetQuery::all(),
            })
            .unwrap_err();
        assert!(matches!(err, IbisError::NotFound { .. }), "{err}");
    }

    // --- JSON batch corpus: every document either parses or errors ---
    let corpus: &[&str] = &[
        "",
        "\u{0}\u{1}\u{2}",
        "{\"queries\": [",
        "{\"queries\": {}}",
        "[1,2,3]",
        r#"{"queries": [{"kind": "subset", "variable": 7}]}"#,
        r#"{"queries": [{"kind": "subset", "variable": "temperature", "value_range": [1e400, 2]}]}"#,
        r#"{"queries": [{"kind": "subset", "variable": "temperature", "region": [2, 1e300]}]}"#,
        r#"{"queries": [{"kind": "correlation", "var_a": "temperature", "var_b": "salinity", "step": 99999999}]}"#,
        r#"{"queries": [{"kind": "subset", "variable": "temperature", "region": [4096, 0]}]}"#,
    ];
    for doc in corpus {
        // must never panic; a top-level Err must be BadRequest
        match engine.run_batch_json(doc) {
            Ok(answers) => assert!(answers.starts_with("{\"answers\""), "{doc:?}"),
            Err(IbisError::BadRequest { .. }) => {}
            Err(other) => panic!("{doc:?} → unexpected error class {other}"),
        }
    }
    // deep nesting is bounded, not a stack overflow
    let deep = format!("{{\"queries\": {}1{}}}", "[".repeat(500), "]".repeat(500));
    assert!(matches!(
        parse_batch(&deep),
        Err(IbisError::BadRequest { .. })
    ));

    // an inverted region *through the JSON protocol* is a per-query error,
    // inline, and the rest of the batch still answers
    let out = engine
        .run_batch_json(
            r#"{"queries": [
                {"kind": "subset", "variable": "temperature", "region": [4000, 100]},
                {"kind": "subset", "variable": "temperature"}
            ]}"#,
        )
        .unwrap();
    assert!(out.contains("\"error\""), "{out}");
    assert!(out.contains(&format!("\"selected\": {N}")), "{out}");

    // --- a CRC-valid exact blob whose bins are no partition: step 1's
    // temperature sets every row in two bins. Each query that reads it is
    // a per-query error; the rest of the batch answers ---
    let dir = TempDir::new("adversarial-overlap");
    let mut w = StoreWriter::create(&dir).unwrap();
    let binner = Binner::fixed_width(0.0, 40.0, 64);
    let mut bins = vec![ibis_core::WahVec::zeros(N as u64); 64];
    bins[3] = ibis_core::WahVec::ones(N as u64);
    bins[9] = ibis_core::WahVec::ones(N as u64);
    w.put(
        1,
        "temperature",
        &BitmapIndex::from_bins(binner.clone(), bins),
    )
    .unwrap();
    w.put(1, "salinity", &BitmapIndex::build(&field(1, 1), binner))
        .unwrap();
    w.finish().unwrap();
    let engine = QueryEngine::new(CachedStore::new(Store::open(&dir).unwrap(), 64 << 20));
    let out = engine
        .run_batch_json(
            r#"{"queries": [
                {"kind": "subset", "step": 1, "variable": "temperature", "value_range": [0, 10]},
                {"kind": "correlation", "step": 1, "var_a": "salinity", "var_b": "temperature"},
                {"kind": "subset", "step": 1, "variable": "salinity"}
            ]}"#,
        )
        .unwrap();
    assert_eq!(out.matches("not a partition").count(), 2, "{out}");
    assert!(out.contains(&format!("\"selected\": {N}")), "{out}");
}

/// Builds a durable store like [`build_store`], split over `shards`
/// shards, plus a lossy superset companion for every `(step, variable)`,
/// and opens an engine over it with FPR ceiling `ceiling`.
fn lossy_engine(name: &str, shards: usize, fpr: f64, ceiling: f64) -> (TempDir, QueryEngine) {
    let dir = TempDir::new(&format!("{name}-k{shards}"));
    let mut w = ShardedWriter::create(&dir, shards).unwrap();
    for step in [0usize, 4, 9] {
        for (phase, var) in ["temperature", "salinity"].iter().enumerate() {
            let idx = BitmapIndex::build(&field(step, phase), Binner::fixed_width(0.0, 40.0, 64));
            w.put(step, var, &idx).unwrap();
            w.put_lossy(step, var, &idx, fpr).unwrap();
        }
    }
    w.finish().unwrap();
    let engine = QueryEngine::open(&dir, 64 << 20)
        .unwrap()
        .with_lossy_fpr(ceiling);
    (dir, engine)
}

/// The shard counts the lossy tests run over: the flat store and a
/// sharded one.
const LOSSY_SHARDS: [usize; 2] = [1, 4];

#[test]
fn empty_lossy_filter_skips_the_exact_load() {
    for shards in LOSSY_SHARDS {
        let (_dir, engine) = lossy_engine("lossy-shortcircuit", shards, 1e-2, 1e-2);
        // a predicate no row can match: every shard's companion proves
        // its share of the answer empty
        let answer = engine
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(17.0, 3.0), // inverted → empty
            })
            .unwrap();
        assert_eq!(
            answer,
            QueryAnswer::Subset {
                selected: 0,
                of: N as u64
            }
        );
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "k={shards}: exact index must never be loaded for a provably-empty answer"
        );
        // a matching predicate then loads each shard's exact index
        // exactly once
        engine
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(3.0, 17.0),
            })
            .unwrap();
        assert_eq!(engine.cache_stats().misses, shards as u64);
    }
}

/// The counting path keeps the materialising path's failures: the same
/// variant and the same message for every malformed subset query, on the
/// exact engine and behind the lossy probe, flat and sharded — and an
/// expired deadline still stops before the exact load.
#[test]
fn malformed_subset_queries_keep_their_typed_errors_and_messages() {
    let subset = |step: usize, var: &str, query: SubsetQuery| QueryRequest::Subset {
        step,
        variable: var.into(),
        query,
    };
    #[allow(clippy::reversed_empty_ranges)]
    let corpus = [
        (
            subset(0, "temperature", SubsetQuery::value(f64::NAN, 5.0)),
            "invalid query: value range [NaN, 5) has a NaN bound",
        ),
        (
            subset(
                0,
                "temperature",
                SubsetQuery::value(1.0, f64::NAN).with_region(0..64),
            ),
            "invalid query: value range [1, NaN) has a NaN bound",
        ),
        (
            subset(
                4,
                "salinity",
                SubsetQuery::value(2.0, 9.0).with_region(4000..100),
            ),
            "invalid query: region 4000..100 out of range for 4096 positions",
        ),
        (
            subset(0, "temperature", SubsetQuery::region(0..4097)),
            "invalid query: region 0..4097 out of range for 4096 positions",
        ),
        (
            subset(0, "vorticity", SubsetQuery::value(2.0, 9.0)),
            "no entry for step 0 variable \"vorticity\"",
        ),
        (
            subset(3, "temperature", SubsetQuery::all()),
            "no entry for step 3 variable \"temperature\"",
        ),
    ];
    for shards in LOSSY_SHARDS {
        for ceiling in [0.0, 1e-2] {
            let (_dir, engine) = lossy_engine("typed-errors", shards, 1e-2, ceiling);
            for (request, message) in &corpus {
                let err = engine.run(request).unwrap_err();
                assert_eq!(&err.to_string(), message, "k={shards} ceiling={ceiling}");
                let typed = matches!(
                    &err,
                    IbisError::NotFound { .. }
                        | IbisError::Query(QueryError::NanBound { .. })
                        | IbisError::Query(QueryError::RegionOutOfRange { len: 4096, .. })
                );
                assert!(typed, "{err:?}");
            }
            // nothing above decoded an exact index it did not need: a
            // region error is raised before any shard is visited, and a
            // NaN bound by the probe when there is one
            let past = std::time::Instant::now() - std::time::Duration::from_millis(5);
            let fresh = subset(
                9,
                "salinity",
                SubsetQuery::value(3.0, 17.0).with_region(7..3001),
            );
            let misses = engine.cache_stats().misses;
            let err = engine.run_with_deadline(&fresh, Some(past)).unwrap_err();
            assert!(
                matches!(&err, IbisError::DeadlineExceeded { site, .. } if site == "shard load"),
                "k={shards} ceiling={ceiling}: {err}"
            );
            assert_eq!(
                engine.cache_stats().misses,
                misses,
                "expired before the load"
            );
        }
    }
}

#[test]
fn self_correlation_reads_each_shard_once_and_answers_like_two_names() {
    for shards in LOSSY_SHARDS {
        let dir = TempDir::new(&format!("selfcorr-k{shards}"));
        let mut w = ShardedWriter::create(&dir, shards).unwrap();
        let idx = BitmapIndex::build(&field(0, 0), Binner::fixed_width(0.0, 40.0, 64));
        for var in ["temperature", "twin"] {
            w.put(0, var, &idx).unwrap();
        }
        w.finish().unwrap();
        let engine = QueryEngine::open(&dir, 64 << 20).unwrap();
        let request = |var_b: &str| QueryRequest::Correlation {
            step: 0,
            var_a: "temperature".into(),
            var_b: var_b.into(),
            query_a: SubsetQuery::value(3.0, 30.0).with_region(100..4000),
            query_b: SubsetQuery::value(10.0, 36.0),
        };
        let reads = || {
            let stats = engine.cache_stats();
            stats.hits + stats.misses
        };
        // cold (the layout decodes) and warm (the cache serves): one read
        // per shard either way, not one per operand
        let cold = engine.run(&request("temperature")).unwrap();
        assert_eq!(reads(), shards as u64, "k={shards} cold");
        assert_eq!(engine.run(&request("temperature")).unwrap(), cold);
        assert_eq!(reads(), 2 * shards as u64, "k={shards} warm");
        // the same bitmaps under a second name take the two-operand path
        assert_eq!(engine.run(&request("twin")).unwrap(), cold, "k={shards}");
        assert_eq!(reads(), 4 * shards as u64, "k={shards} two names");
    }
}

#[test]
fn lossy_engine_ignores_companions_above_its_fpr_ceiling() {
    for shards in LOSSY_SHARDS {
        // engine ceiling 1e-3 < stored 1e-1: the companions must be
        // ignored, every answer comes from the exact path
        let (_dir, engine) = lossy_engine("lossy-ceiling", shards, 1e-1, 1e-3);
        engine
            .run(&QueryRequest::Subset {
                step: 0,
                variable: "temperature".into(),
                query: SubsetQuery::value(-10.0, -5.0),
            })
            .unwrap();
        assert_eq!(
            engine.cache_stats().misses,
            shards as u64,
            "k={shards}: an over-ceiling companion must not filter"
        );
    }
}

#[test]
fn empty_store_rejects_queries_cleanly() {
    let dir = TempDir::new("empty");
    let w = StoreWriter::create(&dir).unwrap();
    w.finish().unwrap();
    let store = Store::open(&dir).unwrap();
    assert!(store.steps().is_empty());
    let engine = QueryEngine::new(CachedStore::new(store, 1 << 20));
    let err = engine
        .run(&QueryRequest::Subset {
            step: 0,
            variable: "temperature".into(),
            query: SubsetQuery::all(),
        })
        .unwrap_err();
    assert!(matches!(err, IbisError::NotFound { .. }));
}

#[test]
fn concurrent_readers_share_one_cache_safely() {
    let (dir, store) = build_store("stress");
    // tiny budget on few shards so eviction churns *while* readers race
    let one = CachedStore::new(Store::open(&dir).unwrap(), u64::MAX)
        .get("temperature", 0)
        .unwrap()
        .low()
        .size_bytes() as u64;
    let engine = Arc::new(QueryEngine::new(CachedStore::with_shards(
        store,
        3 * one,
        2,
    )));

    let nthreads = 8;
    let rounds = 40;
    let handles: Vec<_> = (0..nthreads)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let step = [0usize, 4, 9][(t + r) % 3];
                    let (lo, hi) = (1.0 + (r % 7) as f64, 30.0 + (t % 5) as f64);
                    let ans = engine
                        .run(&QueryRequest::Correlation {
                            step,
                            var_a: "temperature".into(),
                            var_b: "salinity".into(),
                            query_a: SubsetQuery::value(lo, hi),
                            query_b: SubsetQuery::region(0..(N as u64 / 2)),
                        })
                        .unwrap();
                    let QueryAnswer::Correlation(c) = ans else {
                        panic!("wrong answer kind")
                    };
                    assert!(c.mutual_information.is_finite());
                    // malformed queries from racing threads stay contained
                    let inverted = std::ops::Range {
                        start: 1u64,
                        end: 0u64,
                    };
                    let err = engine
                        .run(&QueryRequest::Subset {
                            step,
                            variable: "temperature".into(),
                            query: SubsetQuery::region(inverted),
                        })
                        .unwrap_err();
                    assert!(matches!(err, IbisError::Query(_)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no reader thread may panic");
    }

    // every thread's answers agree with a cold, uncached engine
    let cold = QueryEngine::new(CachedStore::new(Store::open(&dir).unwrap(), u64::MAX));
    let probe = QueryRequest::Correlation {
        step: 4,
        var_a: "temperature".into(),
        var_b: "salinity".into(),
        query_a: SubsetQuery::value(1.0, 30.0),
        query_b: SubsetQuery::region(0..(N as u64 / 2)),
    };
    assert_eq!(engine.run(&probe).unwrap(), cold.run(&probe).unwrap());

    let st = engine.cache_stats();
    let total = st.hits + st.misses;
    // 2 cache reads per round — the correlation's; the subset's region is
    // rejected before any fetch — plus 2 for the final probe
    assert_eq!(
        total,
        (nthreads * rounds * 2 + 2) as u64,
        "every cache access accounted for: {st:?}"
    );
    assert!(st.evictions > 0, "tiny budget must churn: {st:?}");
}
