//! Integration tests for the query-serving layer against real run
//! directories: the adversarial query corpus (no input may panic the
//! engine — everything surfaces as a structured [`IbisError`], in both obs
//! configurations since this file runs under each), the out-of-range
//! region regression the panic-free rewrite exists for, and a
//! multi-threaded stress test of the sharded cache.

use ibis_analysis::{Metric, QueryError, SubsetQuery};
use ibis_core::{Binner, BitmapIndex, RowOrder};
use ibis_datagen::{OceanConfig, OceanModel};
use ibis_insitu::engine::parse_batch;
use ibis_insitu::{
    pipeline::pending_checkpoint, resume_durable, run_durable, CachedStore, CoreAllocation,
    FaultPlan, IbisError, MachineModel, PipelineConfig, QueryAnswer, QueryEngine, QueryRequest,
    Reduction, RobustnessConfig, ScalingModel, ShardedWriter, Store, StoreWriter, ORDER_VARIABLE,
};
use std::path::PathBuf;
use std::sync::Arc;

const N: usize = 4096;

fn field(step: usize, phase: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 7 + step * 13 + phase * 101) % 640) as f64 / 16.0)
        .collect()
}

/// Builds a real durable store: 3 steps × 2 variables.
fn build_store(name: &str) -> (PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("ibis-qe-{name}"));
    std::fs::remove_dir_all(&dir).ok();
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
    let (dir, store) = build_store("oob-region");
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
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adversarial_corpus_returns_structured_errors() {
    let (dir, store) = build_store("adversarial");
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
    std::fs::remove_dir_all(&dir).ok();

    // --- a CRC-valid exact blob whose bins are no partition: step 1's
    // temperature sets every row in two bins. Each query that reads it is
    // a per-query error; the rest of the batch answers ---
    let dir = std::env::temp_dir().join("ibis-qe-adversarial-overlap");
    std::fs::remove_dir_all(&dir).ok();
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
    std::fs::remove_dir_all(&dir).ok();
}

/// Same data as [`build_store`], stored under a non-identity row order
/// with the inverse permutation persisted per step.
fn build_reordered_store(name: &str, order: RowOrder) -> (PathBuf, Store) {
    let dir = std::env::temp_dir().join(format!("ibis-qe-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    let mut w = StoreWriter::create(&dir).unwrap();
    let binner = Binner::fixed_width(0.0, 40.0, 64);
    for step in [0usize, 4, 9] {
        // one permutation per step, derived from the first variable
        let p = order
            .permutation(&[], &binner, &field(step, 0))
            .expect("non-trivial data must yield a real permutation");
        for (phase, var) in ["temperature", "salinity"].iter().enumerate() {
            let idx = BitmapIndex::build_permuted(&field(step, phase), binner.clone(), &p);
            w.put(step, var, &idx).unwrap();
        }
        w.put_order(step, order, &p).unwrap();
    }
    w.finish().unwrap();
    let store = Store::open(&dir).unwrap();
    (dir, store)
}

#[test]
fn reordered_store_matches_identity_store_through_engine() {
    let (dir_i, store_i) = build_store("order-identity");
    let (dir_r, store_r) = build_reordered_store("order-graybin", RowOrder::GrayBin);
    let identity = QueryEngine::new(CachedStore::new(store_i, 64 << 20));
    let reordered = QueryEngine::new(CachedStore::new(store_r, 64 << 20));

    for step in [0usize, 4, 9] {
        // engine answers — value, region, and combined predicates, plus a
        // correlation — must be indistinguishable from the identity store
        let queries = [
            SubsetQuery::value(3.0, 17.0),
            SubsetQuery::region(100..2000),
            SubsetQuery::value(5.0, 30.0).with_region(7..3001),
        ];
        for (phase, var) in ["temperature", "salinity"].iter().enumerate() {
            let _ = phase;
            for q in &queries {
                let req = QueryRequest::Subset {
                    step,
                    variable: (*var).into(),
                    query: q.clone(),
                };
                assert_eq!(
                    reordered.run(&req).unwrap(),
                    identity.run(&req).unwrap(),
                    "step {step} {var} diverged"
                );
            }
        }
        let corr = QueryRequest::Correlation {
            step,
            var_a: "temperature".into(),
            var_b: "salinity".into(),
            query_a: SubsetQuery::value(2.0, 25.0),
            query_b: SubsetQuery::region(0..(N as u64 / 2)),
        };
        assert_eq!(reordered.run(&corr).unwrap(), identity.run(&corr).unwrap());

        // the answers came through the persisted order
        let loaded = reordered.shard_caches()[0]
            .get_order(step)
            .unwrap()
            .expect("order blob");
        assert_eq!(loaded.0, RowOrder::GrayBin);
    }
    std::fs::remove_dir_all(&dir_i).ok();
    std::fs::remove_dir_all(&dir_r).ok();
}

/// Builds a durable store like [`build_store`], split over `shards`
/// shards, plus a lossy superset companion for every `(step, variable)`,
/// and opens an engine over it with FPR ceiling `ceiling`.
fn lossy_engine(name: &str, shards: usize, fpr: f64, ceiling: f64) -> (PathBuf, QueryEngine) {
    let dir = std::env::temp_dir().join(format!("ibis-qe-{name}-k{shards}"));
    std::fs::remove_dir_all(&dir).ok();
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
fn lossy_filtered_engine_is_byte_identical_to_exact_engine() {
    let (dir_e, store_e) = build_store("lossy-oracle-exact");
    let exact = QueryEngine::new(CachedStore::new(store_e, 64 << 20));
    let queries = [
        SubsetQuery::value(3.0, 17.0),
        SubsetQuery::value(0.0, 40.0),
        SubsetQuery::value(39.9, 40.0),
        SubsetQuery::value(17.0, 3.0), // inverted → empty
        SubsetQuery::region(100..2000),
        SubsetQuery::value(5.0, 30.0).with_region(7..3001),
        SubsetQuery::value(12.25, 12.5).with_region(0..64),
    ];
    for shards in LOSSY_SHARDS {
        let (dir_l, lossy) = lossy_engine("lossy-oracle", shards, 1e-2, 1e-2);
        assert_eq!(lossy.lossy_fpr(), Some(1e-2));
        for step in [0usize, 4, 9] {
            for var in ["temperature", "salinity"] {
                for q in &queries {
                    let req = QueryRequest::Subset {
                        step,
                        variable: var.into(),
                        query: q.clone(),
                    };
                    assert_eq!(
                        lossy.run(&req).unwrap(),
                        exact.run(&req).unwrap(),
                        "k={shards} step {step} {var} {q:?} diverged"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir_l).ok();
    }
    std::fs::remove_dir_all(&dir_e).ok();
}

#[test]
fn empty_lossy_filter_skips_the_exact_load() {
    for shards in LOSSY_SHARDS {
        let (dir, engine) = lossy_engine("lossy-shortcircuit", shards, 1e-2, 1e-2);
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
        std::fs::remove_dir_all(&dir).ok();
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
            let (dir, engine) = lossy_engine("typed-errors", shards, 1e-2, ceiling);
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
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn self_correlation_reads_each_shard_once_and_answers_like_two_names() {
    for shards in LOSSY_SHARDS {
        let dir = std::env::temp_dir().join(format!("ibis-qe-selfcorr-k{shards}"));
        std::fs::remove_dir_all(&dir).ok();
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
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn lossy_engine_ignores_companions_above_its_fpr_ceiling() {
    for shards in LOSSY_SHARDS {
        // engine ceiling 1e-3 < stored 1e-1: the companions must be
        // ignored, every answer comes from the exact path
        let (dir, engine) = lossy_engine("lossy-ceiling", shards, 1e-1, 1e-3);
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
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reordered_durable_run_resumes_byte_identical_and_answers_like_identity() {
    let cfg = |row_order: RowOrder| PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 4,
        allocation: CoreAllocation::Shared,
        reduction: Reduction::Bitmaps,
        steps: 11,
        select_k: 4,
        metric: Metric::ConditionalEntropy,
        binners: Vec::new(),
        per_step_precision: Some(0),
        row_order,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    };
    let tmp = |name: &str| {
        let dir = std::env::temp_dir().join(format!("ibis-qe-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    let contents = |dir: &PathBuf| {
        let mut out = std::collections::BTreeMap::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            out.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            );
        }
        out
    };

    let clean_dir = tmp("ord-clean");
    let crash_dir = tmp("ord-crash");
    let ident_dir = tmp("ord-ident");
    let order = RowOrder::GrayBin;

    let clean = run_durable(
        OceanModel::new(OceanConfig::tiny()),
        &cfg(order),
        &clean_dir,
    )
    .unwrap();
    assert_eq!(clean.selected.len(), 4);
    // the reorder pass actually persisted inverse permutations
    assert!(
        contents(&clean_dir)
            .keys()
            .any(|f| f.contains(ORDER_VARIABLE)),
        "a sorting order must leave permutation blobs behind"
    );

    // killed mid-run, then resumed: byte-identical, order blobs included —
    // this crosses the checkpoint, which must carry buffered permutations
    let mut killed = cfg(order);
    killed.robustness.faults = FaultPlan::none().with_kill_at_step(6);
    let err = run_durable(OceanModel::new(OceanConfig::tiny()), &killed, &crash_dir).unwrap_err();
    assert_eq!(err, IbisError::Killed { step: 6 });
    assert!(pending_checkpoint(&crash_dir).is_some());
    let resumed = resume_durable(
        OceanModel::new(OceanConfig::tiny()),
        &cfg(order),
        &crash_dir,
    )
    .unwrap();
    assert_eq!(resumed.selected, clean.selected);
    assert_eq!(contents(&clean_dir), contents(&crash_dir));

    // and the reordered store answers exactly like an identity-order run
    let ident = run_durable(
        OceanModel::new(OceanConfig::tiny()),
        &cfg(RowOrder::Identity),
        &ident_dir,
    )
    .unwrap();
    assert_eq!(ident.selected, clean.selected);
    let reordered = QueryEngine::new(CachedStore::new(Store::open(&crash_dir).unwrap(), 64 << 20));
    let identity = QueryEngine::new(CachedStore::new(Store::open(&ident_dir).unwrap(), 64 << 20));
    for &step in &clean.selected {
        let vars: Vec<String> = identity.shard_caches()[0]
            .store()
            .variables(step)
            .iter()
            .map(|v| v.to_string())
            .collect();
        for var in &vars {
            let n = identity.shard_caches()[0]
                .get(var, step)
                .unwrap()
                .low()
                .len();
            for q in [
                SubsetQuery::value(1.0, 20.0),
                SubsetQuery::region(0..n / 2),
                SubsetQuery::value(3.0, 40.0).with_region(n / 4..n - 1),
            ] {
                let req = QueryRequest::Subset {
                    step,
                    variable: var.clone(),
                    query: q,
                };
                assert_eq!(
                    reordered.run(&req).unwrap(),
                    identity.run(&req).unwrap(),
                    "step {step} {var}"
                );
            }
        }
    }

    for d in [&clean_dir, &crash_dir, &ident_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn empty_store_rejects_queries_cleanly() {
    let dir = std::env::temp_dir().join("ibis-qe-empty");
    std::fs::remove_dir_all(&dir).ok();
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
    std::fs::remove_dir_all(&dir).ok();
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
    std::fs::remove_dir_all(&dir).ok();
}
