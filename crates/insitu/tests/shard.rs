//! Integration tests for the sharded distributed store: scatter-gather
//! answers must be indistinguishable from a verbatim scan of the raw data
//! (the reference model — it shares no code with the engine) across shard
//! counts, bin widths and stored row layouts — counted from every cached
//! index in its at-rest form; a request without a region never loads the
//! row order; a 1-shard run must be the
//! flat store byte for byte; a put is one append of its `K` records, and
//! a step one segment; a corrupted shard must quarantine locally — the
//! *other* shards' answers stay the model's — and repair through the
//! normal resume + re-put path. What a crash mid-ingest may leave is
//! enumerated in `crash_resume.rs`.

mod support;

use ibis_analysis::{QueryError, SubsetQuery};
use ibis_core::{Binner, BitmapIndex, RowOrder, RowPermutation};
use ibis_insitu::{
    crc::crc32c, shard_cuts, CacheStats, IbisError, MaintenanceConfig, QueryEngine, QueryRequest,
    QueryServer, ServeConfig, ShardedStore, ShardedWriter, SocketServer, StoreWriter,
    ORDER_VARIABLE,
};
use ibis_testkit::crash::tree;
use ibis_testkit::{Model, TempDir};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use support::answer;
use support::crash::Recorder;

const ROWS: usize = 2500;
const BUDGET: u64 = 256 << 20;
const STEPS: [usize; 2] = [0, 1];
const VARS: [&str; 2] = ["temperature", "salinity"];

/// The obs counters are process-wide and the tests of this binary run in
/// parallel: every test that runs queries holds this for reading, those
/// that assert exact counter deltas for writing.
static COUNTERS: std::sync::RwLock<()> = std::sync::RwLock::new(());

fn counter(name: &str) -> u64 {
    match ibis_obs::global().snapshot().get(name) {
        Some(ibis_obs::MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Spatially structured field: a slow drift along the row axis (so region
/// predicates correlate with values) plus a deterministic wiggle.
fn field(rows: usize, step: usize, phase: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| {
            let drift = 8.0 * (i as f64 / rows as f64);
            let wiggle = ((i * 13 + step * 29 + phase * 101) % 160) as f64 / 80.0;
            drift + wiggle
        })
        .collect()
}

/// The reference model of the dataset: every field, in original row
/// order, under `binner`.
fn model_of_fields(binner: &Binner) -> Model {
    let fields = STEPS.into_iter().flat_map(|step| {
        (0..)
            .zip(VARS)
            .map(move |(phase, var)| (step, var, field(ROWS, step, phase)))
    });
    fields.fold(Model::new(), |model, (step, var, values)| {
        model.with(step, var, binner.clone(), &values)
    })
}

/// How a step's rows are laid out in the store.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Layout {
    /// Ingest order: no `__order` blob.
    Identity,
    /// [`RowOrder::GrayBin`] of the step's first field: a few long
    /// ascending segments.
    Sorted,
    /// The gather of a stride coprime to [`ROWS`] — 333 ascending segments
    /// of seven or eight rows, so a region scatters over hundreds of
    /// stored ranges — stored, like any permutation, under the one
    /// sorting order's tag.
    Scattered,
}

impl Layout {
    fn permutation(self, binner: &Binner, first_field: &[f64]) -> Option<RowPermutation> {
        match self {
            Layout::Identity => None,
            Layout::Sorted => RowOrder::GrayBin.permutation(&[], binner, first_field),
            Layout::Scattered => {
                let gather = (0..ROWS).map(|i| (i * 333 % ROWS) as u32).collect();
                Some(RowPermutation::from_gather(gather))
            }
        }
    }
}

/// What one store of the matrix is built under.
#[derive(Clone, Copy)]
struct Build<'a> {
    shards: usize,
    binner: &'a Binner,
    layout: Layout,
}

/// One step of the 2-steps × 2-variables dataset as the writers see it:
/// each variable's index (built under the step's permutation, if any) and
/// that permutation.
struct StepData {
    step: usize,
    vars: Vec<(&'static str, BitmapIndex)>,
    perm: Option<RowPermutation>,
}

fn dataset(b: Build<'_>) -> Vec<StepData> {
    STEPS
        .into_iter()
        .map(|step| {
            let perm = b.layout.permutation(b.binner, &field(ROWS, step, 0));
            let vars = (0..)
                .zip(VARS)
                .map(|(phase, var)| {
                    let data = field(ROWS, step, phase);
                    let idx = match &perm {
                        Some(p) => BitmapIndex::build_permuted(&data, b.binner.clone(), p),
                        None => BitmapIndex::build(&data, b.binner.clone()),
                    };
                    (var, idx)
                })
                .collect();
            StepData { step, vars, perm }
        })
        .collect()
}

/// Builds the dataset as a `b.shards`-shard store and returns its
/// directory, and the bins `ShardedWriter::put` transcoded to WAH (a registry delta: exact only for a caller that holds
/// `COUNTERS` alone).
fn build_store(name: &str, b: Build<'_>) -> (TempDir, u64) {
    let dir = TempDir::new(name);
    let mut w = ShardedWriter::create(&dir, b.shards).unwrap();
    let mut transcoded = 0;
    for s in dataset(b) {
        if let Some(p) = &s.perm {
            w.put_order(s.step, RowOrder::GrayBin, p).unwrap();
        }
        for (var, idx) in &s.vars {
            let before = counter("codec.decode.transcoded_bins");
            w.put(s.step, var, idx).unwrap();
            transcoded += counter("codec.decode.transcoded_bins") - before;
        }
    }
    w.finish().unwrap();
    (dir, transcoded)
}

/// The same dataset through a bare [`StoreWriter`] — what a 1-shard
/// [`ShardedWriter`] must reproduce file for file.
fn build_flat_store(name: &str, b: Build<'_>) -> TempDir {
    let dir = TempDir::new(name);
    let mut w = StoreWriter::create(&dir).unwrap();
    for s in dataset(b) {
        if let Some(p) = &s.perm {
            w.put_order(s.step, RowOrder::GrayBin, p).unwrap();
        }
        for (var, idx) in &s.vars {
            w.put(s.step, var, idx).unwrap();
        }
    }
    w.finish().unwrap();
    dir
}

fn open(dir: &Path) -> QueryEngine {
    QueryEngine::open(dir, BUDGET).unwrap()
}

/// [`ibis_insitu::Store::locate`] in shard `shard` of the finished store
/// at `dir`: the file an entry's frame sits in and the frame's bytes there.
fn frame_of(
    dir: &Path,
    shard: usize,
    step: usize,
    variable: &str,
) -> (std::path::PathBuf, Range<usize>) {
    let store = ShardedStore::open(dir).unwrap();
    let (file, at) = store.shards()[shard].locate(step, variable).unwrap();
    (file, at.start as usize..at.end as usize)
}

/// The query battery: every request shape the engine serves.
fn battery(rows: u64) -> Vec<QueryRequest> {
    let subset = |step, variable: &str, query| QueryRequest::Subset {
        step,
        variable: variable.into(),
        query,
    };
    let corr = |step, (var_a, query_a): (&str, _), (var_b, query_b): (&str, _)| {
        QueryRequest::Correlation {
            step,
            var_a: var_a.into(),
            var_b: var_b.into(),
            query_a,
            query_b,
        }
    };
    let (t, s) = ("temperature", "salinity");
    vec![
        subset(0, t, SubsetQuery::value(2.0, 7.5)),
        subset(1, s, SubsetQuery::region(rows / 5..rows / 2)),
        subset(0, s, SubsetQuery::value(1.0, 6.0).with_region(7..rows - 3)),
        // nothing lives up there
        subset(
            1,
            t,
            SubsetQuery::value(11.0, 12.0).with_region(0..rows / 3),
        ),
        // the top bin alone, the whole binned range, an inverted range and
        // a quarter bin inside the first 64 rows
        subset(0, t, SubsetQuery::value(9.9, 10.0)),
        subset(1, s, SubsetQuery::value(0.0, 10.0)),
        subset(1, t, SubsetQuery::value(7.5, 2.0)),
        subset(0, s, SubsetQuery::value(3.0, 3.25).with_region(0..64)),
        corr(
            1,
            (t, SubsetQuery::value(0.5, 8.0)),
            (s, SubsetQuery::region(0..rows / 2)),
        ),
        corr(
            0,
            (t, SubsetQuery::value(3.0, 9.0).with_region(11..rows / 3)),
            (s, SubsetQuery::value(0.0, 5.0).with_region(5..rows / 4)),
        ),
        // one variable against itself under two value ranges, inside a
        // region shorter than a 31-row segment
        corr(
            1,
            (
                s,
                SubsetQuery::value(2.0, 8.0).with_region(rows / 2 - 9..rows / 2 + 9),
            ),
            (s, SubsetQuery::value(4.0, 9.5)),
        ),
        // an inverted range admits no bin: the empty answer, from every shard
        corr(
            0,
            (s, SubsetQuery::value(6.0, 2.0)),
            (t, SubsetQuery::all()),
        ),
    ]
}

#[test]
fn sharded_equals_oracle_across_shards_bins_and_row_orders() {
    // alone: no other test may transcode while the sweep watches the counter
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    // Bin counts pick different container codecs downstream; row layouts
    // exercise region mapping and pruning under a permutation — the
    // scattered one spreads a region over hundreds of stored ranges.
    for nbins in [16usize, 64] {
        let binner = Binner::fixed_width(0.0, 10.0, nbins);
        let model = model_of_fields(&binner);
        for layout in [Layout::Identity, Layout::Sorted, Layout::Scattered] {
            for shards in [1usize, 2, 3, 4] {
                let b = Build {
                    shards,
                    binner: &binner,
                    layout,
                };
                let tag = format!("b{nbins}-{layout:?}-k{shards}");
                let (dir, put_transcoded) = build_store(&format!("oracle-{tag}"), b);
                // each shard's slice is cut and written in the form its
                // bins are held in
                assert_eq!(
                    put_transcoded, 0,
                    "{tag}: ShardedWriter::put transcoded a bin"
                );
                if shards == 1 {
                    let flat = build_flat_store(&format!("oracle-flat-{tag}"), b);
                    assert_eq!(tree(&dir), tree(&flat), "{tag}");
                }
                let engine = open(&dir);
                let transcoded = counter("codec.decode.transcoded_bins");
                // two passes: the second finds the cuts memoized
                let mut held = Vec::new();
                for pass in 0..2 {
                    for req in battery(ROWS as u64) {
                        assert_eq!(
                            engine.run(&req).unwrap(),
                            answer(&model, &req).unwrap(),
                            "{tag} pass={pass} {req:?}"
                        );
                    }
                    held.push(engine.shard_caches().iter().map(|c| c.stats()).collect());
                }
                assert_eq!(
                    counter("codec.decode.transcoded_bins"),
                    transcoded,
                    "{tag}: a reply transcoded a bin"
                );
                assert_entries_at_rest(&engine, &held, &tag);
                // every shard holds each step's permutation under its tag
                let want = (layout != Layout::Identity).then_some(RowOrder::GrayBin);
                for (cache, step) in engine
                    .shard_caches()
                    .iter()
                    .flat_map(|c| STEPS.map(|s| (c, s)))
                {
                    let order = cache.get_order(step).unwrap().map(|o| o.0);
                    assert_eq!(order, want, "{tag} step {step}");
                }
                if layout == Layout::Sorted && shards == 4 {
                    assert_prunes_under_permutation(&engine, &model, b, &tag);
                }
            }
        }
    }
}

/// A request without a region never loads a step's row order; one with a
/// region loads it with every check. Every `__order` blob of a GrayBin
/// store is damaged after it is written: the battery's region-free
/// requests still answer as the model does, while a region request is
/// `Corrupt`. On the intact store, region answers are the model's whether
/// or not region-free requests ran first.
#[test]
fn requests_without_a_region_never_load_the_row_order() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 64);
    let model = model_of_fields(&binner);
    let (region_free, with_region): (Vec<_>, Vec<_>) =
        battery(ROWS as u64).into_iter().partition(|req| match req {
            QueryRequest::Subset { query, .. } => query.position_range.is_none(),
            QueryRequest::Correlation {
                query_a, query_b, ..
            } => query_a.position_range.is_none() && query_b.position_range.is_none(),
        });
    assert!(region_free
        .iter()
        .any(|r| matches!(r, QueryRequest::Correlation { .. })));
    for shards in [1usize, 4] {
        let b = Build {
            shards,
            binner: &binner,
            layout: Layout::Sorted,
        };
        let (dir, _) = build_store(&format!("orderless-k{shards}"), b);
        let engine = open(&dir);
        for req in region_free.iter().chain(&with_region) {
            assert_eq!(engine.run(req).unwrap(), answer(&model, req).unwrap());
        }
        // one order a step, whichever shard locates it
        for step in STEPS {
            let (blob, at) = frame_of(&dir, shards - 1, step, ORDER_VARIABLE);
            assert_eq!(
                (blob.clone(), at.clone()),
                frame_of(&dir, 0, step, ORDER_VARIABLE)
            );
            let mut bytes = std::fs::read(&blob).unwrap();
            bytes[at.end - 1] ^= 0x5a;
            std::fs::write(&blob, bytes).unwrap();
        }
        let engine = open(&dir);
        for req in &region_free {
            assert_eq!(engine.run(req).unwrap(), answer(&model, req).unwrap());
        }
        for req in &with_region {
            let err = engine.run(req).unwrap_err();
            assert!(
                matches!(err, IbisError::Corrupt { .. }),
                "k={shards}: {err}"
            );
        }
    }
}

/// Every entry the battery left in a shard cache is in its at-rest form:
/// the cache holds exactly the stored size of its resident entries, and
/// the second pass (`held[1]`, per shard) neither loaded nor grew one.
fn assert_entries_at_rest(engine: &QueryEngine, held: &[Vec<CacheStats>], tag: &str) {
    for (i, cache) in engine.shard_caches().iter().enumerate() {
        let (first, second) = (held[0][i], held[1][i]);
        assert_eq!(
            second.resident_bytes, first.resident_bytes,
            "{tag} shard {i}"
        );
        assert_eq!(
            (second.misses, second.evictions),
            (first.misses, 0),
            "{tag} shard {i}"
        );
        // a probe that hits is a resident entry; one that misses loads an
        // entry the battery never did, and is left out
        let mut at_rest = 0;
        for step in STEPS {
            for var in VARS {
                let misses = cache.stats().misses;
                let ml = cache.get(var, step).unwrap();
                if cache.stats().misses == misses {
                    at_rest += ml.low().size_bytes() as u64;
                }
            }
        }
        assert_eq!(
            second.resident_bytes, at_rest,
            "{tag} shard {i}: grown entry"
        );
    }
}

/// A block of original rows lands, under a sorting order, in the few
/// shards that hold its bins. The engine must visit exactly those — read
/// off the inverse permutation here, not off the engine — and answer like
/// the model; before stored ranges a permuted region went to every shard.
fn assert_prunes_under_permutation(engine: &QueryEngine, model: &Model, b: Build<'_>, tag: &str) {
    let perm = dataset(b).swap_remove(0).perm.expect("a sorting order");
    let caches = engine.shard_caches();
    let mut cuts = vec![0u64];
    for c in caches {
        let rows = c.get("temperature", 0).unwrap().low().len();
        cuts.push(cuts[cuts.len() - 1] + rows);
    }
    let region = 100..140u64;
    let home: Vec<usize> = (0..caches.len())
        .filter(|&i| {
            let stored = region.clone().map(|r| perm.inv()[r as usize] as u64);
            stored
                .into_iter()
                .any(|s| (cuts[i]..cuts[i + 1]).contains(&s))
        })
        .collect();
    assert!(home.len() < caches.len(), "{tag}: {home:?} is every shard");
    let reads = || -> Vec<u64> {
        let stats = caches.iter().map(|c| c.stats());
        stats.map(|s| s.hits + s.misses).collect()
    };
    let pruned = || counter("shard.query.pruned");
    let (reads_before, pruned_before) = (reads(), pruned());
    let req = QueryRequest::Subset {
        step: 0,
        variable: "temperature".into(),
        query: SubsetQuery::region(region),
    };
    assert_eq!(
        engine.run(&req).unwrap(),
        answer(model, &req).unwrap(),
        "{tag}"
    );
    let reads_after = reads();
    let visited: Vec<usize> = (0..caches.len())
        .filter(|&i| reads_after[i] != reads_before[i])
        .collect();
    assert_eq!(visited, home, "{tag}: shards read for an in-shard region");
    if ibis_obs::ENABLED {
        // other tests of this binary prune too: the counter moved by at
        // least this query's share
        let moved = pruned() - pruned_before;
        assert!(
            moved >= (caches.len() - home.len()) as u64,
            "{tag}: {moved}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Randomised oracle check: arbitrary data, shard count, value bounds
    /// and region — the scatter-gather answer always matches the scan
    /// model, errors included, to the variant and its fields.
    #[test]
    fn random_queries_match_oracle(
        data in proptest::collection::vec(0.0f64..10.0, 64..400),
        k in 1usize..6,
        lo in -1.0f64..11.0,
        span in 0.0f64..12.0,
        r0 in 0u64..400,
        rlen in 0u64..400,
    ) {
        let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
        let dir = TempDir::new(&format!("prop-{k}-{}", data.len()));
        let binner = Binner::fixed_width(0.0, 10.0, 24);
        let idx = BitmapIndex::build(&data, binner.clone());
        let mut sw = ShardedWriter::create(&dir, k).unwrap();
        sw.put(0, "v", &idx).unwrap();
        sw.finish().unwrap();

        let engine = open(&dir);
        let model = Model::new().with(0, "v", binner, &data);
        let req = QueryRequest::Subset {
            step: 0,
            variable: "v".into(),
            query: SubsetQuery::value(lo, lo + span).with_region(r0..r0 + rlen),
        };
        for _pass in 0..2 {
            prop_assert_eq!(engine.run(&req), answer(&model, &req));
        }
    }
}

/// An exact, identity-order store of the dataset over `shards` shards.
fn plain_store(name: &str, shards: usize, binner: &Binner) -> TempDir {
    let b = Build {
        shards,
        binner,
        layout: Layout::Identity,
    };
    build_store(name, b).0
}

#[test]
fn corrupt_shard_quarantines_locally_and_repairs() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let sd = plain_store("fsck", 3, &binner);
    let model = model_of_fields(&binner);

    // flip bytes in the middle of shard 1's step-1 temperature record
    let (blob, at) = frame_of(&sd, 1, 1, "temperature");
    let aside = sd.join("s000001_temperature@1.ibis.quarantined");
    let mut bytes = std::fs::read(&blob).unwrap();
    let mid = (at.start + at.end) / 2;
    for b in &mut bytes[mid..mid + 4] {
        *b ^= 0xFF;
    }
    std::fs::write(&blob, &bytes).unwrap();

    // fsck quarantines the damaged blob in its shard — and only there
    let mut store = ShardedStore::open(&sd).unwrap();
    let reports = store.fsck();
    assert_eq!(reports.len(), 3);
    assert!(reports[0].is_clean() && reports[2].is_clean());
    assert_eq!(reports[1].quarantined.len(), 1);
    assert!(aside.exists());

    // the damaged pair is now a structured miss; every other pair answers
    // like the model
    let engine = QueryEngine::from_store(store, BUDGET);
    let subset = |step: usize, var: &str, query: SubsetQuery| QueryRequest::Subset {
        step,
        variable: var.into(),
        query,
    };
    let dead = subset(1, "temperature", SubsetQuery::all());
    assert!(matches!(
        engine.run(&dead).unwrap_err(),
        IbisError::NotFound { .. }
    ));
    for (step, var) in [(0usize, "temperature"), (0, "salinity"), (1, "salinity")] {
        let q = SubsetQuery::value(1.5, 8.0).with_region(40..(ROWS as u64) - 9);
        let req = subset(step, var, q);
        assert_eq!(
            engine.run(&req).unwrap(),
            answer(&model, &req).unwrap(),
            "{req:?}"
        );
    }
    drop(engine);

    // repair = the ordinary durable path: resume the writer, re-put the
    // lost step, finish; the sharded tier then matches the model again
    let mut w = ShardedWriter::resume(&sd).unwrap();
    assert!(!w.contains(1, "temperature"));
    let idx = BitmapIndex::build(&field(ROWS, 1, 0), binner.clone());
    w.put(1, "temperature", &idx).unwrap();
    w.finish().unwrap();
    // compaction sweeps the quarantined debris off disk
    let store = ShardedStore::open(&sd).unwrap();
    let compacted = store.compact().unwrap();
    assert!(compacted.files_removed >= 1);
    assert!(!aside.exists());
    let engine = QueryEngine::from_store(store, BUDGET);
    for req in battery(ROWS as u64) {
        assert_eq!(engine.run(&req).unwrap(), answer(&model, &req).unwrap());
    }
}

/// A put is one append of its `K` records and one sync at every shard
/// count — and a step's first put also names the step's segment and syncs
/// that name; a step is one segment file; and a step's order is one
/// record, whatever `K`.
#[test]
fn a_put_is_one_append_and_a_step_one_segment() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    for shards in 1..=4 {
        let b = Build {
            shards,
            binner: &binner,
            layout: Layout::Sorted,
        };
        let dir = TempDir::new(&format!("one-append-k{shards}"));
        let rec = Recorder::new(&dir);
        let mut w = ShardedWriter::create_on(rec, &dir, shards).unwrap();
        let files = || std::fs::read_dir(&dir).unwrap().count();
        for s in dataset(b) {
            let before = files();
            let op = rec.len();
            w.put_order(s.step, RowOrder::GrayBin, s.perm.as_ref().unwrap())
                .unwrap();
            let first = ["Link", "Write", "Sync", "SyncDir"]; // a new segment, named
            assert_eq!(rec.kinds_since(op), first, "k={shards}: put_order");
            for (var, idx) in &s.vars {
                let op = rec.len();
                w.put(s.step, var, idx).unwrap();
                assert_eq!(rec.kinds_since(op), ["Write", "Sync"], "k={shards}: {var}");
            }
            assert_eq!(files(), before + 1, "k={shards}: step {}", s.step);
        }
        w.finish().unwrap();
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
        for step in STEPS {
            let lines: Vec<&str> = (manifest.lines())
                .filter(|l| l.starts_with(&format!("{step}\t")))
                .collect();
            let orders = lines.iter().filter(|l| l.contains("\t__order\t"));
            assert_eq!(orders.count(), 1, "k={shards}: {manifest}");
            assert_eq!(lines.len(), 1 + VARS.len() * shards, "k={shards}");
        }
    }
}

/// A variable of a step is listed only when every shard holds it: fsck
/// quarantining one shard's record of it takes it off the list, and the
/// step stays listed while every shard holds another variable of it.
#[test]
fn variables_are_those_every_shard_holds() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let dir = plain_store("every-shard-vars", 3, &binner);
    let (blob, at) = frame_of(&dir, 2, 0, "temperature");
    let mut bytes = std::fs::read(&blob).unwrap();
    bytes[at.end - 1] ^= 0x5a;
    std::fs::write(&blob, bytes).unwrap();
    let mut store = ShardedStore::open(&dir).unwrap();
    assert_eq!(store.variables(0), ["salinity", "temperature"]);
    let reports = store.fsck();
    let lost: Vec<usize> = reports.iter().map(|r| r.quarantined.len()).collect();
    assert_eq!(lost, [0, 0, 1]);
    assert_eq!(reports[2].quarantined[0].variable, "temperature@2");
    assert_eq!(store.variables(0), ["salinity"]);
    assert_eq!(store.variables(1), ["salinity", "temperature"]);
    assert_eq!(store.steps(), STEPS);
    assert_eq!(store.shards()[0].variables(0), ["salinity", "temperature"]);
    assert_eq!(store.shards()[2].variables(0), ["salinity"]);
}

/// Every query either visits or prunes each of the `K` shards, and says
/// so: `shard.query.fanout + shard.query.pruned` moves by exactly `K` per
/// query — threaded or not, one shard or several, answered or rejected
/// after the shards were chosen.
#[test]
fn fanout_and_pruned_account_for_every_shard_of_every_query() {
    if !ibis_obs::ENABLED {
        return; // metrics compiled out in this configuration
    }
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let has_region = |req: &QueryRequest| match req {
        QueryRequest::Subset { query, .. } => query.position_range.is_some(),
        QueryRequest::Correlation {
            query_a, query_b, ..
        } => query_a.position_range.is_some() || query_b.position_range.is_some(),
    };
    let segments = "reorder.query.region_mapped.segments";
    for (shards, layout) in [
        (1usize, Layout::Identity),
        (4, Layout::Identity),
        (4, Layout::Scattered),
    ] {
        let b = Build {
            shards,
            binner: &binner,
            layout,
        };
        let (dir, _) = build_store(&format!("fanout-k{shards}-{layout:?}"), b);
        let engine = open(&dir);
        let queries = battery(ROWS as u64);
        let before = (
            counter("shard.query.fanout"),
            counter("shard.query.pruned"),
            counter(segments),
        );
        // an exact store's correlation counts each visited shard's partial
        // inside the label walk and builds no selection, so it plans no
        // value range either; a subset query never reaches that path
        let walked = || {
            let planned: u64 = ["or_bins", "complement", "empty"]
                .iter()
                .map(|plan| counter(&format!("query.plan.{plan}")))
                .sum();
            (
                counter("query.corr.selection_free"),
                counter("shard.query.fanout"),
                planned,
            )
        };
        for req in &queries {
            let was = walked();
            engine.run(req).unwrap();
            let now = walked();
            let visited = now.1 - was.1;
            match req {
                QueryRequest::Correlation { .. } => {
                    assert_eq!(now.0 - was.0, visited, "k={shards} {layout:?} {req:?}");
                    assert_eq!(now.2, was.2, "a correlation planned a selection: {req:?}");
                }
                QueryRequest::Subset { .. } => assert_eq!(now.0, was.0, "{req:?}"),
            }
        }
        let fanout = counter("shard.query.fanout") - before.0;
        let pruned = counter("shard.query.pruned") - before.1;
        assert_eq!(
            fanout + pruned,
            (shards * queries.len()) as u64,
            "k={shards}"
        );
        // every query visits at least one shard; only regions prune, one
        // shard leaves nothing to prune, and scattered rows reach them all
        assert!(fanout >= queries.len() as u64, "k={shards}: {fanout}");
        let prunes = shards > 1 && layout == Layout::Identity;
        assert_eq!(pruned > 0, prunes, "k={shards} {layout:?}: {pruned}");
        // under a permutation every region is resolved through the
        // segments, once a query — there is no other resolver
        let regions = queries.iter().filter(|req| has_region(req)).count() as u64;
        let mapped = if layout == Layout::Identity {
            0
        } else {
            regions
        };
        assert_eq!(
            counter(segments) - before.2,
            mapped,
            "k={shards} {layout:?}"
        );
    }
}

/// A query whose region lies inside one shard visits that shard and
/// prunes the other `K − 1` — a subset, and a correlation whose operands
/// share the region — at every shard count, and answers like the model:
/// why sharding does not cost a region-local query.
#[test]
fn a_region_inside_one_shard_visits_that_shard_alone() {
    let _alone = COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let model = model_of_fields(&binner);
    let visits = || (counter("shard.query.fanout"), counter("shard.query.pruned"));
    for shards in 1..=4 {
        let dir = plain_store(&format!("one-shard-region-k{shards}"), shards, &binner);
        let engine = open(&dir);
        let cuts = shard_cuts(ROWS as u64, shards);
        for (i, cut) in cuts.windows(2).enumerate() {
            let region = cut[0] + 1..cut[1] - 1;
            for step in STEPS {
                let requests = [
                    QueryRequest::Subset {
                        step,
                        variable: "salinity".into(),
                        query: SubsetQuery::value(2.0, 7.0).with_region(region.clone()),
                    },
                    QueryRequest::Correlation {
                        step,
                        var_a: "temperature".into(),
                        var_b: "salinity".into(),
                        query_a: SubsetQuery::value(1.0, 8.0).with_region(region.clone()),
                        query_b: SubsetQuery::region(region.clone()),
                    },
                ];
                for req in requests {
                    let was = visits();
                    let got = engine.run(&req).unwrap();
                    let now = visits();
                    assert_eq!(got, answer(&model, &req).unwrap(), "k={shards} {req:?}");
                    if ibis_obs::ENABLED {
                        let moved = (now.0 - was.0, now.1 - was.1);
                        let want = (1, shards as u64 - 1);
                        assert_eq!(moved, want, "k={shards} shard {i}: {req:?}");
                    }
                }
            }
        }
    }
}

/// A 4-shard store of eight steps behind the serving tier, with a cache
/// budget of a quarter of its decoded indexes: entries are evicted, and
/// every answer, cold or after churn, is still the model's.
#[test]
fn a_serving_tier_over_its_cache_budget_evicts_and_answers_like_the_model() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let steps = 0..8usize;
    let dir = TempDir::new("over-budget");
    let mut w = ShardedWriter::create(&dir, 4).unwrap();
    let mut model = Model::new();
    for (step, (phase, var)) in steps
        .clone()
        .flat_map(|s| (0..).zip(VARS).map(move |v| (s, v)))
    {
        let data = field(ROWS, step, phase);
        w.put(step, var, &BitmapIndex::build(&data, binner.clone()))
            .unwrap();
        model = model.with(step, var, binner.clone(), &data);
    }
    w.finish().unwrap();
    let requests: Vec<QueryRequest> = steps
        .flat_map(|step| {
            let mut battery = battery(ROWS as u64);
            for req in &mut battery {
                match req {
                    QueryRequest::Subset { step: s, .. }
                    | QueryRequest::Correlation { step: s, .. } => *s = step,
                }
            }
            battery
        })
        .collect();
    let decoded = {
        let engine = open(&dir);
        for req in &requests {
            engine.run(req).unwrap();
        }
        engine.cache_stats().resident_bytes
    };
    let engine = QueryEngine::open(&dir, decoded / 4).unwrap();
    let server = Arc::new(QueryServer::start(engine, ServeConfig::default()).unwrap());
    for pass in 0..2 {
        for req in &requests {
            let want = answer(&model, req).unwrap();
            assert_eq!(
                server.submit(req, None).unwrap(),
                want,
                "pass {pass}: {req:?}"
            );
        }
    }
    let stats = server.engine().cache_stats();
    assert!(stats.evictions > 0, "{stats:?}");
    server.shutdown();
}

/// A 2-shard store of the dataset whose shard 1 was written under
/// `other`: every record CRC-valid, the store inconsistent. One writer
/// cannot write such a store, so it is written in the layout where each
/// shard kept a store of its own under `shard-NNN/` (a `v1` `SHARDS`
/// file), each by a writer of its own.
fn store_binned_twice(name: &str, binner: &Binner, other: &Binner) -> TempDir {
    let dir = TempDir::new(name);
    std::fs::create_dir_all(&dir).unwrap();
    let shards = "#IBIS-SHARDS v1\n2\n";
    let shards = format!("{shards}#END {:08x}\n", crc32c(shards.as_bytes()));
    std::fs::write(dir.join("SHARDS"), shards).unwrap();
    for (shard, binner) in [binner, other].into_iter().enumerate() {
        let b = Build {
            shards: 1,
            binner,
            layout: Layout::Identity,
        };
        let mut w = StoreWriter::create(dir.join(format!("shard-{shard:03}"))).unwrap();
        for s in dataset(b) {
            for (var, idx) in &s.vars {
                let cuts = shard_cuts(idx.len(), 2);
                let slice = idx.slice_rows(cuts[shard]..cuts[shard + 1]);
                w.put(s.step, var, &slice).unwrap();
            }
        }
        w.finish().unwrap();
    }
    dir
}

/// Nothing but the gather can notice that two shards bin a variable
/// differently: it must say so — a typed error, the same through every
/// front end — where it used to panic a worker (different bin counts) or
/// sum counts of different bins into a wrong answer (different edges).
#[test]
fn shards_that_disagree_on_the_binning_are_a_typed_error() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let others = [
        ("nbins", Binner::fixed_width(0.0, 10.0, 32)),
        ("edges", Binner::fixed_width(0.0, 12.0, 48)),
    ];
    let rows = ROWS as u64;
    for (what, other) in &others {
        let dir = store_binned_twice(&format!("binned-twice-{what}"), &binner, other);
        let engine = open(&dir);
        let correlation = |query_b: SubsetQuery| QueryRequest::Correlation {
            step: 0,
            var_a: "temperature".into(),
            var_b: "salinity".into(),
            query_a: SubsetQuery::value(1.0, 9.0),
            query_b,
        };
        let subset = |query: SubsetQuery| QueryRequest::Subset {
            step: 1,
            variable: "salinity".into(),
            query,
        };
        let expected = QueryError::BinningMismatch(48, other.nbins());
        for req in [
            correlation(SubsetQuery::all()),
            subset(SubsetQuery::value(2.0, 6.0)),
        ] {
            match engine.run(&req) {
                Err(IbisError::Query(e)) => assert_eq!(e, expected, "{what} {req:?}"),
                other => panic!("{what} {req:?}: {other:?}"),
            }
        }
        // a query that stays inside shard 0 never sees the disagreement
        let model = model_of_fields(&binner);
        for req in [
            correlation(SubsetQuery::region(10..rows / 3)),
            subset(SubsetQuery::value(2.0, 6.0).with_region(0..rows / 4)),
        ] {
            assert_eq!(
                engine.run(&req).unwrap(),
                answer(&model, &req).unwrap(),
                "{what}"
            );
        }

        // the same message inline in a batch, and over the socket — whose
        // worker survives to answer the next frame
        let batch = r#"{"queries": [
            {"kind": "correlation", "var_a": "temperature", "var_b": "salinity", "value_a": [1, 9]},
            {"kind": "subset", "step": 1, "variable": "salinity", "value_range": [2, 6]},
            {"kind": "subset", "variable": "salinity", "region": [0, 100]}]}"#
            .replace('\n', " ");
        let message = format!("\"error\": \"{}\"", IbisError::Query(expected));
        let check = |reply: &str, via: &str| {
            assert_eq!(
                reply.matches(&message).count(),
                2,
                "{what} via {via}: {reply}"
            );
            assert_eq!(
                reply.matches("\"ok\"").count(),
                1,
                "{what} via {via}: {reply}"
            );
        };
        check(&engine.run_batch_json(&batch).unwrap(), "run_batch_json");
        let server = Arc::new(QueryServer::start(engine, ServeConfig::default()).unwrap());
        let socket = SocketServer::bind(Arc::clone(&server), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(socket.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _frame in 0..2 {
            stream.write_all(format!("{batch}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            check(&reply, "SocketServer");
        }
        socket.stop();
        server.shutdown();
    }
}

#[test]
fn per_shard_cache_gauges_reach_the_registry() {
    let _shared = COUNTERS.read().unwrap_or_else(|e| e.into_inner());
    if !ibis_obs::ENABLED {
        return; // metrics compiled out in this configuration
    }
    let binner = Binner::fixed_width(0.0, 10.0, 48);
    let sd = plain_store("obs", 2, &binner);
    let engine = open(&sd);
    for req in battery(ROWS as u64) {
        engine.run(&req).unwrap();
    }
    engine.publish_obs();
    let snap = ibis_obs::global().snapshot();
    let gauge = |name: &str| match snap.get(name) {
        Some(ibis_obs::MetricValue::Gauge { value, .. }) => *value,
        other => panic!("missing gauge {name}: {other:?}"),
    };
    for shard in ["shard000", "shard001"] {
        assert!(
            gauge(&format!("query.cache.{shard}.resident_bytes")) > 0,
            "{shard} must hold decoded bytes"
        );
        assert!(gauge(&format!("query.cache.{shard}.misses")) > 0);
    }
    // the static family is the engine's sum over shards, not whichever
    // shard published last (this test is the binary's only publisher)
    let total = engine.cache_stats();
    for (stat, want) in [
        ("hits", total.hits),
        ("misses", total.misses),
        ("evictions", total.evictions),
        ("resident_bytes", total.resident_bytes),
    ] {
        assert_eq!(gauge(&format!("query.cache.stat.{stat}")), want as i64);
        let per_shard: i64 = ["shard000", "shard001"]
            .iter()
            .map(|shard| gauge(&format!("query.cache.{shard}.{stat}")))
            .sum();
        assert_eq!(per_shard, want as i64, "{stat} must sum over shards");
    }
    // maintenance on a quiesced engine publishes its counters too
    let rep = engine
        .maintenance_once(&MaintenanceConfig {
            compact: true,
            hot_steps: None,
            cache_target_bytes: Some(0),
        })
        .unwrap();
    assert!(
        rep.evicted_bytes > 0,
        "cache_target 0 must evict everything"
    );
}
