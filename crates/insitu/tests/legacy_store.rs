//! Stores written in earlier layouts are committed under `tests/data`,
//! each written by the writer of its layout from the fields below:
//! `legacy-v2` holds the one-file-per-entry layout that came before
//! segments — a flat store, and a 2-shard one under a GrayBin row order —
//! and `shard-segments` a 2-shard GrayBin store whose shards each kept a
//! store of segments of their own under `shard-NNN/`. Each must open and
//! answer like the data it was written from, pass fsck, resume to take a
//! new step in the current layout beside its old entries, and compact.

mod support;

use ibis_analysis::SubsetQuery;
use ibis_core::{Binner, BitmapIndex, RowOrder};
use ibis_insitu::{QueryEngine, QueryRequest, ShardedStore, ShardedWriter};
use ibis_testkit::{Model, TempDir};
use std::path::Path;

const ROWS: usize = 600;
const VARS: [&str; 2] = ["temperature", "salinity"];

/// The field the stores hold for `(step, phase)` — variable `phase` of
/// [`VARS`]: a drift along the rows plus a deterministic wiggle.
fn field(step: usize, phase: usize) -> Vec<f64> {
    (0..ROWS)
        .map(|i| {
            let drift = 8.0 * (i as f64 / ROWS as f64);
            let wiggle = ((i * 13 + step * 29 + phase * 101) % 160) as f64 / 80.0;
            drift + wiggle
        })
        .collect()
}

fn binner() -> Binner {
    Binner::fixed_width(0.0, 10.0, 16)
}

fn model(steps: std::ops::Range<usize>) -> Model {
    let fields = steps.flat_map(|step| VARS.iter().enumerate().map(move |v| (step, v)));
    fields.fold(Model::new(), |model, (step, (phase, var))| {
        model.with(step, var, binner(), &field(step, phase))
    })
}

/// Subsets of each variable by value, region and both, and the two
/// variables' correlation, per step.
fn battery(steps: std::ops::Range<usize>) -> Vec<QueryRequest> {
    let region = ROWS as u64 / 5..ROWS as u64 * 3 / 4;
    let queries = [
        SubsetQuery::value(2.0, 7.0),
        SubsetQuery::all().with_region(region.clone()),
        SubsetQuery::value(1.0, 6.5).with_region(region),
    ];
    let mut out = Vec::new();
    for step in steps {
        for (var, query) in VARS
            .iter()
            .flat_map(|v| queries.iter().map(move |q| (v, q)))
        {
            out.push(QueryRequest::Subset {
                step,
                variable: var.to_string(),
                query: query.clone(),
            });
        }
        out.push(QueryRequest::Correlation {
            step,
            var_a: VARS[0].into(),
            var_b: VARS[1].into(),
            query_a: queries[0].clone(),
            query_b: queries[2].clone(),
        });
    }
    out
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().map(|e| e.unwrap()) {
        let target = to.join(e.file_name());
        match e.file_type().unwrap().is_dir() {
            true => copy_tree(&e.path(), &target),
            false => drop(std::fs::copy(e.path(), &target).unwrap()),
        }
    }
}

fn answers_like_the_model(dir: &Path, steps: std::ops::Range<usize>, what: &str) {
    let (model, engine) = (
        model(steps.clone()),
        QueryEngine::open(dir, 1 << 20).unwrap(),
    );
    for req in battery(steps) {
        let want = support::answer(&model, &req).unwrap();
        assert_eq!(engine.run(&req).unwrap(), want, "{what}: {req:?}");
    }
}

#[test]
fn a_store_written_before_segments_serves_verifies_resumes_and_compacts() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    // each store, its shard count, and the fields of its step-1 lines
    let stores = [
        ("legacy-v2/flat", 1usize, 5),
        ("legacy-v2/graybin-k2", 2, 5),
        ("shard-segments/graybin-k2", 2, 6),
    ];
    for (name, shards, old_fields) in stores {
        let dir = TempDir::new(&format!("legacy-{}", name.replace('/', "-")));
        copy_tree(&data.join(name), &dir);
        answers_like_the_model(&dir, 0..2, name);

        let mut store = ShardedStore::open(&dir).unwrap();
        assert_eq!(store.nshards(), shards);
        let reports = store.fsck();
        assert!(reports.iter().all(|r| r.is_clean()), "{name}: {reports:?}");
        let per_shard = if shards == 1 { 4 } else { 6 };
        assert!(reports.iter().all(|r| r.checked == per_shard), "{name}");

        // resume keeps every old entry and takes step 2 in a segment
        let mut w = ShardedWriter::resume(&dir).unwrap();
        assert_eq!(w.durable_steps(), [0, 1], "{name}");
        let fields = [field(2, 0), field(2, 1)];
        let perm = RowOrder::GrayBin.permutation(&[], &binner(), &fields[0]);
        let perm = perm.filter(|_| shards > 1);
        if let Some(perm) = &perm {
            w.put_order(2, RowOrder::GrayBin, perm).unwrap();
        }
        for (var, data) in VARS.iter().zip(&fields) {
            let index = match &perm {
                Some(perm) => BitmapIndex::build_permuted(data, binner(), perm),
                None => BitmapIndex::build(data, binner()),
            };
            w.put(2, var, &index).unwrap();
        }
        w.finish().unwrap();
        // one manifest at the root names the old entries and the new step
        let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let fields_of = |step: &str| {
            let line = manifest.lines().find(|l| l.starts_with(step)).unwrap();
            line.split('\t').count()
        };
        assert_eq!(
            (fields_of("1\t"), fields_of("2\t")),
            (old_fields, 6),
            "{manifest}"
        );
        let orders = manifest.lines().filter(|l| l.starts_with("2\t__order\t"));
        assert_eq!(orders.count(), usize::from(shards > 1), "{manifest}");
        answers_like_the_model(&dir, 0..3, name);

        // compaction sweeps what an interrupted run of the old layout
        // left — its journal, a temp file — and nothing a reader opens
        for k in 0..shards {
            let shard = if shards == 1 {
                dir.to_path_buf()
            } else {
                dir.join(format!("shard-{k:03}"))
            };
            std::fs::write(shard.join("JOURNAL"), b"0\ttemperature\n").unwrap();
            std::fs::write(shard.join(".s000002_salinity.ibis.tmp"), b"torn").unwrap();
        }
        let report = ShardedStore::open(&dir).unwrap().compact().unwrap();
        assert_eq!(report.files_removed, 2 * shards, "{name}");
        let mut store = ShardedStore::open(&dir).unwrap();
        assert!(store.fsck().iter().all(|r| r.is_clean()), "{name}");
        answers_like_the_model(&dir, 0..3, name);
    }
}

/// A fresh run over a store whose shards each kept a store of their own
/// retires those too: once `StoreWriter::create` returns, a resume (a
/// crash before the `SHARDS` file is rewritten leaves the old `v1` one)
/// finds no earlier entry to lift, and a finished run leaves no
/// `shard-NNN/` file behind.
#[test]
fn a_fresh_run_retires_the_shard_directories_of_the_earlier_layout() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let dir = TempDir::new("legacy-retired-by-create");
    copy_tree(&data.join("shard-segments/graybin-k2"), &dir);
    ibis_insitu::StoreWriter::create(&dir).unwrap();
    let w = ShardedWriter::resume(&dir).unwrap();
    assert_eq!(w.durable_steps(), Vec::<usize>::new());

    copy_tree(&data.join("shard-segments/graybin-k2"), &dir);
    let mut w = ShardedWriter::create(&dir, 2).unwrap();
    let index = BitmapIndex::build(&field(0, 0), binner());
    w.put(0, VARS[0], &index).unwrap();
    w.finish().unwrap();
    let left: Vec<_> = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("shard-"))
        .collect();
    assert!(left.is_empty(), "{left:?}");
    let store = ShardedStore::open(&dir).unwrap();
    assert_eq!(store.steps(), [0]);
}
