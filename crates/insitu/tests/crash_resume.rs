//! Crash/resume regression for the durable pipeline, on the Ocean model:
//! a run killed mid-flight — at any step, or at any blob write — and
//! resumed must leave a store byte-identical to an uninterrupted run's
//! that answers like the data it was fed, and corruption on disk must be
//! detected, quarantined, and excluded from analysis.

mod support;

use ibis_analysis::{Metric, SubsetQuery};
use ibis_core::{Binner, RowOrder};
use ibis_datagen::{OceanConfig, OceanModel, Simulation};
use ibis_insitu::{
    codec, crc::crc32c_append, pipeline::pending_checkpoint, resume_durable, run_durable,
    CoreAllocation, FaultPlan, IbisError, MachineModel, PipelineConfig, QueryEngine, QueryRequest,
    Reduction, RobustnessConfig, ScalingModel, Store, ORDER_VARIABLE,
};
use ibis_testkit::{Model, TempDir};
use std::collections::BTreeMap;
use std::path::Path;

fn ocean() -> OceanConfig {
    OceanConfig::tiny()
}

fn cfg() -> PipelineConfig {
    PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 4,
        allocation: CoreAllocation::Shared,
        reduction: Reduction::Bitmaps,
        steps: 11,
        select_k: 4,
        metric: Metric::ConditionalEntropy,
        binners: Vec::new(),
        per_step_precision: Some(0),
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

/// Every durable artifact in the directory, name → bytes. A finished run
/// leaves only blobs and the manifest; anything else (checkpoint, journal,
/// temp files) would be a cleanup bug and makes the comparison fail.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("read file"));
    }
    out
}

/// CRC32-C over the directory's sorted `(name, bytes)` pairs.
fn dir_digest(contents: &BTreeMap<String, Vec<u8>>) -> u32 {
    contents.iter().fold(0, |crc, (name, bytes)| {
        crc32c_append(crc32c_append(crc, name.as_bytes()), bytes)
    })
}

/// CRC32-C over what the store *decodes to*, independent of how blobs are
/// framed: for every manifest entry in order its step and entry name, then
/// the canonical all-WAH encoding of an index entry, or the order tag and
/// inverse permutation of a row-order entry.
fn content_digest(dir: &Path) -> u32 {
    let store = Store::open(dir).unwrap();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut crc = 0;
    for line in manifest.lines().filter(|l| !l.starts_with('#')) {
        let mut fields = line.split('\t');
        let step: usize = fields.next().unwrap().parse().unwrap();
        let entry = fields.next().unwrap();
        crc = crc32c_append(crc, &(step as u64).to_le_bytes());
        crc = crc32c_append(crc, entry.as_bytes());
        if entry == ORDER_VARIABLE {
            let (order, perm) = store.load_order(step).unwrap().unwrap();
            crc = crc32c_append(crc, &[order.tag()]);
            for row in perm.inv() {
                crc = crc32c_append(crc, &row.to_le_bytes());
            }
        } else {
            let index = store.get(step, entry).unwrap();
            crc = crc32c_append(crc, &codec::encode_index(&index));
        }
    }
    crc
}

const SEPARATE: CoreAllocation = CoreAllocation::Separate {
    sim_cores: 1,
    bitmap_cores: 1,
};

/// Runs to completion through a kill at each step of `kills` in turn
/// (each resume carries the next kill), and returns the final report.
fn run_through_kills(
    order: RowOrder,
    allocation: CoreAllocation,
    kills: &[usize],
    dir: &Path,
) -> ibis_insitu::InsituReport {
    let cfg_with = |kill: Option<&usize>| {
        let mut c = cfg();
        c.row_order = order;
        c.allocation = allocation;
        if let Some(&step) = kill {
            c.robustness.faults = FaultPlan::none().with_kill_at_step(step);
        }
        c
    };
    for (n, kill) in kills.iter().enumerate() {
        let c = cfg_with(Some(kill));
        let err = if n == 0 {
            run_durable(OceanModel::new(ocean()), &c, dir)
        } else {
            resume_durable(OceanModel::new(ocean()), &c, dir)
        }
        .unwrap_err();
        assert_eq!(err, IbisError::Killed { step: *kill });
        assert!(
            pending_checkpoint(dir).is_some(),
            "a run killed at step {kill} must leave its checkpoint behind"
        );
    }
    resume_durable(OceanModel::new(ocean()), &cfg_with(None), dir).unwrap()
}

#[test]
fn killed_run_resumes_to_byte_identical_store() {
    // Two digests pinned across commits, not only between this commit's
    // own runs. The byte digest is of the uninterrupted Shared-Cores
    // directory; PR 17 (one `IBF` frame for every blob) re-pinned it, from
    // 0xd9d6_89c4 / 0x509a_f3ac at commit 00a759e, and PR 18 (run-coded
    // `__order` payloads) re-pinned GrayBin's once more, from 0x1efe_399d
    // at commit 12dab24 — Identity's, which stores no order, did not move.
    // The content digest — what the store decodes to: every index, and
    // every order's tag and inverse permutation — was recorded at 00a759e
    // and has moved under neither: the counting sort builds the
    // permutation the comparison sort built.
    for (order, parent_digest, parent_content) in [
        (RowOrder::Identity, 0x789d_fa5e_u32, 0x03e3_a341_u32),
        (RowOrder::GrayBin, 0x10f2_13bc, 0x0d26_42bb),
    ] {
        // the uninterrupted reference run
        let clean_dir = TempDir::new(&format!("clean-{}", order.name()));
        let clean = run_through_kills(order, CoreAllocation::Shared, &[], &clean_dir);
        assert_eq!(clean.selected.len(), 4);
        let reference = dir_contents(&clean_dir);
        assert_eq!(
            dir_digest(&reference),
            parent_digest,
            "{order:?}: the store's bytes changed since the pinned commit"
        );
        assert_eq!(
            content_digest(&clean_dir),
            parent_content,
            "{order:?}: what the store decodes to changed since the pinned commit"
        );
        assert!(
            reference
                .keys()
                .all(|f| f == "MANIFEST" || (f.ends_with(".ibis") && !f.starts_with('.'))),
            "a finished run leaves only blobs and the manifest: {:?}",
            reference.keys()
        );
        assert_eq!(
            reference.keys().any(|f| f.contains("__order")),
            order != RowOrder::Identity,
            "row permutations are persisted exactly under a non-identity order"
        );

        // under either allocation: the uninterrupted run, the same run
        // killed at every step in turn, and one run killed three times (a
        // resumed run's own checkpoints must resume too)
        let steps = cfg().steps;
        let single = (1..steps).map(|k| vec![k]);
        let kill_plans: Vec<Vec<usize>> = [vec![]]
            .into_iter()
            .chain(single)
            .chain([vec![2, 3, 8]])
            .collect();
        for allocation in [CoreAllocation::Shared, SEPARATE] {
            for kills in &kill_plans {
                let crash_dir =
                    TempDir::new(&format!("crash-{}-{allocation:?}-{kills:?}", order.name()));
                let resumed = run_through_kills(order, allocation, kills, &crash_dir);
                assert_eq!(
                    resumed.selected, clean.selected,
                    "{order:?}, {allocation:?}, killed at {kills:?}: selection must survive the crash"
                );
                assert_eq!(resumed.bytes_written, clean.bytes_written);
                assert_eq!(resumed.step_outcomes, clean.step_outcomes);
                // the store itself — every file, every byte; a surviving
                // CHECKPOINT, JOURNAL or temp file fails the comparison
                assert!(
                    dir_contents(&crash_dir) == reference,
                    "{order:?}, {allocation:?}, killed at {kills:?}: the store must be \
                     byte-identical to the uninterrupted Shared-Cores one"
                );
            }
        }

        let store = Store::open(&clean_dir).unwrap();
        assert_eq!(store.steps(), clean.selected);
    }
}

/// The Ocean steps the run simulates, each binned as the run bins it:
/// one anchored binner per step and variable (`per_step_precision` is
/// `Some(0)`).
fn ocean_model() -> Model {
    let steps = OceanModel::new(ocean()).run(cfg().steps);
    let fields = steps
        .into_iter()
        .flat_map(|out| out.fields.into_iter().map(move |f| (out.step, f)));
    fields.fold(Model::new(), |model, (step, f)| {
        let binner = Binner::fit_precision_anchored(&f.data, 0);
        model.with(step, f.name, binner, &f.data)
    })
}

/// Per stored step: every variable over its middle bins, inside a region
/// and not, and the first two variables' correlation under those queries.
fn battery(model: &Model, steps: &[usize]) -> Vec<QueryRequest> {
    let mut out = Vec::new();
    for &step in steps {
        let queries = |var| {
            let (b, n) = (
                model.column(step, var).binner(),
                model.column(step, var).rows(),
            );
            let mid = SubsetQuery::value(
                b.bin_range(b.nbins() / 4).0,
                b.bin_range(b.nbins() * 3 / 4).1,
            );
            [mid.clone(), mid.with_region(n / 5..n * 3 / 4)]
        };
        let vars = model.variables(step);
        for (variable, query) in vars.iter().flat_map(|&v| queries(v).map(|q| (v.into(), q))) {
            out.push(QueryRequest::Subset {
                step,
                variable,
                query,
            });
        }
        let ([_, query_a], [query_b, _]) = (queries(vars[0]), queries(vars[1]));
        let (var_a, var_b) = (vars[0].into(), vars[1].into());
        out.push(QueryRequest::Correlation {
            step,
            var_a,
            var_b,
            query_a,
            query_b,
        });
    }
    out
}

/// Every blob write of the clean run is a crash point. A run whose write
/// `k` fails on every attempt stops with `StorageExhausted`; resuming it
/// leaves the clean run's directory byte for byte, and the store answers
/// like the simulated data. Every write is torn under Shared cores; under
/// Separate cores each write of the second winner's group is torn, then
/// failed with an I/O error.
fn every_blob_write_is_a_crash_point(order: RowOrder) {
    let clean_dir = TempDir::new(&format!("points-clean-{}", order.name()));
    let clean = run_through_kills(order, CoreAllocation::Shared, &[], &clean_dir);
    let reference = dir_contents(&clean_dir);
    let content = content_digest(&clean_dir);
    let writes = reference.keys().filter(|f| f.ends_with(".ibis")).count() as u64;
    let model = ocean_model();
    let battery = battery(&model, &clean.selected);
    let config = |allocation, faults| {
        let mut c = cfg();
        (c.row_order, c.allocation, c.robustness.faults) = (order, allocation, faults);
        c
    };
    let crash_at = |allocation, faults: FaultPlan| {
        let tag = format!("{order:?} {allocation:?} {faults:?}");
        let dir = TempDir::new(&format!("point-{}", order.name()));
        let faults = faults.with_persistent_write_faults();
        let err = run_durable(OceanModel::new(ocean()), &config(allocation, faults), &dir);
        assert!(
            matches!(err, Err(IbisError::StorageExhausted { .. })),
            "{tag}: {err:?}"
        );
        let c = config(allocation, FaultPlan::none());
        let resumed = resume_durable(OceanModel::new(ocean()), &c, &dir).unwrap();
        assert_eq!(resumed.selected, clean.selected, "{tag}");
        assert!(
            dir_contents(&dir) == reference,
            "{tag}: not the clean store"
        );
        assert_eq!(content_digest(&dir), content, "{tag}");
        let engine = QueryEngine::open(&dir, 64 << 20).unwrap();
        for req in &battery {
            let want = support::answer(&model, req).unwrap();
            assert_eq!(engine.run(req).unwrap(), want, "{tag} {req:?}");
        }
    };
    for op in 0..writes {
        crash_at(
            CoreAllocation::Shared,
            FaultPlan::none().with_torn_write_at(op),
        );
    }
    // a fault one past the last write never fires: `writes` counts them all
    let past = FaultPlan::none().with_torn_write_at(writes);
    let dir = TempDir::new(&format!("points-past-{}", order.name()));
    run_durable(
        OceanModel::new(ocean()),
        &config(CoreAllocation::Shared, past),
        &dir,
    )
    .unwrap();
    let group = writes / clean.selected.len() as u64;
    for op in group..2 * group {
        crash_at(SEPARATE, FaultPlan::none().with_torn_write_at(op));
        crash_at(SEPARATE, FaultPlan::none().with_io_error_at(op));
    }
}

#[test]
fn every_blob_write_is_a_crash_point_in_ingest_order() {
    every_blob_write_is_a_crash_point(RowOrder::Identity);
}

#[test]
fn every_blob_write_is_a_crash_point_under_graybin() {
    every_blob_write_is_a_crash_point(RowOrder::GrayBin);
}

#[test]
fn resume_on_fresh_directory_is_a_fresh_run() {
    let a = TempDir::new("fresh-a");
    let b = TempDir::new("fresh-b");
    let r1 = run_durable(OceanModel::new(ocean()), &cfg(), &a).unwrap();
    // no checkpoint in `b`, so resume falls back to a clean start
    let r2 = resume_durable(OceanModel::new(ocean()), &cfg(), &b).unwrap();
    assert_eq!(r1.selected, r2.selected);
    assert_eq!(dir_contents(&a), dir_contents(&b));
}

#[test]
fn flipped_byte_is_quarantined_and_excluded_from_series() {
    let dir = TempDir::new("fsck");
    let report = run_durable(OceanModel::new(ocean()), &cfg(), &dir).unwrap();
    let victim = report.selected[1];

    // corrupt one payload byte of one temperature blob
    let file = dir.join(format!("s{victim:06}_temperature.ibis"));
    let mut bytes = std::fs::read(&file).expect("blob exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();

    let mut store = Store::open(&dir).unwrap();
    let fsck = store.fsck();
    assert_eq!(fsck.quarantined.len(), 1, "exactly the flipped blob");
    assert_eq!(fsck.quarantined[0].step, victim);
    assert_eq!(fsck.quarantined[0].variable, "temperature");
    assert!(dir
        .join(format!("s{victim:06}_temperature.ibis.quarantined"))
        .exists());

    // reads now see only intact data
    let series = store.load_series("temperature").unwrap();
    let steps: Vec<usize> = series.iter().map(|(s, _)| *s).collect();
    let expected: Vec<usize> = report
        .selected
        .iter()
        .copied()
        .filter(|&s| s != victim)
        .collect();
    assert_eq!(steps, expected, "corrupt step must drop out of the series");
    assert!(matches!(
        store.get(victim, "temperature"),
        Err(IbisError::NotFound { .. })
    ));
    // untouched variables are unaffected
    assert_eq!(store.load_series("salinity").unwrap().len(), 4);
}
