//! Crash/resume regression for the durable pipeline, on the Ocean model:
//! a run killed mid-flight — at any step, at any append, or at any
//! `CHECKPOINT` write — and resumed must leave a store byte-identical to
//! an uninterrupted run's that answers like the data it was fed; so must
//! a sharded ingest whose appends are torn or fail one by one; and
//! corruption on disk must be detected, quarantined, and excluded from
//! analysis.

mod support;

use ibis_analysis::{Metric, SubsetQuery};
use ibis_core::{Binner, BitmapIndex, RowOrder};
use ibis_datagen::{OceanConfig, OceanModel, Simulation};
use ibis_insitu::{
    codec, crc::crc32c_append, pipeline::pending_checkpoint, resume_durable, run_durable,
    CoreAllocation, FaultInjector, FaultPlan, IbisError, MachineModel, PipelineConfig, QueryEngine,
    QueryRequest, Reduction, RobustnessConfig, ScalingModel, ShardedStore, ShardedWriter, Store,
    ORDER_VARIABLE,
};
use ibis_testkit::{Model, TempDir};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

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

/// Every durable artifact in the directory and the directories under it,
/// path → bytes. A finished run leaves only segments and the manifest (and
/// a sharded one its `SHARDS` file); anything else (checkpoint, temp
/// files) would be a cleanup bug and makes the comparison fail.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().expect("file type").is_dir() {
            let inner = dir_contents(&entry.path()).into_iter();
            out.extend(inner.map(|(file, bytes)| (format!("{name}/{file}"), bytes)));
        } else {
            out.insert(name, std::fs::read(entry.path()).expect("read file"));
        }
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
    // directory. It moved when every blob became one `IBF` frame (from
    // 0xd9d6_89c4 / 0x509a_f3ac at commit 00a759e), when `__order`
    // payloads became run-coded (GrayBin's alone, from 0x1efe_399d at
    // 12dab24), and when a step's frames moved into one append-only
    // segment behind record headers, the manifest lines gaining offsets
    // (from 0x789d_fa5e / 0x10f2_13bc at ee5ca40). The content digest —
    // what the store decodes to: every index, and every order's tag and
    // inverse permutation — was recorded at 00a759e and has moved under
    // none of them: the counting sort builds the permutation the
    // comparison sort built, and a segment holds the frames a file did.
    for (order, parent_digest, parent_content) in [
        (RowOrder::Identity, 0x381f_ce3e_u32, 0x03e3_a341_u32),
        (RowOrder::GrayBin, 0xb6ea_5b66, 0x0d26_42bb),
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
            "a finished run leaves only segments and the manifest: {:?}",
            reference.keys()
        );
        let manifest = String::from_utf8_lossy(&reference["MANIFEST"]).into_owned();
        assert_eq!(
            manifest.contains(ORDER_VARIABLE),
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
                // CHECKPOINT or temp file, or a record appended twice,
                // fails the comparison
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

/// Every write of the clean run is a crash point: each append of an entry
/// to its segment, and each `CHECKPOINT` write. A run whose write `k`
/// fails on every attempt stops with `StorageExhausted` naming that
/// write; resuming it leaves the clean run's directory byte for byte, and
/// the store answers like the simulated data. Every write is torn under
/// Shared cores; under Separate cores each write of the run's second
/// quarter is torn, then failed with an I/O error.
fn every_blob_write_is_a_crash_point(order: RowOrder) {
    let clean_dir = TempDir::new(&format!("points-clean-{}", order.name()));
    let clean = run_through_kills(order, CoreAllocation::Shared, &[], &clean_dir);
    let reference = dir_contents(&clean_dir);
    let content = content_digest(&clean_dir);
    let manifest = String::from_utf8_lossy(&reference["MANIFEST"]).into_owned();
    let appends = manifest.lines().filter(|l| !l.starts_with('#')).count() as u64;
    // one append a stored entry, one checkpoint a step
    let writes = appends + cfg().steps as u64;
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
        let Err(IbisError::StorageExhausted { site, .. }) = err else {
            panic!("{tag}: {err:?}");
        };
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
        site
    };
    let sites: Vec<String> = (0..writes)
        .map(|op| {
            let torn = FaultPlan::none().with_torn_write_at(op);
            crash_at(CoreAllocation::Shared, torn)
        })
        .collect();
    // the crash points by name: every checkpoint, and every append
    let named = |what: &str| sites.iter().filter(|s| s.contains(what)).count() as u64;
    assert_eq!(named("store CHECKPOINT"), cfg().steps as u64, "{sites:?}");
    assert_eq!(named("store segment s"), appends, "{sites:?}");
    // a fault one past the last write never fires: `writes` counts them all
    let past = FaultPlan::none().with_torn_write_at(writes);
    let dir = TempDir::new(&format!("points-past-{}", order.name()));
    run_durable(
        OceanModel::new(ocean()),
        &config(CoreAllocation::Shared, past),
        &dir,
    )
    .unwrap();
    let quarter = writes / 4;
    for op in quarter..2 * quarter {
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
    let located = Store::open(&dir).unwrap().locate(victim, "temperature");
    let (file, frame) = located.expect("the entry is stored");
    let mut bytes = std::fs::read(&file).expect("segment exists");
    let mid = (frame.start + frame.end) as usize / 2;
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

/// A step's fields: each one's name, binner and values.
type Fields = Vec<(&'static str, Binner, Vec<f64>)>;

/// The first 8 Ocean steps' temperature and salinity, each binned as the
/// durable run bins it.
fn ocean_steps() -> Vec<(usize, Fields)> {
    let steps = OceanModel::new(ocean()).run(8).into_iter();
    let fixture = |f: &ibis_datagen::Field| ["temperature", "salinity"].contains(&f.name);
    let binned =
        |f: ibis_datagen::Field| (f.name, Binner::fit_precision_anchored(&f.data, 0), f.data);
    steps
        .map(|out| {
            let fields = out.fields.into_iter().filter(fixture);
            (out.step, fields.map(binned).collect())
        })
        .collect()
}

/// The fixture's shape of a sharded ingest: Ocean's two fields over 8
/// steps into 4 shards, each step's GrayBin order put before the indices
/// built under it — 24 appends: the order, then each field's 4 slices in
/// one append. Every entry is put, durable or not, so
/// after a resume the same call is the repair.
fn sharded_ingest(w: &mut ShardedWriter, steps: &[(usize, Fields)]) -> ibis_insitu::Result<()> {
    for (step, fields) in steps {
        let (_, binner, values) = &fields[0];
        let perm = RowOrder::GrayBin
            .permutation(&[], binner, values)
            .expect("ocean fields sort");
        w.put_order(*step, RowOrder::GrayBin, &perm)?;
        for (name, binner, values) in fields {
            w.put(
                *step,
                name,
                &BitmapIndex::build_permuted(values, binner.clone(), &perm),
            )?;
        }
    }
    Ok(())
}

/// Every append of a 4-shard ingest is a crash point, torn and failed
/// with an I/O error in turn, on every attempt: the ingest stops with
/// `StorageExhausted`, and `ShardedWriter::resume`, the same puts and
/// `finish` leave the uninterrupted ingest's tree byte for byte, which
/// answers like the data it was fed. Op `k` is the `k`-th append of the
/// whole ingest: one a put, whatever the shard count.
#[test]
fn every_append_of_a_sharded_ingest_is_a_crash_point() {
    let steps = ocean_steps();
    let model = steps.iter().fold(Model::new(), |model, (step, fields)| {
        let mut model = model;
        for (name, binner, values) in fields {
            model = model.with(*step, name, binner.clone(), values);
        }
        model
    });
    let clean_dir = TempDir::new("sharded-clean");
    let mut w = ShardedWriter::create(&clean_dir, 4).unwrap();
    sharded_ingest(&mut w, &steps).unwrap();
    w.finish().unwrap();
    let reference = dir_contents(&clean_dir);
    let appends = 8 * 3;
    let stored: Vec<usize> = steps.iter().map(|(step, _)| *step).collect();
    let battery = battery(&model, &stored);
    for op in 0..appends + 1 {
        for fault in [
            FaultPlan::none().with_torn_write_at(op),
            FaultPlan::none().with_io_error_at(op),
        ] {
            let tag = format!("{fault:?}");
            let dir = TempDir::new("sharded-point");
            let injector = Arc::new(FaultInjector::new(fault.with_persistent_write_faults()));
            let mut w = ShardedWriter::create(&dir, 4)
                .unwrap()
                .with_fault_injector(injector);
            match sharded_ingest(&mut w, &steps) {
                // a fault one past the last append never fires
                Ok(()) => assert_eq!(op, appends, "{tag}"),
                Err(err) => assert!(
                    matches!(err, IbisError::StorageExhausted { .. }) && op < appends,
                    "{tag}: {err}"
                ),
            }
            drop(w);
            let mut w = ShardedWriter::resume(&dir).unwrap();
            sharded_ingest(&mut w, &steps).unwrap();
            w.finish().unwrap();
            assert!(dir_contents(&dir) == reference, "{tag}: not the clean tree");
            let engine = QueryEngine::open(&dir, 64 << 20).unwrap();
            for req in &battery {
                let want = support::answer(&model, req).unwrap();
                assert_eq!(engine.run(req).unwrap(), want, "{tag} {req:?}");
            }
        }
    }
}

/// The last put of a 4-shard ingest appends its 4 records in one write.
/// A crash may leave any prefix of it: the segment is cut at every
/// record boundary of the last step and a byte either side. Resume keeps
/// the whole records before the cut, and cuts the rest off; re-running
/// the same puts appends only what was lost, and `finish` leaves the
/// uninterrupted ingest's tree byte for byte.
#[test]
fn a_cut_through_a_multi_record_append_keeps_the_whole_records() {
    let steps = ocean_steps();
    let clean_dir = TempDir::new("multi-record-clean");
    let mut w = ShardedWriter::create(&clean_dir, 4).unwrap();
    sharded_ingest(&mut w, &steps).unwrap();
    w.finish().unwrap();
    let reference = dir_contents(&clean_dir);
    let killed = TempDir::new("multi-record-killed");
    let mut w = ShardedWriter::create(&killed, 4).unwrap();
    sharded_ingest(&mut w, &steps).unwrap();
    drop(w); // no finish(): the process is gone
    let last = steps.last().unwrap().0;
    let file = format!("s{last:06}.ibis");
    let segment = std::fs::read(killed.join(&file)).unwrap();
    // every record's end in the last step's segment, from the clean store
    let store = ShardedStore::open(&clean_dir).unwrap();
    let mut ends = vec![0];
    for (shard, var) in
        (0..4).flat_map(|s| [ORDER_VARIABLE, "temperature", "salinity"].map(|v| (s, v)))
    {
        let (located, at) = store.shards()[shard].locate(last, var).unwrap();
        assert_eq!(located, clean_dir.join(&file));
        ends.push(at.end as usize);
    }
    ends.sort_unstable();
    ends.dedup();
    assert_eq!(*ends.last().unwrap(), segment.len());
    // the last put's records are the last four
    let put = &ends[ends.len() - 5..];
    let cuts = put.iter().flat_map(|&b| [b - 1, b, b + 1]);
    for cut in cuts.filter(|&cut| cut <= segment.len()) {
        let dir = TempDir::new("multi-record-cut");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in dir_contents(&killed) {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        std::fs::write(dir.join(&file), &segment[..cut]).unwrap();
        let mut w = ShardedWriter::resume(&dir).unwrap();
        let whole = *ends.iter().filter(|&&end| end <= cut).max().unwrap();
        let kept = std::fs::read(dir.join(&file)).unwrap();
        assert_eq!(kept, segment[..whole], "cut {cut}");
        assert_eq!(w.contains(last, "salinity"), cut == segment.len());
        assert_eq!(w.contains(last, "temperature"), cut >= put[0], "cut {cut}");
        sharded_ingest(&mut w, &steps).unwrap();
        w.finish().unwrap();
        assert!(
            dir_contents(&dir) == reference,
            "cut {cut}: not the clean tree"
        );
    }
}
