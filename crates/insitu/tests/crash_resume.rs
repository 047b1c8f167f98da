//! Crash/resume regression for the durable pipeline, on the Ocean model:
//! a run killed mid-flight — at any step, at any append, or at any
//! `CHECKPOINT` write — and resumed must leave a store byte-identical to
//! an uninterrupted run's that answers like the data it was fed; so must
//! a sharded ingest whose appends are torn or fail one by one; and
//! corruption on disk must be detected, quarantined, and excluded from
//! analysis.

mod support;

use ibis_analysis::sampling::SamplingMethod;
use ibis_analysis::{Metric, SubsetQuery};
use ibis_core::{Binner, BitmapIndex, RowOrder, RowPermutation};
use ibis_datagen::{OceanConfig, OceanModel, Simulation};
use ibis_insitu::{
    codec, crc::crc32c_append, pipeline::pending_checkpoint, resume_durable, run_durable,
    run_durable_on, CoreAllocation, FailurePolicy, FaultPlan, IbisError, InsituReport,
    MachineModel, PipelineConfig, QueryEngine, QueryRequest, Reduction, RobustnessConfig,
    ScalingModel, ShardedStore, ShardedWriter, StepOutcome, Store, StoreWriter, ORDER_VARIABLE,
};
use ibis_testkit::{Model, TempDir};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
// every durable artifact in a directory tree, path → bytes: a finished
// run leaves only segments and the manifest (and a sharded one its
// `SHARDS` file); anything else (checkpoint, temp files) would be a
// cleanup bug and makes a comparison fail
use ibis_testkit::crash::tree as dir_contents;
use support::crash::Recorder;

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

/// [`cfg`] under `order` and `allocation`.
fn config(order: RowOrder, allocation: CoreAllocation) -> PipelineConfig {
    PipelineConfig {
        row_order: order,
        allocation,
        ..cfg()
    }
}

/// Runs `base` to completion through a kill at each step of `kills` in
/// turn (each resume carries the next kill, added to `base`'s faults), and
/// returns the final report.
fn run_through_kills(base: &PipelineConfig, kills: &[usize], dir: &Path) -> InsituReport {
    let cfg_with = |kill: Option<&usize>| {
        let mut c = base.clone();
        if let Some(&step) = kill {
            c.robustness.faults = c.robustness.faults.clone().with_kill_at_step(step);
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
        let clean = run_through_kills(&config(order, CoreAllocation::Shared), &[], &clean_dir);
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
                let resumed = run_through_kills(&config(order, allocation), kills, &crash_dir);
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

/// Makes in `dir` the change `resume_durable` starts with — the resume
/// scan, or without a checkpoint a fresh run's retirement, idempotent both
/// — and digests the tree it leaves: two trees alike resume alike.
fn settle(dir: &Path) -> u64 {
    match pending_checkpoint(dir) {
        Some(_) => drop(StoreWriter::resume(dir).unwrap()),
        None => drop(StoreWriter::create(dir).unwrap()),
    }
    let mut hash = std::collections::hash_map::DefaultHasher::new();
    dir_contents(dir).hash(&mut hash);
    hash.finish()
}

/// Holds the finished store in `dir` to the model: fsck quarantines the
/// entries `lost` names (a step, and a variable of it) and no other, and
/// every request of `battery` answers as the model does but those that ask
/// a lost entry, which fail.
fn assert_answers(
    dir: &Path,
    model: &Model,
    battery: &[QueryRequest],
    lost: &[(usize, &str)],
    tag: &str,
) {
    let mut store = ShardedStore::open(dir).unwrap_or_else(|e| panic!("{tag}: {e}"));
    let fsck = store.fsck().into_iter().flat_map(|r| r.quarantined);
    let fsck: Vec<_> = fsck.map(|q| (q.step, q.variable)).collect();
    let named = fsck.iter().map(|(step, v)| (*step, v.as_str()));
    assert!(named.eq(lost.iter().copied()), "{tag}: lost {fsck:?}");
    let engine = QueryEngine::open(dir, 64 << 20).unwrap();
    for req in battery {
        let asks = |step: &usize, vars: &[&String]| vars.iter().any(|v| lost.contains(&(*step, v)));
        let want = match req {
            QueryRequest::Subset { step, variable, .. } if asks(step, &[variable]) => None,
            QueryRequest::Correlation {
                step, var_a, var_b, ..
            } if asks(step, &[var_a, var_b]) => None,
            _ => Some(support::answer(model, req).unwrap()),
        };
        assert_eq!(engine.run(req).ok(), want, "{tag} {req:?}");
    }
}

/// Every state a crash may leave of a durable run (`support::crash`) —
/// appends and `CHECKPOINT` writes lost, torn or kept, names not yet
/// synced lost or kept, the `CHECKPOINT` unlink lost — resumes to the
/// uninterrupted run's directory, under Shared cores and (the second
/// quarter) Separate cores, unless it [`settle`]s to an earlier state's
/// tree; one holding the `MANIFEST`, as every one after the run returned,
/// answers like the data.
fn every_crash_state_of_a_durable_run_resumes_to_the_clean_store(order: RowOrder) {
    let dir = TempDir::new(&format!("states-{}", order.name()));
    let rec = Recorder::new(&dir);
    let shared = config(order, CoreAllocation::Shared);
    let clean = run_durable_on(rec, OceanModel::new(ocean()), &shared, &dir).unwrap();
    let (reference, model) = (dir_contents(&dir), ocean_model());
    let battery = battery(&model, &clean.selected);
    let (states, end, mut resumed) = (rec.states(false), rec.len(), HashSet::new());
    for (i, state) in states.iter().enumerate() {
        let tag = format!("{order:?}, state {i} of {}: {}", states.len(), state.label);
        let finished = state.files.contains_key("MANIFEST");
        assert!(finished || state.last < end, "{tag}: returned unfinished");
        let second_quarter = (states.len() / 4..states.len() / 2).contains(&i);
        let allocations = [CoreAllocation::Shared, SEPARATE];
        for &allocation in &allocations[..1 + usize::from(second_quarter)] {
            let work = TempDir::new("state");
            state.materialise(&work);
            if finished {
                assert_answers(&work, &model, &battery, &[], &tag);
            }
            if resumed.insert((settle(&work), format!("{allocation:?}"))) {
                let c = config(order, allocation);
                let report = resume_durable(OceanModel::new(ocean()), &c, &work).unwrap();
                assert_eq!(report.selected, clean.selected, "{tag}");
                assert!(dir_contents(&work) == reference, "{tag}: not clean");
            }
        }
    }
}

#[test]
fn every_crash_state_of_a_durable_run_resumes_to_the_clean_store_in_ingest_order() {
    every_crash_state_of_a_durable_run_resumes_to_the_clean_store(RowOrder::Identity);
}

#[test]
fn every_crash_state_of_a_durable_run_resumes_to_the_clean_store_under_graybin() {
    every_crash_state_of_a_durable_run_resumes_to_the_clean_store(RowOrder::GrayBin);
}

/// Steps whose fallback summary (a 1 % sample) loses, and wins, its
/// interval of the degraded-step test's run.
const DEGRADED_LOSES: usize = 1;
const DEGRADED_WINS: usize = 6;

/// A degraded step — its reduction panicked, and the sampling fallback
/// summarized it — is rebuilt by that fallback on resume. Killed at every
/// step, a run whose degraded step loses its interval (it is held while
/// the interval is open) and one whose degraded step wins it (it is then
/// the previous winner) resume to the uninterrupted run's store, byte for
/// byte, with its selection and outcomes.
#[test]
fn a_killed_run_with_a_degraded_step_resumes_to_the_uninterrupted_store() {
    for order in [RowOrder::Identity, RowOrder::GrayBin] {
        for (degraded, wins) in [(DEGRADED_LOSES, false), (DEGRADED_WINS, true)] {
            let mut base = config(order, CoreAllocation::Shared);
            base.robustness.policy = FailurePolicy::FallbackSampling {
                percent: 1.0,
                method: SamplingMethod::Stride,
            };
            base.robustness.faults = FaultPlan::none().with_consumer_panic_at(degraded);
            let tag = format!("{order:?}, step {degraded} degraded");
            let clean_dir = TempDir::new(&format!("degraded-{}-{degraded}", order.name()));
            let clean = run_through_kills(&base, &[], &clean_dir);
            assert!(
                matches!(
                    clean.step_outcomes[degraded],
                    StepOutcome::FallbackSampled { .. }
                ),
                "{tag}"
            );
            assert_eq!(clean.selected.contains(&degraded), wins, "{tag}");
            let reference = dir_contents(&clean_dir);
            for kill in 1..base.steps {
                let dir = TempDir::new(&format!("degraded-{}-{degraded}-{kill}", order.name()));
                let resumed = run_through_kills(&base, &[kill], &dir);
                assert_eq!(resumed.selected, clean.selected, "{tag}, killed at {kill}");
                assert_eq!(
                    resumed.step_outcomes, clean.step_outcomes,
                    "{tag}, killed at {kill}"
                );
                assert!(
                    dir_contents(&dir) == reference,
                    "{tag}, killed at {kill}: not the uninterrupted store"
                );
            }
        }
    }
}

/// The record of `entry` in a segment's bytes: where it starts, and the
/// byte range of its frame.
fn record_of(segment: &[u8], entry: &str) -> (usize, std::ops::Range<usize>) {
    let header = [&b"IBR"[..], &[entry.len() as u8], entry.as_bytes()].concat();
    let start = (segment.windows(header.len()))
        .position(|w| w == header)
        .unwrap_or_else(|| panic!("no record of {entry}"));
    let len_at = start + header.len();
    let len = u64::from_le_bytes(segment[len_at..len_at + 8].try_into().unwrap());
    let frame = len_at + 12;
    (start, frame..frame + len as usize)
}

/// A resumed run rebuilds its previous winner from the replay, so the
/// store must still hold it: with the winner's order or one of its fields
/// torn, flipped or cut off, resuming is refused, naming the step and the
/// entry.
#[test]
fn a_resume_whose_previous_winner_is_not_durable_is_refused() {
    let (dir, kill) = (TempDir::new("lost-winner"), 9);
    let resume = config(RowOrder::GrayBin, CoreAllocation::Shared);
    let mut c = resume.clone();
    c.robustness.faults = FaultPlan::none().with_kill_at_step(kill);
    let err = run_durable(OceanModel::new(ocean()), &c, &dir).unwrap_err();
    assert_eq!(err, IbisError::Killed { step: kill });
    // the previous winner is the last step whose records landed
    let winner = *StoreWriter::resume(&dir)
        .unwrap()
        .durable_steps()
        .last()
        .unwrap();
    assert!(winner > 0, "a winner after the seed");
    let killed = dir_contents(&dir);
    let segment = format!("s{winner:06}.ibis");
    let fields = OceanModel::new(ocean()).step().fields;
    let entries = [ORDER_VARIABLE]
        .into_iter()
        .chain(fields.iter().map(|f| f.name));
    for entry in entries {
        let clean = &killed[&segment];
        let (start, frame) = record_of(clean, entry);
        let mid = (frame.start + frame.end) / 2;
        let mut flipped = clean.clone();
        flipped[mid] ^= 0x10;
        let damaged = [
            ("torn", clean[..mid].to_vec()),
            ("flipped", flipped),
            ("cut", clean[..start].to_vec()),
        ];
        for (damage, bytes) in damaged {
            let work = TempDir::new("lost-winner-state");
            std::fs::create_dir_all(&work).unwrap();
            for (name, content) in &killed {
                std::fs::write(work.join(name), content).unwrap();
            }
            std::fs::write(work.join(&segment), bytes).unwrap();
            let err = resume_durable(OceanModel::new(ocean()), &resume, &work).unwrap_err();
            let IbisError::BadCheckpoint(msg) = &err else {
                panic!("{entry} {damage}: expected BadCheckpoint, got {err}");
            };
            let named = msg.contains(&format!("step {winner}")) && msg.contains(entry);
            assert!(named, "{entry} {damage}: {msg}");
        }
    }
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

/// A step's fields: each one's name, binner and values.
type Fields = Vec<(&'static str, Binner, Vec<f64>)>;

/// The first 8 Ocean steps' temperature and salinity, each binned as the
/// durable run bins it, and their model.
fn ocean_steps() -> (Vec<(usize, Fields)>, Model) {
    let steps = OceanModel::new(ocean()).run(8).into_iter();
    let fixture = |f: &ibis_datagen::Field| ["temperature", "salinity"].contains(&f.name);
    let binned =
        |f: ibis_datagen::Field| (f.name, Binner::fit_precision_anchored(&f.data, 0), f.data);
    let steps: Vec<(usize, Fields)> = steps
        .map(|out| {
            (
                out.step,
                out.fields.into_iter().filter(fixture).map(binned).collect(),
            )
        })
        .collect();
    let fields = steps
        .iter()
        .flat_map(|(step, fields)| fields.iter().map(move |f| (*step, f)));
    let model = fields.fold(Model::new(), |model, (step, (name, binner, values))| {
        model.with(step, name, binner.clone(), values)
    });
    (steps, model)
}

/// The fixture's shape of a sharded ingest: each step's GrayBin order,
/// and the indices built under it.
type Put = (usize, RowPermutation, Vec<(&'static str, BitmapIndex)>);

fn ingest_puts(steps: &[(usize, Fields)]) -> Vec<Put> {
    let put = |(step, fields): &(usize, Fields)| {
        let perm = RowOrder::GrayBin
            .permutation(&[], &fields[0].1, &fields[0].2)
            .unwrap();
        let build = |(name, binner, values): &(&'static str, Binner, Vec<f64>)| {
            (
                *name,
                BitmapIndex::build_permuted(values, binner.clone(), &perm),
            )
        };
        (*step, perm.clone(), fields.iter().map(build).collect())
    };
    steps.iter().map(put).collect()
}

/// Puts every step of `puts`, the order first — durable or not, so after
/// a resume the same call is the repair — calling `landed` with each entry
/// a put returned for.
fn ingest(w: &mut ShardedWriter, puts: &[Put], mut landed: impl FnMut(usize, &'static str)) {
    for (step, perm, indices) in puts {
        w.put_order(*step, RowOrder::GrayBin, perm).unwrap();
        landed(*step, ORDER_VARIABLE);
        for (name, index) in indices {
            w.put(*step, name, index).unwrap();
            landed(*step, name);
        }
    }
}

/// Every state a crash may leave of a `k`-shard ingest of [`ocean_steps`]
/// into `dir`, `create`'s retirement of what `dir` held included. One
/// holding a `MANIFEST`, old or new, answers like the data. One a crash
/// before `create_on` returned leaves is created afresh, one a later crash
/// leaves is resumed and holds every entry a put had returned for; the
/// same puts and `finish` leave the uninterrupted ingest's tree (once a
/// tree: a state resumed to one an earlier state's resume left is not).
fn every_crash_state_of_an_ingest_resumes_to_the_clean_tree(dir: &Path, k: usize, every: bool) {
    let (steps, model) = ocean_steps();
    let puts = ingest_puts(&steps);
    let battery = battery(&model, &steps.iter().map(|s| s.0).collect::<Vec<_>>());
    let rec = Recorder::new(dir);
    let mut w = ShardedWriter::create_on(rec, dir, k).unwrap();
    let (created, mut landed) = (rec.len(), Vec::new());
    ingest(&mut w, &puts, |step, entry| {
        landed.push((rec.len(), step, entry))
    });
    w.finish().unwrap();
    let (states, reference) = (rec.states(every), dir_contents(dir));
    let mut held: HashMap<u64, usize> = HashMap::new(); // tree → the latest crash checked
    for (i, state) in states.iter().enumerate() {
        let tag = format!("state {i} of {}: {}", states.len(), state.label);
        let (before, after) = (state.first < created, state.last >= created);
        for fresh in [true, false]
            .into_iter()
            .filter(|&f| if f { before } else { after })
        {
            let work = TempDir::new("ingest-state");
            state.materialise(&work);
            if state.files.contains_key("MANIFEST") {
                assert_answers(&work, &model, &battery, &[], &tag);
            }
            let mut w = match fresh {
                true => ShardedWriter::create(&work, k).unwrap(),
                false => ShardedWriter::resume(&work).unwrap(),
            };
            assert_eq!(w.nshards(), k, "{tag}");
            let mut hash = std::collections::hash_map::DefaultHasher::new();
            (fresh, dir_contents(&work)).hash(&mut hash);
            let checked = held.get(&hash.finish()).copied();
            if !fresh && checked.is_none_or(|last| last < state.last) {
                for &(_, step, entry) in landed.iter().filter(|(at, ..)| *at <= state.last) {
                    assert!(w.contains(step, entry), "{tag}: {step} {entry} was put");
                }
            }
            held.insert(hash.finish(), checked.unwrap_or(0).max(state.last));
            if checked.is_none() {
                ingest(&mut w, &puts, |_, _| {});
                w.finish().unwrap();
                assert!(dir_contents(&work) == reference, "{tag}: not clean");
            }
        }
    }
}

/// [`every_crash_state_of_an_ingest_resumes_to_the_clean_tree`] of the
/// fixture's shape, 4 shards, its last append torn at every byte.
#[test]
fn every_crash_state_of_a_sharded_ingest_resumes_to_the_clean_tree() {
    every_crash_state_of_an_ingest_resumes_to_the_clean_tree(&TempDir::new("sharded"), 4, true);
}

/// The same, of a flat ingest retiring a finished 4-shard store of the
/// same data: its `MANIFEST` unlinked and synced, then its segments and
/// `SHARDS` file, synced.
#[test]
fn every_crash_state_of_a_flat_ingest_over_a_sharded_store_resumes_to_the_clean_tree() {
    let dir = TempDir::new("over-sharded");
    let mut w = ShardedWriter::create(&dir, 4).unwrap();
    ingest(&mut w, &ingest_puts(&ocean_steps().0), |_, _| {});
    w.finish().unwrap();
    every_crash_state_of_an_ingest_resumes_to_the_clean_tree(&dir, 1, false);
}

/// A durable run over a finished 4-shard store — or a resume there, with
/// no checkpoint to resume from — writes the flat store a run into an
/// empty directory writes: the old store is retired, its `SHARDS` file
/// too, so the engine opens the new one and answers like the data.
#[test]
fn a_run_over_a_finished_sharded_store_writes_the_flat_store() {
    let fresh = TempDir::new("over-fresh");
    let clean = run_durable(OceanModel::new(ocean()), &cfg(), &fresh).unwrap();
    let model = ocean_model();
    let runs: [fn(&Path) -> ibis_insitu::Result<_>; 2] = [
        |dir| run_durable(OceanModel::new(ocean()), &cfg(), dir),
        |dir| resume_durable(OceanModel::new(ocean()), &cfg(), dir),
    ];
    for run in runs {
        let dir = TempDir::new("over-sharded");
        let mut w = ShardedWriter::create(&dir, 4).unwrap();
        ingest(&mut w, &ingest_puts(&ocean_steps().0), |_, _| {});
        w.finish().unwrap();
        assert_eq!(run(&dir).unwrap().selected, clean.selected);
        assert_answers(&dir, &model, &battery(&model, &clean.selected), &[], "over");
        assert!(dir_contents(&dir) == dir_contents(&fresh));
    }
}

/// A flipped byte is quarantined — set aside whole, then spoiled in place
/// — and the series loses that step alone, in every state a crash of the
/// fsck may leave: its copy, the copy's name and the frame's spoiled magic
/// each lost, torn or kept as the syncs allow. In every state the damaged
/// frame is still in place or spoiled with its whole copy beside it, and
/// an fsck of it reports that entry lost and answers like the data for
/// every other.
#[test]
fn flipped_byte_is_quarantined_and_excluded_from_series() {
    let dir = TempDir::new("fsck");
    let report = run_durable(OceanModel::new(ocean()), &cfg(), &dir).unwrap();
    let victim = report.selected[1];
    let (file, at) = Store::open(&dir)
        .unwrap()
        .locate(victim, "temperature")
        .unwrap();
    let (at, mut bytes) = (
        at.start as usize..at.end as usize,
        std::fs::read(&file).unwrap(),
    );
    bytes[(at.start + at.end) / 2] ^= 0x01;
    std::fs::write(&file, &bytes).unwrap();
    let (damaged, segment) = (
        &bytes[at.clone()],
        file.file_name().unwrap().to_str().unwrap(),
    );
    let (rec, copy) = (
        Recorder::new(&dir),
        format!("s{victim:06}_temperature.ibis.quarantined"),
    );
    let mut store = Store::open(&dir).unwrap();
    let lost = store.fsck_on(rec).quarantined;
    assert_eq!(
        lost.iter()
            .map(|q| (q.step, &q.variable[..]))
            .collect::<Vec<_>>(),
        [(victim, "temperature")]
    );
    let series = store
        .load_series("temperature")
        .unwrap()
        .into_iter()
        .map(|(s, _)| s);
    let kept: Vec<usize> = report
        .selected
        .iter()
        .copied()
        .filter(|&s| s != victim)
        .collect();
    assert_eq!(
        series.collect::<Vec<_>>(),
        kept,
        "the corrupt step drops out of the series"
    );
    let (states, model) = (rec.states(false), ocean_model());
    assert_eq!(
        states.last().unwrap().files.get(&copy).map(|c| &c[..]),
        Some(damaged)
    );
    for (i, state) in states.iter().enumerate() {
        let tag = format!("state {i} of {}: {}", states.len(), state.label);
        let held = &state.files[segment][at.clone()];
        if held != damaged {
            assert_eq!(
                (&held[..3], &held[3..]),
                (&b"IBQ"[..], &damaged[3..]),
                "{tag}"
            );
            assert_eq!(
                state.files.get(&copy).map(|c| &c[..]),
                Some(damaged),
                "{tag}: no copy"
            );
        }
        let work = TempDir::new("fsck-state");
        state.materialise(&work);
        let battery = battery(&model, &report.selected);
        assert_answers(&work, &model, &battery, &[(victim, "temperature")], &tag);
    }
}
