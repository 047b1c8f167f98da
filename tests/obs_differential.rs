//! Differential no-observer-effect harness (the observability layer's core
//! guarantee): an instrumented build and a `--no-default-features` (no-op)
//! build of the *same* Ocean end-to-end run must produce a byte-identical
//! durable store and identical selections. Metrics may observe the run;
//! they may never steer it.
//!
//! One `cargo test` invocation can only ever be one of the two builds, so
//! the harness is split across invocations: each run writes a digest of
//! everything observable (store file bytes, pipeline selection, cluster
//! selection) to `target/obs_differential/{instrumented,noop}.digest`, and
//! whichever run finds the other side's digest already on disk performs the
//! comparison. `scripts/ci.sh` clears the digest directory, runs the
//! workspace tests (instrumented), then this test under
//! `--no-default-features` — so CI always executes the comparison.

use ibis::analysis::Metric;
use ibis::core::RowOrder;
use ibis::datagen::{Heat3DConfig, OceanConfig, OceanModel};
use ibis::insitu::{
    run_cluster, run_durable, ClusterConfig, ClusterIo, ClusterReduction, CoreAllocation,
    MachineModel, PipelineConfig, Reduction, RobustnessConfig, ScalingModel,
};
use ibis_testkit::TempDir;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn pipeline_cfg() -> PipelineConfig {
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
        // A sorting order keeps the run on the reorder path, so the
        // differential also proves reordering itself has no observer effect
        // (and populates the `reorder.*` family below).
        row_order: RowOrder::GrayBin,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

fn cluster_cfg() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        cores_per_node: 2,
        machine: MachineModel::oakley_node(),
        heat: Heat3DConfig {
            nx: 12,
            ny: 12,
            nz: 16,
            ..Heat3DConfig::tiny()
        },
        sweeps_per_step: 1,
        steps: 7,
        select_k: 3,
        binner: ibis::core::Binner::precision(-1.0, 101.0, 0),
        reduction: ClusterReduction::Bitmaps,
        io: ClusterIo::Local,
        remote_bw: MachineModel::remote_link_bw(),
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
        coordinator_timeout: Duration::from_secs(30),
    }
}

/// Every durable artifact, name → bytes (same check as the crash/resume
/// suite: only blobs and the manifest may remain).
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, std::fs::read(entry.path()).expect("read file"));
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A line-oriented, diffable digest of everything the run produced that the
/// outside world can observe.
fn digest(store: &BTreeMap<String, Vec<u8>>, selected: &[usize], cluster: &[usize]) -> String {
    let mut out = String::new();
    out.push_str(&format!("pipeline.selected {selected:?}\n"));
    out.push_str(&format!("cluster.selected {cluster:?}\n"));
    for (name, bytes) in store {
        out.push_str(&format!(
            "store {name} len={} fnv1a={:016x}\n",
            bytes.len(),
            fnv1a(bytes)
        ));
    }
    out
}

fn digest_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/obs_differential"
    ))
}

#[test]
fn instrumentation_has_no_observer_effect() {
    let config = if ibis::obs::ENABLED {
        "instrumented"
    } else {
        "noop"
    };
    let other = if ibis::obs::ENABLED {
        "noop"
    } else {
        "instrumented"
    };

    let store_dir = TempDir::new(&format!("obs-differential-{config}"));

    // The workload: an Ocean durable end-to-end run (simulate → compress →
    // select → store) plus a small Heat3D cluster run.
    let report = run_durable(
        OceanModel::new(OceanConfig::tiny()),
        &pipeline_cfg(),
        &store_dir,
    )
    .expect("durable run");
    assert_eq!(report.selected.len(), 4);
    let cluster = run_cluster(&cluster_cfg()).expect("cluster run");
    let contents = dir_contents(&store_dir);
    assert!(!contents.is_empty(), "store must hold blobs + manifest");

    let mine = digest(&contents, &report.selected, &cluster.selected);

    // In the instrumented build the run above must have populated every
    // metric family the issue names — proof the layer actually observed
    // kernels, pipeline, store, cluster, the per-bin codec selection
    // (`codec.select.*` tick per built bin, `codec.encode.bins` per store
    // put), and
    // the row-reorder pass (`reorder.perm.built` / `reorder.pipeline.steps`
    // tick because the run above uses a data-dependent order).
    if ibis::obs::ENABLED {
        let snap = ibis::obs::global().snapshot();
        let families = snap.families();
        for family in [
            "kernels", "pipeline", "store", "cluster", "codec", "reorder",
        ] {
            assert!(
                families.contains(family),
                "family {family:?} missing from snapshot; have {families:?}"
            );
        }
    } else {
        assert!(
            ibis::obs::global().snapshot().is_empty(),
            "no-op build must record nothing"
        );
    }

    // Publish this build's digest; compare when the other build already ran.
    let dir = digest_dir();
    std::fs::create_dir_all(&dir).expect("create digest dir");
    std::fs::write(dir.join(format!("{config}.digest")), &mine).expect("write digest");
    let other_path = dir.join(format!("{other}.digest"));
    if let Ok(theirs) = std::fs::read_to_string(&other_path) {
        assert_eq!(
            mine, theirs,
            "instrumented and no-op builds diverged: observer effect detected"
        );
        eprintln!("differential comparison ran: {config} == {other}");
    } else {
        eprintln!("differential: wrote {config}.digest; waiting for a {other} run to compare");
    }
}
