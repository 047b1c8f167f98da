//! Metrics-overhead smoke bench: the same kernel workload timed in the
//! instrumented build (default features) and the no-op build
//! (`--no-default-features`), merged into `BENCH_observability.json` at the
//! repository root.
//!
//! One `cargo bench` invocation is one build configuration, so — like the
//! differential test — the comparison spans two invocations: each run
//! writes `target/obs_overhead/<config>.csv`, and whichever run finds both
//! CSVs present merges them into the report. The instrumented run
//! additionally executes a small Ocean durable pipeline and a Heat3D
//! cluster so the embedded metrics snapshot covers all four families
//! (kernels, pipeline, store, cluster).
//!
//! The <5% overhead expectation is asserted *in the report*
//! (`"under_5pct_target"`), not as a hard failure: a loaded CI host can
//! blow any wall-clock ratio.
//!
//!     cargo bench -p ibis-bench --bench obs_overhead
//!     cargo bench -p ibis-bench --no-default-features --bench obs_overhead
//!
//! `IBIS_BENCH_SMOKE=1` shrinks the workload, keeps its CSVs in
//! `target/obs_overhead.smoke/` and writes the merged report to
//! `target/BENCH_observability.smoke.json` instead.

use ibis_analysis::Metric;
use ibis_bench::{measure, smoke, target_dir, write_report};
use ibis_core::{Binner, BitmapIndex, RowOrder, WahVec};
use ibis_datagen::{Heat3DConfig, OceanConfig, OceanModel};
use ibis_insitu::{
    run_cluster, run_durable, ClusterConfig, ClusterIo, ClusterReduction, CoreAllocation,
    MachineModel, PipelineConfig, Reduction, RobustnessConfig, ScalingModel,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The timed workload: every instrumented kernel path (run-path counting,
/// dense-path materialization, streaming index build with fill-run
/// recording, operand preparation). Identical source in both builds — the
/// measured difference is the metrics layer.
fn run_workload(n: usize) -> Vec<(&'static str, f64)> {
    let sparse_a = WahVec::from_bits((0..n).map(|i| (i / 310) % 300 == 0));
    let sparse_b = WahVec::from_bits((0..n).map(|i| ((i + 155) / 310) % 300 == 0));
    let dense_a = WahVec::from_bits((0..n).map(|i| (i * 2654435761usize) % 100 < 30));
    let dense_b = WahVec::from_bits((0..n).map(|i| (i * 2246822519usize) % 100 < 30));
    let field: Vec<f64> = (0..n).map(|i| (i as f64 * 1e-4).sin() * 50.0).collect();
    let binner = Binner::fixed_width(-51.0, 51.0, 64);

    vec![
        (
            "and_count_sparse",
            measure(|| sparse_a.and_count(&sparse_b)),
        ),
        ("and_count_dense", measure(|| dense_a.and_count(&dense_b))),
        ("and_dense", measure(|| dense_a.and(&dense_b))),
        ("or_sparse", measure(|| sparse_a.or(&sparse_b))),
        (
            "index_build",
            measure(|| BitmapIndex::build(&field, binner.clone())),
        ),
    ]
}

/// Family coverage for the embedded snapshot: a durable Ocean pipeline
/// (pipeline + store) and a small cluster run (cluster); the timed
/// kernels fill `kernels`.
fn populate_families() {
    let store_dir = std::env::temp_dir().join(format!("ibis-obs-overhead-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let cfg = PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 4,
        allocation: CoreAllocation::Shared, // durable runs are Shared-only
        reduction: Reduction::Bitmaps,
        steps: 9,
        select_k: 3,
        metric: Metric::ConditionalEntropy,
        binners: Vec::new(),
        per_step_precision: Some(0),
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    };
    run_durable(OceanModel::new(OceanConfig::tiny()), &cfg, &store_dir).expect("durable run");
    std::fs::remove_dir_all(&store_dir).ok();

    let cluster = ClusterConfig {
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
        binner: Binner::precision(-1.0, 101.0, 0),
        reduction: ClusterReduction::Bitmaps,
        io: ClusterIo::Local,
        remote_bw: MachineModel::remote_link_bw(),
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
        coordinator_timeout: Duration::from_secs(30),
    };
    run_cluster(&cluster).expect("cluster run");
}

fn state_dir() -> PathBuf {
    target_dir().join(if smoke() {
        "obs_overhead.smoke"
    } else {
        "obs_overhead"
    })
}

fn read_csv(path: &Path) -> Option<Vec<(String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in text.lines() {
        let (name, mean) = line.split_once(',')?;
        out.push((name.to_string(), mean.parse().ok()?));
    }
    Some(out)
}

fn merge_report(dir: &Path, n: usize) {
    let Some(instrumented) = read_csv(&dir.join("instrumented.csv")) else {
        println!("obs_overhead: no instrumented.csv yet; run the default-features bench too");
        return;
    };
    let Some(noop) = read_csv(&dir.join("noop.csv")) else {
        println!("obs_overhead: no noop.csv yet; run the --no-default-features bench too");
        return;
    };
    let snapshot =
        std::fs::read_to_string(dir.join("snapshot.json")).unwrap_or_else(|_| "{}".to_string());

    let mut samples = String::new();
    let (mut sum_i, mut sum_n) = (0.0f64, 0.0f64);
    for (k, (name, mean_i)) in instrumented.iter().enumerate() {
        let Some((_, mean_n)) = noop.iter().find(|(n, _)| n == name) else {
            continue;
        };
        sum_i += mean_i;
        sum_n += mean_n;
        let pct = (mean_i / mean_n - 1.0) * 100.0;
        println!(
            "obs_overhead: {name:<18} instrumented {mean_i:.3e}s noop {mean_n:.3e}s ({pct:+.2}%)"
        );
        samples.push_str(&format!(
            "    {{\"name\": \"{name}\", \"instrumented_s\": {mean_i:e}, \
             \"noop_s\": {mean_n:e}, \"overhead_pct\": {pct:.3}}}{}\n",
            if k + 1 == instrumented.len() { "" } else { "," }
        ));
    }
    let overall = (sum_i / sum_n - 1.0) * 100.0;
    let under_5 = overall < 5.0;
    println!("obs_overhead: overall overhead {overall:+.2}% (under 5% target: {under_5})");

    let out = format!(
        "{{\n  \"workload\": \"kernel sweep, {n} bits, instrumented vs no-op build\",\n  \
         \"samples\": [\n{samples}  ],\n  \
         \"overall_overhead_pct\": {overall:.3},\n  \
         \"under_5pct_target\": {under_5},\n  \
         \"snapshot\": {snapshot}\n}}\n"
    );
    write_report("observability", &out);
}

fn main() {
    let config = if ibis_obs::ENABLED {
        "instrumented"
    } else {
        "noop"
    };
    println!("obs_overhead: timing the {config} build");
    let n = if smoke() { 1 << 14 } else { 1 << 18 };
    let samples = run_workload(n);

    let dir = state_dir();
    std::fs::create_dir_all(&dir).expect("create state dir");
    let csv: String = samples
        .iter()
        .map(|(name, mean)| format!("{name},{mean:e}\n"))
        .collect();
    std::fs::write(dir.join(format!("{config}.csv")), csv).expect("write csv");

    if ibis_obs::ENABLED {
        populate_families();
        let snap = ibis_obs::global().snapshot();
        let families = snap.families();
        for family in ["kernels", "pipeline", "store", "cluster"] {
            assert!(
                families.contains(family),
                "family {family:?} missing from snapshot; have {families:?}"
            );
        }
        std::fs::write(dir.join("snapshot.json"), snap.to_json(2)).expect("write snapshot");
    }

    merge_report(&dir, n);
}
