//! Offline post-analysis on persisted bitmaps — the final stage of the
//! paper's workflow: the in-situ phase wrote only the selected time-steps'
//! compressed indices; later (possibly on another machine), analysts reload
//! those files and keep working *without ever having had the raw data*.
//!
//! This example runs the in-situ phase into a real store, then reloads
//! the `.ibis` files and performs range queries, aggregation with
//! guaranteed error bounds, and cross-step comparisons on the reloaded
//! indices.
//!
//! ```text
//! cargo run --release --example offline_postanalysis
//! ```

use ibis::analysis::aggregate;
use ibis::analysis::emd::emd_spatial_index;
use ibis::analysis::entropy::{conditional_entropy_index, shannon_entropy_index};
use ibis::analysis::Metric;
use ibis::core::{Binner, BitmapIndex, RowOrder};
use ibis::datagen::{Heat3D, Heat3DConfig, Simulation};
use ibis::insitu::{
    run_pipeline, CoreAllocation, LocalDisk, MachineModel, PipelineConfig, Reduction,
    RobustnessConfig, ScalingModel, Store, StoreWriter,
};

fn main() {
    let dir = std::env::temp_dir().join("ibis-offline-demo");
    let heat = Heat3DConfig {
        nx: 40,
        ny: 40,
        nz: 40,
        ..Default::default()
    };
    let binner = Binner::precision(-1.0, 101.0, 0);
    let steps = 24;

    // ---- in-situ phase: select 6 of 24 steps, persist their bitmaps ----
    let cfg = PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 8,
        allocation: CoreAllocation::Shared,
        reduction: Reduction::Bitmaps,
        steps,
        select_k: 6,
        metric: Metric::ConditionalEntropy,
        binners: vec![binner.clone()],
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 4,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    };
    let disk = LocalDisk::new(MachineModel::xeon32().disk_bw);
    let report = run_pipeline(Heat3D::new(heat.clone()), &cfg, &disk).expect("run");
    println!("in-situ phase selected steps {:?}", report.selected);

    let mut writer = StoreWriter::create(&dir).expect("create output dir");
    let mut sim = Heat3D::new(heat);
    for step in 0..steps {
        let out = sim.step();
        if report.selected.contains(&step) {
            let idx = BitmapIndex::build(&out.fields[0].data, binner.clone());
            writer.put(step, "temperature", &idx).unwrap();
        }
    }
    writer.finish().unwrap();
    println!(
        "persisted {} indices to {}\n",
        report.selected.len(),
        dir.display()
    );

    // ---- offline phase: reload and analyse; no raw data exists here ----
    let store = Store::open(&dir).expect("open run directory");
    let indices: Vec<(String, BitmapIndex)> = store
        .load_series("temperature")
        .unwrap()
        .into_iter()
        .map(|(step, idx)| (format!("step{step:04}"), idx))
        .collect();
    println!(
        "reloaded {} indices; per-step post-analysis:",
        indices.len()
    );
    println!(
        "{:<10} {:>10} {:>14} {:>12} {:>16}",
        "step", "entropy", "mean(±bound)", "hot cells", "Δ vs previous"
    );
    let mut prev: Option<&BitmapIndex> = None;
    for (name, idx) in &indices {
        let h = shannon_entropy_index(idx);
        let mean = aggregate::mean(idx).unwrap();
        // range query: how much of the mesh is hotter than 50 degrees?
        let hot = idx.query_range(50.0, 101.0).count_ones();
        let delta = match prev {
            Some(p) => format!("{:.4}", conditional_entropy_index(idx, p)),
            None => "-".into(),
        };
        println!(
            "{name:<10} {h:>10.4} {:>8.2}±{:<5.2} {hot:>12} {delta:>16}",
            mean.value, mean.bound
        );
        prev = Some(idx);
    }

    // spatial EMD between the first and last selected steps
    let first = &indices.first().unwrap().1;
    let last = &indices.last().unwrap().1;
    println!(
        "\nspatial EMD between first and last selected step: {:.0}",
        emd_spatial_index(first, last)
    );
    assert!(shannon_entropy_index(last) > 0.0);
    std::fs::remove_dir_all(&dir).ok();
    println!("(demo directory cleaned up)");
}
