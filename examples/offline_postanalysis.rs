//! Offline post-analysis on persisted bitmaps — the final stage of the
//! paper's workflow: the in-situ phase wrote only the selected time-steps'
//! compressed indices; later (possibly on another machine), analysts reload
//! those files and keep working *without ever having had the raw data*.
//!
//! This example runs the in-situ phase as a durable run (`run_durable`):
//! the pipeline writes each step it selects to a checkpointed store while
//! the step's raw data is still in memory, and nothing is simulated twice.
//! It then reloads the `.ibis` files and performs range queries,
//! aggregation with guaranteed error bounds, and cross-step comparisons on
//! the reloaded indices.
//!
//! ```text
//! cargo run --release --example offline_postanalysis
//! ```

use ibis::analysis::entropy::shannon_entropy_from_counts;
use ibis::analysis::{aggregate, correlation_query, Metric, SubsetQuery, VarSummary};
use ibis::core::{Binner, BitmapIndex, RowOrder};
use ibis::datagen::{Heat3D, Heat3DConfig};
use ibis::insitu::{
    run_durable, CoreAllocation, MachineModel, PipelineConfig, Reduction, RobustnessConfig,
    ScalingModel, Store,
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
        binners: vec![binner],
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 4,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    };
    let report = run_durable(Heat3D::new(heat), &cfg, &dir).expect("run");
    println!("in-situ phase selected steps {:?}", report.selected);
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
    let all = SubsetQuery::all();
    let mut prev: Option<&BitmapIndex> = None;
    for (name, idx) in &indices {
        let h = shannon_entropy_from_counts(idx.counts());
        let mean = aggregate::mean(idx).unwrap();
        // range query: how much of the mesh is hotter than 50 degrees?
        let hot = idx.query_range(50.0, 101.0).count_ones();
        let delta = match prev {
            Some(p) => {
                let h_given_prev = correlation_query(idx, p, &all, &all).unwrap();
                format!("{:.4}", h_given_prev.conditional_entropy)
            }
            None => "-".into(),
        };
        println!(
            "{name:<10} {h:>10.4} {:>8.2}±{:<5.2} {hot:>12} {delta:>16}",
            mean.value, mean.bound
        );
        prev = Some(idx);
    }

    // spatial EMD between the first and last selected steps
    let first = VarSummary::Bitmap(indices.first().unwrap().1.clone());
    let last = VarSummary::Bitmap(indices.last().unwrap().1.clone());
    println!(
        "\nspatial EMD between first and last selected step: {:.0}",
        first.metric(&last, Metric::EmdSpatial)
    );
    assert!(last.entropy() > 0.0);
    std::fs::remove_dir_all(&dir).ok();
    println!("(demo directory cleaned up)");
}
