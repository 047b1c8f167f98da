//! End-to-end pipeline tests spanning all crates: selection identity
//! between methods and strategies, sampling's information loss, cluster
//! agreement, and the memory/I/O advantages the paper claims.

use ibis::analysis::sampling::SamplingMethod;
use ibis::analysis::Metric;
use ibis::core::{Binner, RowOrder};
use ibis::datagen::{Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, Simulation};
use ibis::insitu::{
    auto_allocate, run_cluster, run_pipeline, ClusterConfig, ClusterIo, ClusterReduction,
    CoreAllocation, LocalDisk, MachineModel, PipelineConfig, Reduction, RobustnessConfig,
    ScalingModel,
};

fn heat() -> Heat3DConfig {
    Heat3DConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        ..Heat3DConfig::tiny()
    }
}

fn heat_pipeline(reduction: Reduction, allocation: CoreAllocation) -> PipelineConfig {
    PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 8,
        allocation,
        reduction,
        steps: 17,
        select_k: 5,
        metric: Metric::ConditionalEntropy,
        binners: vec![Binner::precision(-1.0, 101.0, 0)],
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

#[test]
fn heat3d_selection_identical_across_methods_and_strategies() {
    let disk = LocalDisk::new(1e9);
    let runs = [
        run_pipeline(
            Heat3D::new(heat()),
            &heat_pipeline(Reduction::Bitmaps, CoreAllocation::Shared),
            &disk,
        )
        .unwrap(),
        run_pipeline(
            Heat3D::new(heat()),
            &heat_pipeline(Reduction::FullData, CoreAllocation::Shared),
            &disk,
        )
        .unwrap(),
        run_pipeline(
            Heat3D::new(heat()),
            &heat_pipeline(
                Reduction::Bitmaps,
                CoreAllocation::Separate {
                    sim_cores: 4,
                    bitmap_cores: 4,
                },
            ),
            &disk,
        )
        .unwrap(),
    ];
    assert_eq!(runs[0].selected, runs[1].selected, "bitmaps vs full data");
    assert_eq!(runs[0].selected, runs[2].selected, "shared vs separate");
    assert_eq!(runs[0].selected.len(), 5);
}

#[test]
fn lulesh_pipeline_with_twelve_variables() {
    let lcfg = LuleshConfig::tiny();
    // shared per-variable binners, fitted on a probe run
    let mut probe = MiniLulesh::new(lcfg.clone());
    let probe_steps = probe.run(4);
    let binners: Vec<Binner> = (0..12)
        .map(|f| {
            let all: Vec<f64> = probe_steps
                .iter()
                .flat_map(|s| s.fields[f].data.iter().copied())
                .collect();
            Binner::fit(&all, 24)
        })
        .collect();
    let cfg = PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 8,
        allocation: CoreAllocation::Shared,
        reduction: Reduction::Bitmaps,
        steps: 7,
        select_k: 3,
        metric: Metric::EmdSpatial, // the paper's LULESH metric
        binners: binners.clone(),
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::lulesh(),
        robustness: RobustnessConfig::default(),
    };
    let disk = LocalDisk::new(1e9);
    let rb = run_pipeline(MiniLulesh::new(lcfg.clone()), &cfg, &disk).unwrap();
    let mut cfg_full = cfg.clone();
    cfg_full.reduction = Reduction::FullData;
    let rf = run_pipeline(MiniLulesh::new(lcfg), &cfg_full, &disk).unwrap();
    assert_eq!(
        rb.selected, rf.selected,
        "12-array EMD selection must agree"
    );
    assert!(rb.bytes_written < rf.bytes_written);
}

#[test]
fn sampling_changes_metrics_bitmaps_do_not() {
    let disk = LocalDisk::new(1e9);
    let full = run_pipeline(
        Heat3D::new(heat()),
        &heat_pipeline(Reduction::FullData, CoreAllocation::Shared),
        &disk,
    )
    .unwrap();
    let bitmaps = run_pipeline(
        Heat3D::new(heat()),
        &heat_pipeline(Reduction::Bitmaps, CoreAllocation::Shared),
        &disk,
    )
    .unwrap();
    assert_eq!(bitmaps.selected, full.selected, "bitmaps: zero loss");
    // sampling at 5% writes very little but is *allowed* to disagree — and
    // its summaries are lossy by construction
    let sampled = run_pipeline(
        Heat3D::new(heat()),
        &heat_pipeline(
            Reduction::Sampling {
                percent: 5.0,
                method: SamplingMethod::Stride,
            },
            CoreAllocation::Shared,
        ),
        &disk,
    )
    .unwrap();
    assert!(sampled.summary_bytes_total * 10 < full.summary_bytes_total);
}

#[test]
fn auto_allocation_runs_and_balances() {
    let machine = MachineModel::xeon32();
    let binners = vec![Binner::precision(-1.0, 101.0, 0)];
    let mut probe = Heat3D::new(heat());
    let alloc = auto_allocate(&mut probe, &binners, &machine, 8, 2);
    let CoreAllocation::Separate {
        sim_cores,
        bitmap_cores,
    } = alloc
    else {
        panic!("auto allocation must split");
    };
    assert_eq!(sim_cores + bitmap_cores, 8);
    let cfg = heat_pipeline(Reduction::Bitmaps, alloc);
    let disk = LocalDisk::new(1e9);
    let r = run_pipeline(Heat3D::new(heat()), &cfg, &disk).unwrap();
    assert_eq!(r.selected.len(), 5);
}

#[test]
fn cluster_selection_matches_single_node_pipeline() {
    let hc = Heat3DConfig {
        nx: 12,
        ny: 12,
        nz: 12,
        ..Heat3DConfig::tiny()
    };
    let base = ClusterConfig {
        nodes: 3,
        cores_per_node: 2,
        machine: MachineModel::oakley_node(),
        heat: hc.clone(),
        sweeps_per_step: hc.sweeps_per_step,
        steps: 9,
        select_k: 3,
        binner: Binner::precision(-1.0, 101.0, 0),
        reduction: ClusterReduction::Bitmaps,
        io: ClusterIo::Local,
        remote_bw: MachineModel::remote_link_bw(),
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
        coordinator_timeout: std::time::Duration::from_secs(30),
    };
    let cluster = run_cluster(&base).unwrap();
    let single = run_cluster(&ClusterConfig { nodes: 1, ..base }).unwrap();
    assert_eq!(
        cluster.selected, single.selected,
        "distribution must not change results"
    );
}

#[test]
fn per_step_precision_binning_end_to_end() {
    // The paper's actual Heat3D configuration: each step is binned over its
    // own value range on a shared decimal lattice (their runs: 64-206
    // bitvectors per step). Selection must still be exact vs full data.
    let mk = |reduction: Reduction, metric: Metric| {
        let mut cfg = heat_pipeline(reduction, CoreAllocation::Shared);
        cfg.binners = Vec::new();
        cfg.per_step_precision = Some(0);
        cfg.metric = metric;
        cfg
    };
    let disk = LocalDisk::new(1e9);
    for metric in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
        let rb = run_pipeline(Heat3D::new(heat()), &mk(Reduction::Bitmaps, metric), &disk).unwrap();
        let rf =
            run_pipeline(Heat3D::new(heat()), &mk(Reduction::FullData, metric), &disk).unwrap();
        assert_eq!(rb.selected, rf.selected, "{metric:?}");
        assert_eq!(rb.selected.len(), 5);
    }
}

#[test]
fn queue_capacity_bounds_memory() {
    // a larger data queue lets more raw steps pile up: peak memory grows
    let mk = |cap: usize| {
        let mut cfg = heat_pipeline(
            Reduction::Bitmaps,
            CoreAllocation::Separate {
                sim_cores: 4,
                bitmap_cores: 4,
            },
        );
        cfg.queue_capacity = cap;
        cfg
    };
    let disk = LocalDisk::new(1e9);
    // How far the producer gets ahead in one run is thread timing: when the
    // consumer keeps up neither queue fills and the two peaks differ by
    // chance (a summary either way). What a capacity *allows* shows over a
    // few runs: the least the small queue needs, the most the large one
    // lets pile up.
    let peaks = |cap: usize| {
        let run = |_| run_pipeline(Heat3D::new(heat()), &mk(cap), &disk).unwrap();
        (0..3).map(|i| run(i).peak_memory_bytes).collect::<Vec<_>>()
    };
    let small = peaks(1).into_iter().min().unwrap();
    let large = peaks(16).into_iter().max().unwrap();
    assert!(
        small <= large,
        "capacity 1 peak {small} must not exceed capacity 16 peak {large}"
    );
}
