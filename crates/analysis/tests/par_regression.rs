//! Regression: the parallel analytics fan-outs (mining rows, greedy
//! candidate scoring, DP pairwise tables) must produce **byte-identical**
//! results — same values, same ordering — at every pool width, on the
//! Ocean ground-truth dataset whose planted temperature–salinity
//! correlation makes the outputs non-trivial. The serial side is the same
//! function under a one-thread pool, which runs every drive inline on the
//! calling thread (`vendor/rayon`'s own tests pin that).

use ibis_analysis::{
    mine_index, select_dp, select_greedy, Metric, MiningConfig, Partitioning, StepSummary,
    VarSummary,
};
use ibis_core::{Binner, BitmapIndex, ZOrderLayout};
use ibis_datagen::{OceanConfig, OceanModel, Simulation};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// A four-thread pool (spawns four workers per drive whatever the host
/// has) and the one-thread pool it is compared against.
fn pools() -> (ThreadPool, ThreadPool) {
    let pool = |threads| ThreadPoolBuilder::new().num_threads(threads).build();
    (pool(4).unwrap(), pool(1).unwrap())
}

fn ocean_cfg() -> OceanConfig {
    OceanConfig {
        nlon: 48,
        nlat: 32,
        ndepth: 4,
        ..Default::default()
    }
}

#[test]
fn parallel_mining_identical_to_serial_on_ocean() {
    let cfg = ocean_cfg();
    let ocean = OceanModel::new(cfg.clone());
    let z = ZOrderLayout::new(&[cfg.nlon, cfg.nlat, cfg.ndepth]);
    let t = z.reorder(&ocean.variable("temperature"));
    let s = z.reorder(&ocean.variable("salinity"));
    let it = BitmapIndex::build(&t, Binner::fit(&t, 24));
    let is = BitmapIndex::build(&s, Binner::fit(&s, 24));
    let mining = MiningConfig {
        value_threshold: 0.002,
        spatial_threshold: 0.08,
        unit_size: 256,
    };
    let (wide, one) = pools();
    let mine = || mine_index(&it, &is, &mining);
    let (par, ser) = (wide.install(mine), one.install(mine));
    assert!(
        !ser.subsets.is_empty(),
        "planted correlation must produce subsets"
    );
    assert_eq!(
        par.subsets, ser.subsets,
        "fan-out must not change mining results"
    );
    assert_eq!(par.pairs_evaluated, ser.pairs_evaluated);
    assert_eq!(par.pairs_pruned, ser.pairs_pruned);
    assert_eq!(par.units_evaluated, ser.units_evaluated);
}

#[test]
fn parallel_selection_identical_to_serial_on_ocean() {
    let cfg = ocean_cfg();
    let mut ocean = OceanModel::new(cfg);
    // One binning scale across all steps (the paper's shared-scale setting).
    let binner = Binner::fit(&ocean.variable("temperature"), 24);
    let steps: Vec<StepSummary> = (0..14)
        .map(|_| {
            let out = ocean.step();
            let temp = &out
                .field("temperature")
                .expect("ocean emits temperature")
                .data;
            StepSummary {
                step: out.step,
                vars: vec![VarSummary::bitmap(temp, binner.clone())],
            }
        })
        .collect();
    let (wide, one) = pools();
    for metric in [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial] {
        for part in [Partitioning::FixedLength, Partitioning::InfoVolume] {
            let greedy = || select_greedy(&steps, 5, metric, part);
            let (par, ser) = (wide.install(greedy), one.install(greedy));
            assert_eq!(par, ser, "greedy {metric:?} {part:?}");
        }
        let dp = || select_dp(&steps, 5, metric);
        assert_eq!(wide.install(dp), one.install(dp), "dp {metric:?}");
    }
}
