//! Cross-crate exactness tests: the paper's central no-accuracy-loss claim,
//! checked end-to-end on real simulation output — every bitmap-only
//! analysis must equal the reference model's row scan bit for bit under
//! the same binning (so the bitmaps' counts and the one finisher per
//! metric are both checked, against the pre-fusion finishers), and
//! persisted bitmaps must survive a disk round-trip.

use ibis::analysis::{
    correlation_query, mine_full, mine_index, Metric, MiningConfig, SubsetQuery, VarSummary,
};
use ibis::core::{Binner, BitmapIndex, ZOrderLayout};
use ibis::datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use ibis::insitu::codec;
use ibis_testkit::{before_fusing, Column, TempDir};

const METRICS: [Metric; 3] = [Metric::ConditionalEntropy, Metric::Emd, Metric::EmdSpatial];

/// `data` under `binner`: its bitmap index and the model's column.
fn both(data: &[f64], binner: &Binner) -> (BitmapIndex, Column) {
    let index = BitmapIndex::build(data, binner.clone());
    (index, Column::new(data, binner.clone()))
}

/// Every step metric from `a` to `b`, from the bitmaps, equals the scan.
fn assert_metrics_exact(a: &(BitmapIndex, Column), b: &(BitmapIndex, Column), what: &str) {
    let (sa, sb) = (
        VarSummary::Bitmap(a.0.clone()),
        VarSummary::Bitmap(b.0.clone()),
    );
    for metric in METRICS {
        let want = a.1.metric(&b.1, metric);
        assert_eq!(
            sa.metric(&sb, metric).to_bits(),
            want.to_bits(),
            "{what} {metric:?}"
        );
    }
}

#[test]
fn heat3d_metrics_exact() {
    let mut sim = Heat3D::new(Heat3DConfig::tiny());
    let steps = sim.run(6);
    let binner = Binner::precision(-1.0, 101.0, 1);
    let columns: Vec<_> = steps
        .iter()
        .map(|s| both(&s.fields[0].data, &binner))
        .collect();
    let all = SubsetQuery::all();
    let nbins = binner.nbins();
    for (i, step_i) in columns.iter().enumerate() {
        let counts = step_i.1.counts();
        let entropy = ibis::analysis::entropy::shannon_entropy_from_counts(&counts);
        let bitmap_entropy = VarSummary::Bitmap(step_i.0.clone()).entropy();
        assert_eq!(
            bitmap_entropy.to_bits(),
            entropy.to_bits(),
            "entropy step {i}"
        );
        for (j, step_j) in columns.iter().enumerate() {
            let joint = step_i.1.joint(&step_j.1);
            let got = correlation_query(&step_i.0, &step_j.0, &all, &all).unwrap();
            let mi = before_fusing::mutual_information_from_counts(&joint, nbins, nbins);
            assert_eq!(got.mutual_information.to_bits(), mi.to_bits(), "MI {i}-{j}");
            assert_eq!(got, step_i.1.correlation(&step_j.1, &all, &all).unwrap());
            assert_metrics_exact(step_i, step_j, &format!("{i}-{j}"));
        }
    }
}

#[test]
fn lulesh_all_twelve_arrays_exact() {
    let mut sim = MiniLulesh::new(LuleshConfig::tiny());
    let steps = sim.run(3);
    // one fitted binner per variable, shared across steps as the pipeline does
    for f in 0..12 {
        let all: Vec<f64> = steps
            .iter()
            .flat_map(|s| s.fields[f].data.iter().copied())
            .collect();
        let binner = Binner::fit(&all, 32);
        let a = both(&steps[0].fields[f].data, &binner);
        let b = both(&steps[2].fields[f].data, &binner);
        assert_metrics_exact(&a, &b, steps[0].fields[f].name);
    }
}

#[test]
fn ocean_mining_exact_in_zorder() {
    let cfg = OceanConfig::tiny();
    let ocean = OceanModel::new(cfg.clone());
    let z = ZOrderLayout::new(&[cfg.nlon, cfg.nlat, cfg.ndepth]);
    let t = z.reorder(&ocean.variable("temperature"));
    let s = z.reorder(&ocean.variable("salinity"));
    let bt = Binner::fit(&t, 16);
    let bs = Binner::fit(&s, 16);
    let mc = MiningConfig {
        value_threshold: 0.002,
        spatial_threshold: 0.05,
        unit_size: 64,
    };
    let from_bitmaps = mine_index(
        &BitmapIndex::build(&t, bt.clone()),
        &BitmapIndex::build(&s, bs.clone()),
        &mc,
    );
    let from_full = mine_full(&t, &s, &bt, &bs, &mc);
    assert_eq!(from_bitmaps.subsets, from_full.subsets);
    assert_eq!(from_bitmaps.pairs_pruned, from_full.pairs_pruned);
    assert!(
        !from_bitmaps.subsets.is_empty(),
        "planted correlation must surface"
    );
}

/// Ocean steps binned as the durable pipeline bins them — one anchored
/// binner per step, on one lattice — for every variable: step metrics
/// across steps, and correlations of temperature with every variable.
#[test]
fn ocean_per_step_binnings_exact() {
    let steps = OceanModel::new(OceanConfig::tiny()).run(3);
    let binned = |step: usize, f: usize| {
        let data = &steps[step].fields[f].data;
        both(data, &Binner::fit_precision_anchored(data, 0))
    };
    let q = SubsetQuery::value(5.0, 25.0).with_region(100..700);
    for f in 0..steps[0].fields.len() {
        let what = steps[0].fields[f].name;
        assert_metrics_exact(&binned(0, f), &binned(2, f), what);
        let (t, v) = (binned(1, 0), binned(1, f));
        let got = correlation_query(&t.0, &v.0, &q, &SubsetQuery::all()).unwrap();
        assert_eq!(
            got,
            t.1.correlation(&v.1, &q, &SubsetQuery::all()).unwrap(),
            "{what}"
        );
    }
}

#[test]
fn persisted_bitmaps_round_trip_and_stay_exact() {
    let mut sim = Heat3D::new(Heat3DConfig::tiny());
    let steps = sim.run(2);
    let binner = Binner::precision(-1.0, 101.0, 1);
    let a = both(&steps[0].fields[0].data, &binner);
    let b = both(&steps[1].fields[0].data, &binner);

    // write every bitvector of step 1's index, then reload the index
    let dir = TempDir::new("integration-sink");
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for (bin, vec) in b.0.bins().enumerate() {
        let path = dir.join(format!("step1_bin{bin}.wah"));
        std::fs::write(&path, codec::encode(vec)).unwrap();
        paths.push(path);
    }
    let reloaded: Vec<_> = paths
        .iter()
        .map(|p| codec::decode(&std::fs::read(p).unwrap()).expect("valid blob"))
        .collect();
    let reloaded = (BitmapIndex::from_bins(binner, reloaded), b.1.clone());

    // post-analysis on reloaded bitmaps equals the scan of the data
    assert_metrics_exact(&reloaded, &a, "reloaded step 1 against step 0");
}
