//! Cross-crate exactness tests: the paper's central no-accuracy-loss claim,
//! checked end-to-end on real simulation output — every bitmap-only
//! analysis must equal its full-data counterpart bit-for-bit under the same
//! binning, and persisted bitmaps must survive a disk round-trip.

use ibis::analysis::entropy::mutual_information_from_counts;
use ibis::analysis::histogram::joint_histogram;
use ibis::analysis::{
    correlation_query, mine_full, mine_index, Metric, MiningConfig, SubsetQuery, VarSummary,
};
use ibis::core::{Binner, BitmapIndex, ZOrderLayout};
use ibis::datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use ibis::insitu::codec;

/// `data` summarised both ways: from the bitmaps, and from the raw array.
fn both(data: &[f64], binner: &Binner) -> (VarSummary, VarSummary) {
    let bitmap = VarSummary::bitmap(data, binner.clone());
    (bitmap, VarSummary::full(data.to_vec(), binner.clone()))
}

#[test]
fn heat3d_metrics_exact() {
    let mut sim = Heat3D::new(Heat3DConfig::tiny());
    let steps = sim.run(6);
    let binner = Binner::precision(-1.0, 101.0, 1);
    let arrays: Vec<&[f64]> = steps.iter().map(|s| s.fields[0].data.as_slice()).collect();
    let summaries: Vec<(VarSummary, VarSummary)> =
        arrays.iter().map(|a| both(a, &binner)).collect();
    let all = SubsetQuery::all();
    let nbins = binner.nbins();
    for i in 0..arrays.len() {
        let (bitmap_i, full_i) = &summaries[i];
        assert_eq!(bitmap_i.entropy(), full_i.entropy(), "entropy step {i}");
        for j in 0..arrays.len() {
            let (bitmap_j, full_j) = &summaries[j];
            let VarSummary::Bitmap(index_i) = bitmap_i else {
                unreachable!()
            };
            let VarSummary::Bitmap(index_j) = bitmap_j else {
                unreachable!()
            };
            let joint = joint_histogram(arrays[i], arrays[j], &binner, &binner);
            assert_eq!(
                correlation_query(index_i, index_j, &all, &all)
                    .unwrap()
                    .mutual_information,
                mutual_information_from_counts(&joint, nbins, nbins),
                "MI {i}-{j}"
            );
            for (metric, name) in [
                (Metric::ConditionalEntropy, "CE"),
                (Metric::Emd, "EMD"),
                (Metric::EmdSpatial, "spatial EMD"),
            ] {
                assert_eq!(
                    bitmap_i.metric(bitmap_j, metric),
                    full_i.metric(full_j, metric),
                    "{name} {i}-{j}"
                );
            }
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
        let (bitmap_a, full_a) = both(&steps[0].fields[f].data, &binner);
        let (bitmap_b, full_b) = both(&steps[2].fields[f].data, &binner);
        assert_eq!(
            bitmap_a.metric(&bitmap_b, Metric::EmdSpatial),
            full_a.metric(&full_b, Metric::EmdSpatial),
            "field {} ({})",
            f,
            steps[0].fields[f].name
        );
        assert_eq!(
            bitmap_a.metric(&bitmap_b, Metric::ConditionalEntropy),
            full_a.metric(&full_b, Metric::ConditionalEntropy)
        );
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

#[test]
fn persisted_bitmaps_round_trip_and_stay_exact() {
    let mut sim = Heat3D::new(Heat3DConfig::tiny());
    let steps = sim.run(2);
    let binner = Binner::precision(-1.0, 101.0, 1);
    let a = &steps[0].fields[0].data;
    let b = &steps[1].fields[0].data;
    let ia = BitmapIndex::build(a, binner.clone());
    let ib = BitmapIndex::build(b, binner.clone());

    // write every bitvector of step 1's index, then reload the index
    let dir = std::env::temp_dir().join("ibis-integration-sink");
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for (bin, vec) in ib.bins().enumerate() {
        let path = dir.join(format!("step1_bin{bin}.wah"));
        std::fs::write(&path, codec::encode(vec)).unwrap();
        paths.push(path);
    }
    let reloaded: Vec<_> = paths
        .iter()
        .map(|p| codec::decode(&std::fs::read(p).unwrap()).expect("valid blob"))
        .collect();
    let ib2 = BitmapIndex::from_bins(binner.clone(), reloaded);

    // post-analysis on reloaded bitmaps equals the in-memory result
    let (reloaded, step0) = (VarSummary::Bitmap(ib2), VarSummary::Bitmap(ia));
    assert_eq!(
        reloaded.metric(&step0, Metric::ConditionalEntropy),
        VarSummary::full(b.clone(), binner.clone()).metric(
            &VarSummary::full(a.clone(), binner),
            Metric::ConditionalEntropy
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}
