//! Cross-crate exactness tests: the paper's central no-accuracy-loss claim,
//! checked end-to-end on real simulation output — every bitmap-only
//! analysis must equal its full-data counterpart bit-for-bit under the same
//! binning, and persisted bitmaps must survive a disk round-trip.

use ibis::analysis::emd::{emd_counts_full, emd_counts_index, emd_spatial_full, emd_spatial_index};
use ibis::analysis::entropy::{
    conditional_entropy_full, conditional_entropy_index, mutual_information_full,
    mutual_information_index, shannon_entropy_full, shannon_entropy_index,
};
use ibis::analysis::{mine_full, mine_index, MiningConfig};
use ibis::core::{Binner, BitmapIndex, ZOrderLayout};
use ibis::datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use ibis::insitu::codec;

#[test]
fn heat3d_metrics_exact() {
    let mut sim = Heat3D::new(Heat3DConfig::tiny());
    let steps = sim.run(6);
    let binner = Binner::precision(-1.0, 101.0, 1);
    let arrays: Vec<&[f64]> = steps.iter().map(|s| s.fields[0].data.as_slice()).collect();
    let indexes: Vec<BitmapIndex> = arrays
        .iter()
        .map(|a| BitmapIndex::build(a, binner.clone()))
        .collect();
    for i in 0..arrays.len() {
        assert_eq!(
            shannon_entropy_index(&indexes[i]),
            shannon_entropy_full(arrays[i], &binner),
            "entropy step {i}"
        );
        for j in 0..arrays.len() {
            assert_eq!(
                mutual_information_index(&indexes[i], &indexes[j]),
                mutual_information_full(arrays[i], arrays[j], &binner, &binner),
                "MI {i}-{j}"
            );
            assert_eq!(
                conditional_entropy_index(&indexes[i], &indexes[j]),
                conditional_entropy_full(arrays[i], arrays[j], &binner, &binner),
                "CE {i}-{j}"
            );
            assert_eq!(
                emd_counts_index(&indexes[i], &indexes[j]),
                emd_counts_full(arrays[i], arrays[j], &binner),
                "EMD {i}-{j}"
            );
            assert_eq!(
                emd_spatial_index(&indexes[i], &indexes[j]),
                emd_spatial_full(arrays[i], arrays[j], &binner),
                "spatial EMD {i}-{j}"
            );
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
        let a = &steps[0].fields[f].data;
        let b = &steps[2].fields[f].data;
        let ia = BitmapIndex::build(a, binner.clone());
        let ib = BitmapIndex::build(b, binner.clone());
        assert_eq!(
            emd_spatial_index(&ia, &ib),
            emd_spatial_full(a, b, &binner),
            "field {} ({})",
            f,
            steps[0].fields[f].name
        );
        assert_eq!(
            conditional_entropy_index(&ia, &ib),
            conditional_entropy_full(a, b, &binner, &binner)
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
    assert_eq!(
        conditional_entropy_index(&ib2, &ia),
        conditional_entropy_full(b, a, &binner, &binner)
    );
    std::fs::remove_dir_all(&dir).ok();
}
