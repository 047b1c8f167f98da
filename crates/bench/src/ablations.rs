//! Ablation studies for the design choices DESIGN.md calls out — each
//! isolates one mechanism of the system and quantifies what it buys.

use crate::{heat3d_binner, heat3d_config, secs, speedup, Figure};
use ibis_analysis::selection::{chain_score, select_dp, select_greedy, Partitioning};
use ibis_analysis::{mine_index, mine_multilevel, Metric, MiningConfig, StepSummary, VarSummary};
use ibis_core::{
    build_index_two_phase, Binner, BitmapIndex, Bitset, MultiLevelIndex, RoaringVec, ZOrderLayout,
};
use ibis_datagen::{Heat3D, OceanConfig, OceanModel, Simulation};
use std::time::Instant;

/// Ablation A: streaming Algorithm 1 vs naive two-phase construction —
/// transient memory and build time. The paper's in-place compression
/// exists precisely because the two-phase transient exceeds the data.
pub fn ablation_streaming_build() {
    let mut fig = Figure::new(
        "ablation_build",
        "Streaming (Algorithm 1) vs two-phase index construction",
        &["elements", "bins", "builder", "transient(MB)", "time(s)"],
    );
    let mut heat = Heat3D::new(heat3d_config());
    let step = heat.step();
    let data = &step.fields[0].data;
    let binner = heat3d_binner();
    let data_mb = (data.len() * 8) as f64 / 1e6;

    let t0 = Instant::now();
    let streaming = BitmapIndex::build(data, binner.clone());
    let streaming_time = t0.elapsed().as_secs_f64();
    // Algorithm 1's working state: the compressed output plus one segment
    // per bin (the latter is bytes, not MB).
    let streaming_transient = streaming.size_bytes() as f64 / 1e6;

    let t0 = Instant::now();
    let (two_phase, transient) = build_index_two_phase(data, binner.clone());
    let two_phase_time = t0.elapsed().as_secs_f64();

    fig.row(&[
        &data.len(),
        &binner.nbins(),
        &"raw data (reference)",
        &format!("{data_mb:.2}"),
        &"-",
    ]);
    fig.row(&[
        &data.len(),
        &binner.nbins(),
        &"streaming (Alg. 1)",
        &format!("{streaming_transient:.2}"),
        &secs(streaming_time),
    ]);
    fig.row(&[
        &data.len(),
        &binner.nbins(),
        &"two-phase (uncompressed)",
        &format!("{:.2}", transient as f64 / 1e6),
        &secs(two_phase_time),
    ]);
    fig.finish();
    assert!(
        (transient as f64) > data_mb * 1e6,
        "the uncompressed transient must exceed the raw data"
    );
    for b in 0..binner.nbins() {
        assert_eq!(
            streaming.bin(b),
            two_phase.bin(b),
            "outputs must be identical"
        );
    }
}

/// Ablation B: greedy vs dynamic-programming selection — chain quality
/// (the DP objective) and runtime, on bitmap summaries.
pub fn ablation_selection() {
    let mut fig = Figure::new(
        "ablation_selection",
        "Greedy vs DP time-steps selection (bitmap summaries)",
        &["selector", "k", "chain_score", "time(s)", "selected"],
    );
    let mut heat3d = heat3d_config();
    heat3d.nx /= 2;
    heat3d.ny /= 2;
    heat3d.nz /= 2;
    let mut sim = Heat3D::new(heat3d);
    let binner = heat3d_binner();
    let steps: Vec<StepSummary> = sim
        .run(24)
        .into_iter()
        .map(|s| StepSummary {
            step: s.step,
            vars: vec![VarSummary::bitmap(&s.fields[0].data, binner.clone())],
        })
        .collect();
    let metric = Metric::ConditionalEntropy;
    for k in [4usize, 6, 8] {
        let t0 = Instant::now();
        let greedy = select_greedy(&steps, k, metric, Partitioning::FixedLength);
        let greedy_t = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let info = select_greedy(&steps, k, metric, Partitioning::InfoVolume);
        let info_t = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let dp = select_dp(&steps, k, metric);
        let dp_t = t0.elapsed().as_secs_f64();
        let gs = chain_score(&steps, &greedy.selected, metric);
        let is = chain_score(&steps, &info.selected, metric);
        let ds = chain_score(&steps, &dp.selected, metric);
        fig.row(&[
            &"greedy-fixed",
            &k,
            &format!("{gs:.4}"),
            &secs(greedy_t),
            &format!("{:?}", greedy.selected),
        ]);
        fig.row(&[
            &"greedy-infovol",
            &k,
            &format!("{is:.4}"),
            &secs(info_t),
            &format!("{:?}", info.selected),
        ]);
        fig.row(&[
            &"dp",
            &k,
            &format!("{ds:.4}"),
            &secs(dp_t),
            &format!("{:?}", dp.selected),
        ]);
        assert!(
            ds >= gs - 1e-9,
            "DP must not lose to greedy on its own objective"
        );
    }
    fig.finish();
}

/// Ablation C: Z-order vs row-major layout for spatial mining — how well
/// the miner's contiguous units localize the planted correlation band.
pub fn ablation_zorder() {
    let mut fig = Figure::new(
        "ablation_zorder",
        "Z-order vs row-major layout: spatial localization of mined subsets",
        &[
            "layout",
            "subsets",
            "in_band_top20",
            "mean_lat_extent",
            "mean_lon_extent",
        ],
    );
    let cfg = OceanConfig {
        nlon: 128,
        nlat: 96,
        ndepth: 1,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg.clone());
    let t_row = ocean.variable("temperature");
    let s_row = ocean.variable("salinity");
    let z = ZOrderLayout::new(&[cfg.nlon, cfg.nlat]);
    let mining = MiningConfig {
        value_threshold: 0.002,
        spatial_threshold: 0.08,
        unit_size: 256,
    };
    let band = (
        (cfg.current_band.0 * cfg.nlat as f64) as usize,
        (cfg.current_band.1 * cfg.nlat as f64) as usize,
    );

    for (label, zorder) in [("z-order", true), ("row-major", false)] {
        let (t, s) = if zorder {
            (z.reorder(&t_row), z.reorder(&s_row))
        } else {
            (t_row.clone(), s_row.clone())
        };
        let bt = Binner::fit(&t, 24);
        let bs = Binner::fit(&s, 24);
        let r = mine_index(
            &BitmapIndex::build(&t, bt),
            &BitmapIndex::build(&s, bs),
            &mining,
        );
        // where does each top unit live?
        let unit_cells = |unit: usize| -> Vec<usize> {
            let start = unit * mining.unit_size as usize;
            let len = (mining.unit_size as usize).min(t.len() - start);
            (start..start + len)
                .map(|p| if zorder { z.row_major_of(p) } else { p })
                .collect()
        };
        let mut in_band = 0usize;
        let mut lat_extent = 0.0f64;
        let mut lon_extent = 0.0f64;
        let top: Vec<_> = r.subsets.iter().take(20).collect();
        for sub in &top {
            let cells = unit_cells(sub.unit);
            let lats: Vec<usize> = cells.iter().map(|&c| c / cfg.nlon).collect();
            let lons: Vec<usize> = cells.iter().map(|&c| c % cfg.nlon).collect();
            let (lo, hi) = (*lats.iter().min().unwrap(), *lats.iter().max().unwrap() + 1);
            lat_extent += (hi - lo) as f64;
            lon_extent += (lons.iter().max().unwrap() + 1 - lons.iter().min().unwrap()) as f64;
            if hi > band.0 && lo < band.1 {
                in_band += 1;
            }
        }
        lat_extent /= top.len().max(1) as f64;
        lon_extent /= top.len().max(1) as f64;
        fig.row(&[
            &label,
            &r.subsets.len(),
            &format!("{in_band}/{}", top.len()),
            &format!("{lat_extent:.1}"),
            &format!("{lon_extent:.1}"),
        ]);
    }
    fig.finish();
}

/// Ablation D: multi-level pruning effectiveness vs group size — fine pairs
/// avoided and wall time, with the strong subsets preserved.
pub fn ablation_multilevel() {
    let mut fig = Figure::new(
        "ablation_multilevel",
        "Multi-level mining: pruning effectiveness vs group size",
        &[
            "group",
            "high_pruned",
            "low_pairs",
            "time(s)",
            "speedup_vs_flat",
            "subsets",
            "strong_recall",
        ],
    );
    let cfg = OceanConfig {
        nlon: 192,
        nlat: 144,
        ndepth: 2,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg.clone());
    let z = ZOrderLayout::new(&[cfg.nlon, cfg.nlat, cfg.ndepth]);
    let t = z.reorder(&ocean.variable("temperature"));
    let s = z.reorder(&ocean.variable("salinity"));
    let bt = Binner::fit(&t, 48);
    let bs = Binner::fit(&s, 48);
    let it = BitmapIndex::build(&t, bt);
    let is = BitmapIndex::build(&s, bs);
    let mining = MiningConfig {
        value_threshold: 0.004,
        spatial_threshold: 0.08,
        unit_size: 512,
    };

    let t0 = Instant::now();
    let flat = mine_index(&it, &is, &mining);
    let flat_t = t0.elapsed().as_secs_f64();
    fig.row(&[
        &1usize,
        &0usize,
        &flat.pairs_evaluated,
        &secs(flat_t),
        &"1.00x",
        &flat.subsets.len(),
        &"1.00",
    ]);

    for group in [2usize, 4, 8] {
        let mt = MultiLevelIndex::from_low(it.clone(), group);
        let ms = MultiLevelIndex::from_low(is.clone(), group);
        let t0 = Instant::now();
        let (r, stats) = mine_multilevel(&mt, &ms, &mining);
        let ml_t = t0.elapsed().as_secs_f64();
        // recall over the flat miner's strong subsets — coarsening can
        // dilute a fine pair below T, so the pruning trades recall for
        // work; the table quantifies that tradeoff.
        let strong: Vec<_> = flat.subsets.iter().filter(|s| s.spatial_mi > 0.4).collect();
        let kept = strong.iter().filter(|s| r.subsets.contains(s)).count();
        let recall = kept as f64 / strong.len().max(1) as f64;
        if group == 2 {
            assert!(recall >= 0.8, "group 2 recall collapsed: {recall}");
        }
        fig.row(&[
            &group,
            &stats.high_pairs_pruned,
            &stats.low_pairs_evaluated,
            &secs(ml_t),
            &speedup(flat_t, ml_t),
            &r.subsets.len(),
            &format!("{recall:.2}"),
        ]);
    }
    fig.finish();
}

/// Ablation E: the codecs the store ships — WAH (word-aligned, the paper's
/// choice) vs Roaring containers — vs uncompressed bitsets: index size and
/// AND+popcount throughput on a real Heat3D time-step's bitvectors.
pub fn ablation_codec() {
    let mut fig = Figure::new(
        "ablation_codec",
        "Codec comparison on one Heat3D step's index",
        &["codec", "index(KB)", "vs_raw", "and_count_all_pairs(s)"],
    );
    let mut heat3d = heat3d_config();
    heat3d.nx /= 2;
    heat3d.ny /= 2;
    heat3d.nz /= 2;
    let mut sim = Heat3D::new(heat3d);
    sim.run(4); // let structure develop
    let data = sim.step().fields.remove(0).data;
    let binner = heat3d_binner();
    let raw_kb = (data.len() * 8) as f64 / 1024.0;
    let index = BitmapIndex::build(&data, binner.clone());
    let nonempty: Vec<usize> = (0..index.nbins())
        .filter(|&b| index.counts()[b] > 0)
        .collect();

    // WAH
    let wah_kb = index.size_bytes() as f64 / 1024.0;
    let t0 = Instant::now();
    let mut acc = 0u64;
    for &j in &nonempty {
        for &k in &nonempty {
            acc += index.bin(j).and_count(index.bin(k));
        }
    }
    let wah_t = t0.elapsed().as_secs_f64();
    fig.row(&[
        &"wah",
        &format!("{wah_kb:.1}"),
        &format!("{:.1}%", 100.0 * wah_kb / raw_kb),
        &secs(wah_t),
    ]);

    // Roaring
    let roaring: Vec<RoaringVec> = index.bins().map(RoaringVec::from_wah).collect();
    let roaring_kb = roaring.iter().map(RoaringVec::size_bytes).sum::<usize>() as f64 / 1024.0;
    let t0 = Instant::now();
    let mut acc2 = 0u64;
    for &j in &nonempty {
        for &k in &nonempty {
            acc2 += roaring[j].and_count(&roaring[k]);
        }
    }
    let roaring_t = t0.elapsed().as_secs_f64();
    assert_eq!(acc, acc2, "codecs must agree");
    fig.row(&[
        &"roaring",
        &format!("{roaring_kb:.1}"),
        &format!("{:.1}%", 100.0 * roaring_kb / raw_kb),
        &secs(roaring_t),
    ]);

    // uncompressed
    let sets: Vec<Bitset> = (0..index.nbins())
        .map(|b| Bitset::from_bits(index.bin(b).iter_bits()))
        .collect();
    let raw_idx_kb = sets.iter().map(Bitset::size_bytes).sum::<usize>() as f64 / 1024.0;
    let t0 = Instant::now();
    let mut acc3 = 0u64;
    for &j in &nonempty {
        for &k in &nonempty {
            let mut x = sets[j].clone();
            x.and_assign(&sets[k]);
            acc3 += x.count_ones();
        }
    }
    let bs_t = t0.elapsed().as_secs_f64();
    assert_eq!(acc, acc3, "codecs must agree");
    fig.row(&[
        &"uncompressed",
        &format!("{raw_idx_kb:.1}"),
        &format!("{:.1}%", 100.0 * raw_idx_kb / raw_kb),
        &secs(bs_t),
    ]);
    fig.finish();
}
