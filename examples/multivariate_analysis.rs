//! Multivariate bitmap-only analysis on the ocean dataset: the Section 2.2
//! capabilities — correlation queries and approximate aggregation with
//! guaranteed bounds — computed from indices after the raw fields are gone.
//!
//! ```text
//! cargo run --release --example multivariate_analysis
//! ```

use ibis::analysis::{aggregate, correlation_query, SubsetQuery};
use ibis::core::{Binner, BitmapIndex};
use ibis::datagen::{OceanConfig, OceanModel};

fn main() {
    let cfg = OceanConfig {
        nlon: 128,
        nlat: 96,
        ndepth: 4,
        ..Default::default()
    };
    let ocean = OceanModel::new(cfg.clone());
    println!(
        "ocean {}x{}x{} — indexing 4 variables, then discarding the data\n",
        cfg.nlon, cfg.nlat, cfg.ndepth
    );

    let vars = ["temperature", "salinity", "oxygen", "nitrate"];
    let raw: Vec<Vec<f64>> = vars.iter().map(|v| ocean.variable(v)).collect();
    let indices: Vec<BitmapIndex> = raw
        .iter()
        .map(|d| BitmapIndex::build(d, Binner::fit(d, 48)))
        .collect();
    let raw_mb: f64 = raw.iter().map(|d| d.len() * 8).sum::<usize>() as f64 / 1e6;
    let idx_mb: f64 = indices.iter().map(|i| i.size_bytes()).sum::<usize>() as f64 / 1e6;
    println!("raw fields {raw_mb:.1} MB  →  indices {idx_mb:.2} MB\n");

    // --- correlation queries (Section 4.1) ---
    println!("correlation queries:");
    for (a, b) in [(0usize, 1usize), (0, 2), (0, 3)] {
        let ans = correlation_query(
            &indices[a],
            &indices[b],
            &SubsetQuery::all(),
            &SubsetQuery::all(),
        )
        .expect("well-formed query");
        println!(
            "  {:<12} x {:<10} MI {:>6.3} bits   r ≈ {:+.3}",
            vars[a],
            vars[b],
            ans.mutual_information,
            ans.pearson.unwrap_or(f64::NAN)
        );
    }
    // restricted to the warm surface waters only
    let warm = correlation_query(
        &indices[0],
        &indices[1],
        &SubsetQuery::value(18.0, 30.0),
        &SubsetQuery::all(),
    )
    .expect("well-formed query");
    println!(
        "  temp∈[18,30) x salinity   MI {:>6.3} bits over {} cells\n",
        warm.mutual_information, warm.selected
    );

    // --- approximate aggregation: bin midpoints, with a hard error bound ---
    println!("approximate means (true mean must lie inside the bound):");
    for (name, (data, index)) in vars.iter().zip(raw.iter().zip(&indices)) {
        let mean = aggregate::mean(index).expect("non-empty field");
        let truth = data.iter().sum::<f64>() / data.len() as f64;
        println!(
            "  {name:<12} {:>8.3} ± {:.3}   (true {truth:.3})",
            mean.value, mean.bound
        );
        assert!(mean.contains(truth), "{name}: bound must hold");
    }
}
