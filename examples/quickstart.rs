//! Quickstart: build a WAH bitmap index over one array, query it, and
//! compute analyses from the bitmaps alone.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ibis::analysis::{Metric, VarSummary};
use ibis::core::{Binner, BitmapIndex};

fn main() {
    // A smooth synthetic field, as a simulation time-step would produce.
    let n = 1_000_000;
    let step_a: Vec<f64> = (0..n).map(|i| field(i, 0.0)).collect();
    let step_b: Vec<f64> = (0..n).map(|i| field(i, 0.8)).collect();

    // One binning scale shared by every time-step — 1 decimal digit, the
    // paper's Heat3D configuration.
    let binner = Binner::precision(-2.0, 2.0, 1);
    println!("binning: {} bins of width 0.1 over [-2, 2]", binner.nbins());

    // Build the index with the streaming Algorithm 1 (one pass, compressed
    // in place; the raw data could now be discarded).
    let index_a = BitmapIndex::build(&step_a, binner.clone());
    let index_b = BitmapIndex::build(&step_b, binner.clone());

    let raw_bytes = n * 8;
    println!(
        "raw step: {:.1} MB   bitmap index: {:.2} MB   ({:.1}% of raw)",
        raw_bytes as f64 / 1e6,
        index_a.size_bytes() as f64 / 1e6,
        100.0 * index_a.size_bytes() as f64 / raw_bytes as f64
    );

    // The index is an exact histogram…
    let total: u64 = index_a.counts().iter().sum();
    assert_eq!(total, n as u64);

    // …answers range queries with compressed ORs…
    let hits = index_a.query_range(0.5, 1.0);
    println!(
        "elements with value in [0.5, 1.0): {} of {}",
        hits.count_ones(),
        n
    );

    // …and supports the paper's analyses without the data: the same
    // metric from the bitmaps and from the raw arrays.
    let (bitmap_a, bitmap_b) = (VarSummary::Bitmap(index_a), VarSummary::Bitmap(index_b));
    let (full_a, full_b) = (
        VarSummary::full(step_a, binner.clone()),
        VarSummary::full(step_b, binner),
    );
    let h = bitmap_a.entropy();
    let ce_bitmaps = bitmap_b.metric(&bitmap_a, Metric::ConditionalEntropy);
    let ce_full = full_b.metric(&full_a, Metric::ConditionalEntropy);
    println!("Shannon entropy of step A: {h:.4} bits");
    println!("H(B|A) from bitmaps:   {ce_bitmaps:.6} bits");
    println!("H(B|A) from full data: {ce_full:.6} bits");
    assert_eq!(ce_bitmaps, ce_full, "bitmap analytics are exact");
    println!("bitmap and full-data results are identical — no accuracy loss");
}

fn field(i: usize, phase: f64) -> f64 {
    let x = i as f64 * 1e-4;
    (x + phase).sin() + 0.5 * (3.0 * x - phase).cos() * (0.2 * x).sin()
}
