//! Row-order sweep: order × dataset × codec, persisted to
//! `BENCH_reorder.json` at the repository root. For each simulation field
//! (Heat3D temperature, mini-LULESH velocity, Ocean surface field) every
//! [`RowOrder`] builds the (re)ordered index, every codec reports bytes for
//! the resulting bins, and the serving-side kernels are timed: the
//! value-range OR (the core of a range/count query — order-invariant, no
//! inverse mapping needed; WAH bins fold pairwise, Roaring and auto bins
//! are ORed into one dense accumulator from the form each is held in), the
//! region AND against a stored-order region
//! bitmap, and the inverse mapping back to original row ids (the
//! translation a selection query pays, reported separately so the cost is
//! visible rather than buried).
//!
//! A reordered index is only readable with its permutation, so the
//! `orders` table charges every order what the bins alone never paid:
//! the `__order` blob the store writes next to them, the time to build
//! the permutation, and the time to turn a region into a stored-order
//! mask through the library ([`stored_ranges`] + [`shard_mask`]).
//!
//! Every timed point is first asserted byte-identical to the
//! identity-order oracle (mapped through the inverse permutation), and the
//! issue's acceptance criterion — some non-identity order achieving ≥15%
//! smaller bytes at ≤10% value-query latency regression on a coherent
//! pattern — is asserted in-process and recorded in the report.
//!
//! `IBIS_ORDER_SMOKE=1` shrinks the grids and writes to
//! `target/BENCH_reorder.smoke.json` instead (latency ratios are too noisy
//! to assert at smoke sizes; the size criterion and all identity checks
//! still run).

use ibis_analysis::{shard_mask, stored_ranges, SubsetQuery};
use ibis_core::{
    Binner, BitmapIndex, CodecId, CodecVec, DenseBits, RowOrder, RowPermutation, WahVec,
};
use ibis_datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use ibis_insitu::StoreWriter;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Mean seconds per iteration (same calibration scheme as the codec and
/// kernel sweeps).
fn measure<O>(mut f: impl FnMut() -> O) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.06 / one).round() as u64).clamp(1, 1_000_000_000);
    let samples = 3;
    let mut total = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        total += t0.elapsed().as_secs_f64() / iters as f64;
    }
    total / samples as f64
}

/// One dataset of the sweep: a simulation field.
struct Dataset {
    name: &'static str,
    data: Vec<f64>,
}

/// Steps a simulation `steps` times and keeps field `field` of the last
/// output (mid-run states have developed structure; step 0 is mostly the
/// initial condition).
fn evolve(mut sim: impl Simulation, steps: usize, field: usize) -> Vec<f64> {
    let mut out = sim.step();
    for _ in 1..steps {
        out = sim.step();
    }
    out.fields.swap_remove(field).data
}

fn datasets(smoke: bool) -> Vec<Dataset> {
    let heat = Heat3DConfig {
        nx: if smoke { 12 } else { 40 },
        ny: if smoke { 12 } else { 40 },
        nz: if smoke { 12 } else { 40 },
        ..Heat3DConfig::tiny()
    };
    let hdata = evolve(Heat3D::new(heat), 5, 0);
    let lulesh = LuleshConfig {
        edge: if smoke { 6 } else { 20 },
        ..LuleshConfig::tiny()
    };
    // field 6 = velocity_x: node-centered, spatially coherent blast wave
    let ldata = evolve(MiniLulesh::new(lulesh), 4, 6);
    let ocean = if smoke {
        OceanConfig::tiny()
    } else {
        OceanConfig {
            nlon: 96,
            nlat: 64,
            ndepth: 8,
            ..OceanConfig::tiny()
        }
    };
    let odata = evolve(OceanModel::new(ocean), 3, 0);
    vec![
        Dataset {
            name: "heat3d",
            data: hdata,
        },
        Dataset {
            name: "lulesh",
            data: ldata,
        },
        Dataset {
            name: "ocean",
            data: odata,
        },
    ]
}

/// One timed/sized point of the sweep.
struct Sample {
    dataset: &'static str,
    order: &'static str,
    codec: &'static str,
    bytes: usize,
    /// Value-range OR + count (the asserted query kernel).
    value_or_s: Option<f64>,
    /// Region AND against a stored-order region bitmap (WAH only).
    region_and_s: Option<f64>,
    /// Inverse mapping of the value selection back to original row ids
    /// (WAH only; zero-cost under identity, reported for transparency).
    map_back_s: Option<f64>,
}

/// What an order costs beyond its bins, per dataset.
struct OrderCost {
    dataset: &'static str,
    order: &'static str,
    /// The `__order` blob as the store writes it (frame and tag
    /// included); 0 under identity, which stores none.
    order_payload_bytes: u64,
    /// The bins under the store's per-bin codec plan plus that blob.
    bytes_with_order: u64,
    /// Building the permutation from the raw field.
    perm_build_s: Option<f64>,
    /// Region → stored-order mask through the library.
    region_mask_s: f64,
    /// Ascending segments of the gather order: a region is at most one
    /// stored range per segment.
    segments: usize,
}

/// Bytes of the `__order` blob a store writes for `perm`.
fn order_blob_bytes(order: RowOrder, perm: &RowPermutation) -> u64 {
    let dir = std::env::temp_dir().join(format!("ibis-bench-reorder-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut w = StoreWriter::create(&dir).expect("create scratch store");
    w.put_order(0, order, perm).expect("put order");
    let bytes = std::fs::metadata(dir.join("s000000___order.ibis"))
        .expect("order blob")
        .len();
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// The region mask by gathering the inverse permutation over the region,
/// sorting and rebuilding: the oracle for the library's.
fn gathered_mask(perm: &RowPermutation, region: Range<u64>) -> WahVec {
    let mut ones: Vec<u64> = region.map(|r| perm.inv()[r as usize] as u64).collect();
    ones.sort_unstable();
    WahVec::from_ones(&ones, perm.len() as u64)
}

fn find<'a>(samples: &'a [Sample], dataset: &str, order: &str, codec: &str) -> &'a Sample {
    samples
        .iter()
        .find(|s| s.dataset == dataset && s.order == order && s.codec == codec)
        .expect("sample present")
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::var("IBIS_ORDER_SMOKE").is_ok_and(|v| v == "1");
    let mut samples: Vec<Sample> = Vec::new();
    let mut costs: Vec<OrderCost> = Vec::new();
    let mut elements = String::new();
    let sets = datasets(smoke);
    for (di, set) in sets.iter().enumerate() {
        let n = set.data.len();
        elements.push_str(&format!(
            "    \"{}\": {n}{}\n",
            set.name,
            if di + 1 == sets.len() { "" } else { "," }
        ));
        let binner = Binner::fit(&set.data, 64);
        let identity = BitmapIndex::build(&set.data, binner.clone());
        let nbins = identity.nbins();
        // the query shapes: a middle value-range OR and a contiguous
        // original-row slab (a slowest-axis region slab)
        let (blo, bhi) = (nbins / 3, (2 * nbins) / 3 + 1);
        let (r0, r1) = (n as u64 / 5, (2 * n as u64) / 5);
        let region_orig = WahVec::from_ones(&(r0..r1).collect::<Vec<u64>>(), n as u64);
        let oracle_or = (blo..bhi).fold(WahVec::zeros(n as u64), |acc, b| acc.or(identity.bin(b)));
        let oracle_region_count = oracle_or.and_count(&region_orig);

        for order in RowOrder::ALL {
            let perm = order.permutation(&[], &binner, &set.data);
            let idx = match &perm {
                Some(p) => BitmapIndex::build_permuted(&set.data, binner.clone(), p),
                None => identity.clone(),
            };
            // -- identity gate: every stored bin, mapped back through the
            // inverse permutation, must equal the identity-order bin --
            if let Some(p) = &perm {
                for b in 0..nbins {
                    assert_eq!(
                        &p.map_selection_to_original(idx.bin(b)),
                        identity.bin(b),
                        "{}/{}: bin {b} diverged from identity",
                        set.name,
                        order.name()
                    );
                }
            }
            // stored-order region bitmap, through the library — and word
            // for word what gathering the inverse permutation gives
            let region_query = SubsetQuery::region(r0..r1);
            let library_mask = || {
                let ranges = stored_ranges(&[&region_query], n as u64, perm.as_ref())
                    .expect("region in range")
                    .expect("a region predicate");
                shard_mask(&ranges, 0..n as u64)
            };
            let region = library_mask();
            match &perm {
                Some(p) => assert_eq!(region, gathered_mask(p, r0..r1)),
                None => assert_eq!(region, region_orig),
            }
            let stored_or = (blo..bhi).fold(WahVec::zeros(n as u64), |acc, b| acc.or(idx.bin(b)));
            assert_eq!(stored_or.count_ones(), oracle_or.count_ones());
            if let Some(p) = &perm {
                assert_eq!(p.map_selection_to_original(&stored_or), oracle_or);
            }
            assert_eq!(
                stored_or.and_count(&region),
                oracle_region_count,
                "{}/{}: region AND count diverged",
                set.name,
                order.name()
            );

            // per-codec encodings of the stored bins
            let wah: Vec<WahVec> = (0..nbins).map(|b| idx.bin(b).clone()).collect();
            let roaring: Vec<CodecVec> = wah
                .iter()
                .map(|v| CodecVec::with_codec(v, CodecId::Roaring))
                .collect();
            let auto: Vec<CodecVec> = wah.iter().map(CodecVec::from_wah_auto).collect();
            // a stored bin is read where it lies: the value range's bins
            // are ORed into one dense accumulator from their own forms
            let dense_or = |bins: &[CodecVec]| {
                let mut acc = DenseBits::zeros(n as u64);
                for v in &bins[blo..bhi] {
                    acc.or_stored(v);
                }
                acc.to_wah()
            };
            // cross-codec identity on the timed OR
            assert_eq!(dense_or(&roaring), stored_or, "roaring OR diverged");
            assert_eq!(dense_or(&auto), stored_or, "auto OR diverged");

            let wah_or = measure(|| {
                (blo..bhi)
                    .fold(WahVec::zeros(n as u64), |acc, b| acc.or(&wah[b]))
                    .count_ones()
            });
            let roaring_or = measure(|| dense_or(&roaring).count_ones());
            let auto_or = measure(|| dense_or(&auto).count_ones());
            let region_and = measure(|| stored_or.and_count(&region));
            let auto_bytes: usize = auto.iter().map(CodecVec::size_bytes).sum();
            let order_payload_bytes = perm.as_ref().map_or(0, |p| order_blob_bytes(order, p));
            costs.push(OrderCost {
                dataset: set.name,
                order: order.name(),
                order_payload_bytes,
                bytes_with_order: auto_bytes as u64 + order_payload_bytes,
                perm_build_s: perm
                    .as_ref()
                    .map(|_| measure(|| order.permutation(&[], &binner, &set.data))),
                region_mask_s: measure(library_mask),
                segments: perm.as_ref().map_or(1, |p| p.segments().len()),
            });
            let map_back = perm
                .as_ref()
                .map(|p| measure(|| p.map_selection_to_original(&stored_or)));

            let mut push = |codec: &'static str,
                            bytes: usize,
                            value_or_s: Option<f64>,
                            region_and_s: Option<f64>,
                            map_back_s: Option<f64>| {
                if let Some(t) = value_or_s {
                    println!(
                        "reorder: {}/{}/{codec:<8} {bytes:>9} B  value_or {:>9.3} us",
                        set.name,
                        order.name(),
                        t * 1e6
                    );
                }
                samples.push(Sample {
                    dataset: set.name,
                    order: order.name(),
                    codec,
                    bytes,
                    value_or_s,
                    region_and_s,
                    map_back_s,
                });
            };
            push(
                "wah",
                wah.iter().map(WahVec::size_bytes).sum(),
                Some(wah_or),
                Some(region_and),
                map_back,
            );
            push(
                "roaring",
                roaring.iter().map(CodecVec::size_bytes).sum(),
                Some(roaring_or),
                None,
                None,
            );
            push("auto", auto_bytes, Some(auto_or), None, None);
        }
        println!("reorder: {} identity checks passed", set.name);
    }
    write_json(&samples, &costs, &sets, &elements, smoke);
}

fn write_json(
    samples: &[Sample],
    costs: &[OrderCost],
    sets: &[Dataset],
    elements: &str,
    smoke: bool,
) {
    const CODECS: [&str; 3] = ["wah", "roaring", "auto"];
    let orders: Vec<&str> = RowOrder::ALL.iter().map(|o| o.name()).collect();
    let mut out = format!(
        "{{\n  \"smoke\": {smoke},\n  \"identity_checked\": true,\n  \"elements\": {{\n{elements}  }},\n  \"samples\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |t| format!("{t:e}"));
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"order\": \"{}\", \"codec\": \"{}\", \
             \"bytes\": {}, \"value_or_s\": {}, \"region_and_s\": {}, \"map_back_s\": {}}}{}\n",
            s.dataset,
            s.order,
            s.codec,
            s.bytes,
            opt(s.value_or_s),
            opt(s.region_and_s),
            opt(s.map_back_s),
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }

    // what each order costs beyond its bins; `with_order_ratio` is the
    // bins under the store's codec plan plus the order blob, over the same
    // under identity — the size ratio a store actually sees
    out.push_str("  ],\n  \"orders\": [\n");
    let mut best_with_order = ("none".to_string(), f64::INFINITY);
    for (i, c) in costs.iter().enumerate() {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |t| format!("{t:e}"));
        let base = costs
            .iter()
            .find(|b| b.dataset == c.dataset && b.order == "identity")
            .expect("identity row present");
        let ratio = c.bytes_with_order as f64 / base.bytes_with_order as f64;
        if c.order != "identity" && ratio < best_with_order.1 {
            best_with_order = (format!("{}/{}", c.dataset, c.order), ratio);
        }
        println!(
            "reorder: {:<7} {:<11} order blob {:>8} B  with order x{ratio:.3}  perm {:>9} us  \
             region mask {:>9.3} us ({} segments)",
            c.dataset,
            c.order,
            c.order_payload_bytes,
            c.perm_build_s
                .map_or("n/a".into(), |t| format!("{:.1}", t * 1e6)),
            c.region_mask_s * 1e6,
            c.segments,
        );
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"order\": \"{}\", \"order_payload_bytes\": {}, \
             \"bytes_with_order\": {}, \"with_order_ratio\": {ratio:.4}, \"perm_build_s\": {}, \
             \"region_mask_s\": {:e}, \"segments\": {}}}{}\n",
            c.dataset,
            c.order,
            c.order_payload_bytes,
            c.bytes_with_order,
            opt(c.perm_build_s),
            c.region_mask_s,
            c.segments,
            if i + 1 == costs.len() { "" } else { "," }
        ));
    }

    // size and latency of every non-identity point, relative to the same
    // codec under identity order (< 1.0 means the reorder wins)
    out.push_str("  ],\n  \"vs_identity\": {\n");
    let mut winners: Vec<(String, f64, f64)> = Vec::new();
    for (di, set) in sets.iter().enumerate() {
        out.push_str(&format!("    \"{}\": {{\n", set.name));
        let non_identity: Vec<&&str> = orders.iter().filter(|o| **o != "identity").collect();
        for (oi, order) in non_identity.iter().enumerate() {
            out.push_str(&format!("      \"{order}\": {{"));
            for (ci, codec) in CODECS.iter().enumerate() {
                let base = find(samples, set.name, "identity", codec);
                let this = find(samples, set.name, order, codec);
                let size_ratio = this.bytes as f64 / base.bytes as f64;
                let lat_ratio = match (this.value_or_s, base.value_or_s) {
                    (Some(t), Some(b)) => Some(t / b),
                    _ => None,
                };
                println!(
                    "reorder: {:<7} {:<11} {codec:<8} size x{size_ratio:.3} latency x{}",
                    set.name,
                    order,
                    lat_ratio.map_or("n/a".into(), |r| format!("{r:.3}")),
                );
                if let Some(lr) = lat_ratio {
                    winners.push((format!("{}/{}/{}", set.name, order, codec), size_ratio, lr));
                }
                out.push_str(&format!(
                    "\"{codec}\": {{\"size_ratio\": {size_ratio:.4}, \"latency_ratio\": {}}}{}",
                    lat_ratio.map_or("null".to_string(), |r| format!("{r:.4}")),
                    if ci + 1 == CODECS.len() { "" } else { ", " }
                ));
            }
            out.push_str(&format!(
                "}}{}\n",
                if oi + 1 == non_identity.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "    }}{}\n",
            if di + 1 == sets.len() { "" } else { "," }
        ));
    }

    // -- the issue's acceptance criterion: some non-identity order earns
    // ≥15% smaller bytes at ≤10% value-query latency regression --
    let best = winners
        .iter()
        .filter(|(_, _, lr)| *lr <= 1.10)
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one point with measurable latency");
    let met = best.1 <= 0.85;
    println!(
        "reorder: best size ratio at <=10% latency regression: {} (size x{:.3}, latency x{:.3})",
        best.0, best.1, best.2
    );
    assert!(
        met,
        "no non-identity order achieved >=15% smaller bytes within the latency budget \
         (best: {} size x{:.3} latency x{:.3})",
        best.0, best.1, best.2
    );
    if !smoke {
        // latency ratios at smoke sizes are noise; at full size the winner
        // must hold both halves of the criterion
        assert!(best.2 <= 1.10, "winner exceeded the latency budget");
    }
    // the criterion above is the bins alone, as it was first recorded; the
    // best ratio that pays for its permutation is reported next to it
    out.push_str(&format!(
        "  }},\n  \"criterion\": {{\"best_point\": \"{}\", \"size_ratio\": {:.4}, \
         \"latency_ratio\": {:.4}, \"size_win_15pct_within_latency_10pct\": {met}, \
         \"best_point_with_order\": \"{}\", \"best_with_order_ratio\": {:.4}}}\n}}\n",
        best.0, best.1, best.2, best_with_order.0, best_with_order.1
    ));

    let path = if smoke {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_reorder.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reorder.json")
    };
    std::fs::write(path, out).expect("write BENCH_reorder report");
    println!("reorder: wrote {path}");
}
