#![warn(missing_docs)]
//! # ibis-bench — figure-regeneration harnesses and micro-benchmarks
//!
//! One bench target per evaluation figure of the paper (Figures 7–17); each
//! prints the same rows/series the paper plots and appends a CSV under
//! `target/figures/`. Absolute numbers differ from the paper's testbed (our
//! substrate runs at laptop scale with modeled cores and I/O — see
//! DESIGN.md §3), but the *shape* — who wins, by what rough factor, where
//! the crossovers fall — is the reproduction target, recorded in
//! EXPERIMENTS.md.
//!
//! Workload sizes scale with the `IBIS_SCALE` environment variable
//! (default 1.0): set e.g. `IBIS_SCALE=2` for larger grids or `0.5` for a
//! quick pass.
//!
//! The benches that write a `BENCH_<name>.json` report (`codecs`, `query`,
//! `reorder`, `serving`, `obs_overhead`) share this crate's timing loop
//! ([`measure`]), data, load picker and report writer. `IBIS_BENCH_SMOKE=1`
//! shrinks each of them and writes its report to
//! `target/BENCH_<name>.smoke.json` instead ([`write_report`]), so a check
//! can read the report without touching the committed full-size numbers.

pub mod ablations;
pub mod figures;

use ibis_core::{Binner, BitmapIndex, RowOrder, RowPermutation, WahVec};
use ibis_datagen::{
    Heat3D, Heat3DConfig, LuleshConfig, MiniLulesh, OceanConfig, OceanModel, Simulation,
};
use std::fmt::Display;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// The global size multiplier from `IBIS_SCALE`.
pub fn scale() -> f64 {
    scale_from(std::env::var("IBIS_SCALE").ok().as_deref())
}

/// Parses an `IBIS_SCALE` setting: absent, unparsable, or non-positive
/// values fall back to 1.0. Pure so tests can cover every case without
/// touching the process environment.
pub fn scale_from(var: Option<&str>) -> f64 {
    var.and_then(|v| v.parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(1.0)
}

/// Whether `IBIS_BENCH_SMOKE=1` asks for the shrunken run.
pub fn smoke() -> bool {
    smoke_from(std::env::var("IBIS_BENCH_SMOKE").ok().as_deref())
}

/// Parses an `IBIS_BENCH_SMOKE` setting: exactly `1` is on, anything else
/// (absent included) off. Pure, like [`scale_from`].
fn smoke_from(var: Option<&str>) -> bool {
    var == Some("1")
}

/// Mean seconds per call of `f`: one call sizes the iteration count to
/// about 60 ms a sample (10 ms under [`smoke`]), then three samples are
/// averaged. Every bench that reports a time goes through this loop.
pub fn measure<O>(mut f: impl FnMut() -> O) -> f64 {
    let target = if smoke() { 0.01 } else { 0.06 };
    let t0 = Instant::now();
    black_box(f());
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((target / one).round() as u64).clamp(1, 1_000_000_000);
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

/// A smooth, ocean-like temperature field of `n` rows at `step`: long
/// same-bin runs with a fine ripple, over roughly 1..63.
pub fn ocean_temperature(step: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            32.0 + 28.0 * (x * 9.0 + step as f64 * 0.7).sin() + 3.0 * (x * 151.0).sin()
        })
        .collect()
}

/// A salinity field that tracks `temperature`, so correlations between
/// the two are not trivial.
pub fn ocean_salinity(temperature: &[f64]) -> Vec<f64> {
    temperature
        .iter()
        .enumerate()
        .map(|(i, &t)| 20.0 + t * 0.5 + 6.0 * ((i as f64 * 0.013).cos()))
        .collect()
}

/// splitmix64: the benches' seeded generator, so every run draws the same
/// data and the same load.
pub struct Mix64(pub u64);

impl Mix64 {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The cumulative distribution of a zipf law over `len` ranks (weight
/// 1/rank): non-decreasing, ending at exactly 1.
pub fn zipf_cdf(len: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let weights: Vec<f64> = (0..len)
        .map(|i| {
            acc += 1.0 / (i + 1) as f64;
            acc
        })
        .collect();
    weights.into_iter().map(|w| w / acc).collect()
}

/// A zipf-picked item of `items`, whose ranks [`zipf_cdf`] gave `cdf`.
pub fn zipf_pick<'a, T>(items: &'a [T], cdf: &[f64], rng: &mut Mix64) -> &'a T {
    let x = rng.unit();
    &items[cdf.partition_point(|&c| c < x).min(items.len() - 1)]
}

/// The `p`-quantile (0 to 1, nearest rank) of ascending nanosecond
/// samples, in milliseconds; 0 for no samples.
pub fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let i = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[i] as f64 / 1e6
}

/// Writes bench `name`'s JSON report: `BENCH_<name>.json` at the
/// repository root, or `target/BENCH_<name>.smoke.json` under [`smoke`].
/// Returns the path written.
pub fn write_report(name: &str, json: &str) -> PathBuf {
    let path = match smoke() {
        true => target_dir().join(format!("BENCH_{name}.smoke.json")),
        false => repo_root().join(format!("BENCH_{name}.json")),
    };
    std::fs::create_dir_all(path.parent().expect("a report has a directory")).ok();
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("{name}: wrote {}", path.display());
    path
}

/// The workspace root, whatever the working directory.
fn repo_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // workspace root
    dir
}

/// The workspace's `target/` directory, where benches build their stores
/// and write smoke reports and figure CSVs.
pub fn target_dir() -> PathBuf {
    repo_root().join("target")
}

/// Scales a linear dimension.
pub fn scaled_dim(base: usize) -> usize {
    ((base as f64 * scale().cbrt()).round() as usize).max(8)
}

/// Scales a count (steps, nodes, …).
pub fn scaled_count(base: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(2)
}

/// The benchmark Heat3D problem (paper: 800×1000×1000; here 64³ × scale).
pub fn heat3d_config() -> Heat3DConfig {
    let d = scaled_dim(64);
    Heat3DConfig {
        nx: d,
        ny: d,
        nz: d,
        ..Default::default()
    }
}

/// The benchmark Heat3D binning scale. The paper bins to one decimal digit
/// over each step's range, yielding 64–206 bitvectors; our fixed global
/// range at integer precision lands in the same regime (103 bins).
pub fn heat3d_binner() -> Binner {
    Binner::precision(-1.0, 101.0, 0)
}

/// One operand pair of the joint-table and subset-count benches
/// (`benches/query.rs`).
pub struct JointRegime {
    /// `heat3d`, `ocean`, `graybin` or `scattered`.
    pub name: &'static str,
    /// First operand; selections are drawn from its bins.
    pub a: BitmapIndex,
    /// Second operand, over the same stored rows.
    pub b: BitmapIndex,
    /// The stored row order both were built under, when not the identity.
    pub perm: Option<RowPermutation>,
}

/// Two consecutive steps of a diffused `heat`³ Heat3D mesh.
fn heat3d_steps(heat: usize) -> [Vec<f64>; 2] {
    let mut sim = Heat3D::new(Heat3DConfig {
        nx: heat,
        ny: heat,
        nz: heat,
        sweeps_per_step: 2,
        ..Default::default()
    });
    for _ in 0..24 {
        sim.step(); // let the field diffuse
    }
    let t0 = sim.temperature().to_vec();
    sim.step();
    [t0, sim.temperature().to_vec()]
}

/// Both Heat3D steps indexed under `perm` (the identity when `None`).
fn heat3d_regime(
    name: &'static str,
    steps: &[Vec<f64>; 2],
    perm: Option<RowPermutation>,
) -> JointRegime {
    let stored = |data: &[f64]| match &perm {
        Some(perm) => BitmapIndex::build_permuted(data, heat3d_binner(), perm),
        None => BitmapIndex::build(data, heat3d_binner()),
    };
    JointRegime {
        name,
        a: stored(&steps[0]),
        b: stored(&steps[1]),
        perm,
    }
}

/// The three data shapes the one-pass joint table has to serve, at the
/// `ibis-e2e` workloads' binning scales: two consecutive Heat3D steps of a
/// `heat`³ mesh (long fills broken by literal words), ocean temperature ×
/// salinity (noise: literal words throughout), and the same Heat3D steps
/// under the first one's GrayBin order (every bin of `a` a single fill —
/// where the paper's AND table is already cheap).
pub fn joint_regimes(heat: usize, ocean: [usize; 3]) -> Vec<JointRegime> {
    regimes(heat, ocean, false)
}

/// [`joint_regimes`] and `scattered` — the Heat3D steps stored under a
/// gather of stride 2237, that many short ascending segments, where a
/// spatial block is thousands of stored ranges (what a multi-field sort
/// will produce): the regimes a subset count has to serve
/// (`benches/query.rs`' `subset_count`).
pub fn count_regimes(heat: usize, ocean: [usize; 3]) -> Vec<JointRegime> {
    regimes(heat, ocean, true)
}

/// A prime, so coprime to the rows of every `heat`³ mesh benched.
const SCATTER_STRIDE: u64 = 2237;

fn regimes(heat: usize, ocean: [usize; 3], with_scattered: bool) -> Vec<JointRegime> {
    let steps = heat3d_steps(heat);
    let sorted = RowOrder::GrayBin.permutation(&[], &heat3d_binner(), &steps[0]);
    let model = OceanModel::new(OceanConfig {
        nlon: ocean[0],
        nlat: ocean[1],
        ndepth: ocean[2],
        ..Default::default()
    });
    let fitted = |name: &str| {
        let data = model.variable(name);
        let binner = Binner::fit(&data, 64);
        BitmapIndex::build(&data, binner)
    };
    let mut regimes = vec![
        heat3d_regime("heat3d", &steps, None),
        JointRegime {
            name: "ocean",
            a: fitted("temperature"),
            b: fitted("salinity"),
            perm: None,
        },
        heat3d_regime("graybin", &steps, sorted),
    ];
    if with_scattered {
        let n = steps[0].len() as u64;
        let gather = (0..n).map(|i| (i * SCATTER_STRIDE % n) as u32).collect();
        let scattered = RowPermutation::from_gather(gather);
        regimes.push(heat3d_regime("scattered", &steps, Some(scattered)));
    }
    regimes
}

/// The run of adjacent bins holding closest to `share` of the rows that
/// `counts` (rows per bin) add up to.
pub fn span_holding(counts: &[u64], share: f64) -> (usize, usize) {
    let want = share * counts.iter().sum::<u64>() as f64;
    let miss =
        |&(lo, hi): &(usize, usize)| (counts[lo..=hi].iter().sum::<u64>() as f64 - want).abs();
    (0..counts.len())
        .flat_map(|lo| (lo..counts.len()).map(move |hi| (lo, hi)))
        .min_by(|x, y| miss(x).total_cmp(&miss(y)))
        .expect("an index has bins")
}

/// What a correlation query brings to the joint table: the bins of the
/// first operand its value range admits and the stored rows its region
/// keeps (`None`: all of them).
pub type JointPredicate = (std::ops::Range<usize>, Option<Vec<std::ops::Range<u64>>>);

impl JointRegime {
    /// The predicates a correlation query brings, by name: every row, the
    /// value ranges of `a` (runs of adjacent bins) holding closest to 70 %
    /// and 10 % of the rows, and one spatial block of 1/64 of the grid.
    pub fn predicates(&self) -> Vec<(&'static str, JointPredicate)> {
        let (n, all) = (self.a.len(), 0..self.a.nbins());
        let value_range = |share: f64| {
            let (lo, hi) = span_holding(self.a.counts(), share);
            lo..hi + 1
        };
        let block = ibis_analysis::SubsetQuery::region(n / 2..n / 2 + n / 64);
        let region = ibis_analysis::stored_ranges(&[&block], n, self.perm.as_ref());
        vec![
            ("all", (all.clone(), None)),
            ("70pct", (value_range(0.7), None)),
            ("10pct", (value_range(0.1), None)),
            (
                "region_1_64",
                (all, region.expect("block lies inside the grid")),
            ),
        ]
    }

    /// The selection a predicate stands for, materialised: what the AND
    /// table masks its rows with. `None` for every row.
    pub fn selection(&self, (bins, ranges): &JointPredicate) -> Option<WahVec> {
        let n = self.a.len();
        let value = (bins.len() < self.a.nbins()).then(|| self.a.or_bins(bins.clone()));
        let region = ranges
            .as_deref()
            .map(|r| ibis_analysis::shard_mask(r, 0..n));
        match (value, region) {
            (Some(v), Some(r)) => Some(v.and(&r)),
            (v, r) => v.or(r),
        }
    }

    /// Both operands as a store hands them back: through the codec, every
    /// bin in the form the per-bin selector keeps it in (Roaring where it
    /// is the smaller), not transcoded. Also the number of Roaring bins.
    pub fn as_stored(&self) -> (JointRegime, usize) {
        let reload = |idx: &BitmapIndex| {
            let (payload, _) = ibis_insitu::codec::encode_index_auto(idx);
            ibis_insitu::codec::decode_index(&payload).expect("own encoding decodes")
        };
        let (a, b) = (reload(&self.a), reload(&self.b));
        let roaring = |idx: &BitmapIndex| {
            let held = (0..idx.nbins()).filter(|&bin| idx.resident_bin(bin).is_none());
            held.count()
        };
        let n = roaring(&a) + roaring(&b);
        let perm = self.perm.clone();
        let name = self.name;
        (JointRegime { name, a, b, perm }, n)
    }
}

/// The benchmark mini-LULESH problem.
pub fn lulesh_config() -> LuleshConfig {
    LuleshConfig {
        edge: scaled_dim(14),
        ..Default::default()
    }
}

/// Fits one binner per LULESH output array from a short probe run (the
/// binning scale must be shared across steps for cross-step metrics).
pub fn lulesh_binners(cfg: &LuleshConfig, probe_steps: usize, bins: usize) -> Vec<Binner> {
    let mut probe = MiniLulesh::new(cfg.clone());
    let steps = probe.run(probe_steps);
    (0..steps[0].fields.len())
        .map(|f| {
            let all: Vec<f64> = steps
                .iter()
                .flat_map(|s| s.fields[f].data.iter().copied())
                .collect();
            Binner::fit(&all, bins)
        })
        .collect()
}

/// The paper's 100-steps-select-25 setting, scaled.
pub fn steps_and_k() -> (usize, usize) {
    let steps = scaled_count(32);
    (steps, (steps / 4).max(2))
}

/// A printed + CSV-persisted result table for one figure.
pub struct Figure {
    id: &'static str,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Figure {
    /// Starts a figure table with the given identifier (e.g. `"fig07"`) and
    /// column headers.
    pub fn new(id: &'static str, title: &str, columns: &[&str]) -> Self {
        println!("\n=== {id}: {title} ===");
        Figure {
            id,
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Prints the table and writes `target/figures/<id>.csv`.
    pub fn finish(self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let print_row = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", line.join("  "));
        };
        print_row(&self.columns);
        for row in &self.rows {
            print_row(row);
        }
        // CSV
        let dir = figures_dir();
        std::fs::create_dir_all(&dir).ok();
        let path = dir.join(format!("{}.csv", self.id));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", self.columns.join(","));
            for row in &self.rows {
                let _ = writeln!(f, "{}", row.join(","));
            }
            println!("  [written {}]", path.display());
        }
    }
}

/// Where figure CSVs are collected.
pub fn figures_dir() -> PathBuf {
    target_dir().join("figures")
}

/// Formats seconds with 3 decimals (table cells).
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a speedup factor.
pub fn speedup(full: f64, ours: f64) -> String {
    format!("{:.2}x", full / ours)
}

/// Formats bytes as MB.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_covers_every_case() {
        // pure-function test: runs (and asserts) regardless of whether the
        // ambient environment sets IBIS_SCALE
        assert_eq!(scale_from(None), 1.0, "unset falls back");
        assert_eq!(scale_from(Some("2.5")), 2.5);
        assert_eq!(scale_from(Some("0.5")), 0.5);
        assert_eq!(scale_from(Some("not-a-number")), 1.0, "garbage falls back");
        assert_eq!(scale_from(Some("0")), 1.0, "zero is rejected");
        assert_eq!(scale_from(Some("-3")), 1.0, "negative is rejected");
    }

    #[test]
    fn smoke_parsing_covers_every_case() {
        // pure-function test, like the IBIS_SCALE one above
        assert!(smoke_from(Some("1")));
        assert!(!smoke_from(None), "unset is off");
        assert!(!smoke_from(Some("0")));
        assert!(!smoke_from(Some("")));
        assert!(!smoke_from(Some("true")), "only 1 is on");
        assert!(!smoke_from(Some(" 1")));
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let ns = [1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000];
        assert_eq!(percentile_ms(&ns, 0.0), 1.0);
        assert_eq!(percentile_ms(&ns, 0.5), 3.0);
        assert_eq!(percentile_ms(&ns, 1.0), 5.0);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile_ms(&[7_500_000], p), 7.5, "one sample at p={p}");
        }
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn zipf_cdf_is_monotone_and_ends_at_one() {
        for len in [1, 2, 7, 1000] {
            let cdf = zipf_cdf(len);
            assert_eq!(cdf.len(), len);
            assert!(cdf.windows(2).all(|w| w[0] <= w[1]), "len {len}");
            assert!(cdf[0] > 0.0);
            assert_eq!(cdf[len - 1], 1.0, "len {len}");
        }
        // rank 1 is the most picked, and every pick is an item
        let items: Vec<usize> = (0..50).collect();
        let cdf = zipf_cdf(items.len());
        let mut rng = Mix64(3);
        let mut hits = [0usize; 50];
        for _ in 0..5000 {
            hits[*zipf_pick(&items, &cdf, &mut rng)] += 1;
        }
        assert!(hits.iter().all(|&h| h <= hits[0]), "{hits:?}");
    }

    #[test]
    fn figure_writes_csv() {
        let mut f = Figure::new("figtest", "smoke", &["a", "b"]);
        f.row(&[&1, &"x"]);
        f.row(&[&2, &"y"]);
        f.finish();
        let p = figures_dir().join("figtest.csv");
        let s = std::fs::read_to_string(&p).unwrap();
        assert!(s.contains("a,b"));
        assert!(s.contains("2,y"));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn helpers_format() {
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(speedup(2.0, 1.0), "2.00x");
        assert_eq!(mb(1_500_000), "1.50");
    }

    #[test]
    fn lulesh_binners_cover_probe() {
        let cfg = LuleshConfig::tiny();
        let binners = lulesh_binners(&cfg, 2, 16);
        assert_eq!(binners.len(), 12);
    }
}
