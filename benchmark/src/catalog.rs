//! The seeded query catalog: the fixed op sequence every round replays.
//!
//! The catalog is a fixed *design* — value-range widths, region sizes,
//! region positions, steps and anchor quantiles cycle through fixed strata
//! — and the seed only *jitters* it: every region start moves by up to
//! [`REGION_JITTER`] cells and every value range by up to
//! [`VALUE_JITTER`] of a bin. Two
//! seeds therefore ask different questions of the same shape and cost, so
//! a metric's spread across seeds is the machine's, not the draw's (a
//! free draw of two dozen correlation queries moved their median cost by
//! 30 % from seed to seed). Each value range is anchored at the value of
//! a cell inside the query's own region, so it always selects that cell.

use crate::data::{Dataset, Source};
use crate::rng::Rng;
use ibis_insitu::engine::parse_batch;
use ibis_insitu::QueryRequest;

/// How queries spread over steps and space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Skew {
    /// Steps round-robin, regions anywhere.
    Uniform,
    /// Steps zipf(1.1)-distributed and 70 % of regions inside one of
    /// `shards` equal row ranges — the cache-pressure workload.
    ZipfSharded {
        /// Row ranges regions are confined to.
        shards: usize,
    },
}

/// Query kind, for latency pooling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A subset count.
    Subset,
    /// A two-variable correlation.
    Correlation,
}

/// One round's ops: each a one-query JSON batch document.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// The documents sent to the program, in order.
    pub docs: Vec<String>,
    /// The same queries as the program's own parser reads them (so the
    /// oracle sees exactly the bounds the engine sees).
    pub requests: Vec<QueryRequest>,
    /// Kind of each op.
    pub kinds: Vec<Kind>,
}

/// Value-range widths, as a share of the variable's whole range.
const WIDTHS: [f64; 6] = [0.02, 0.05, 0.10, 0.20, 0.40, 0.70];
/// Region sizes of subset queries, as a share of the grid; 0 means no
/// region predicate.
const REGIONS: [f64; 5] = [1.0 / 64.0, 0.0, 1.0 / 16.0, 1.0 / 4.0, 1.0 / 8.0];
/// Region sizes of the ocean's correlation queries. Heat3D's run over the
/// whole grid: its heat sits in a few z-slabs, so a regional query costs
/// ten times more inside them than outside, and a tail percentile over
/// two dozen ops would sit on that cliff.
const CORR_REGIONS: [f64; 3] = [1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0];

struct Draw<'a> {
    data: &'a Dataset,
    rng: Rng,
    skew: Skew,
    zipf_cdf: Vec<f64>,
}

/// Cells a region start moves with the seed.
const REGION_JITTER: u64 = 256;
/// Share of a bin a value range moves with the seed: about one range in
/// ten then gains or loses a bin, which keeps the heaviest percentile of
/// a thousand ops from moving with the draw.
const VALUE_JITTER: f64 = 0.1;

/// The middle of the `k`-th of `n` strata of `[0, 1)`, visited in a
/// scattered but fixed order.
fn stratum(k: usize, n: usize) -> f64 {
    let n = n.max(1);
    // a stride coprime to n near the golden ratio spreads neighbours apart
    let mut stride = ((n as f64 * 0.618) as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    (((k * stride) % n) as f64 + 0.5) / n as f64
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Draw<'_> {
    /// The step of the `k`-th of `n` ops.
    fn step(&mut self, k: usize, n: usize) -> usize {
        let steps = self.data.steps.len();
        match self.skew {
            Skew::Uniform => k % steps,
            Skew::ZipfSharded { .. } => {
                let u = stratum(k, n);
                self.zipf_cdf
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(steps - 1)
            }
        }
    }

    /// A region of `share` of the grid (`None` for the whole grid), the
    /// `k`-th of `n` of its size class: a fixed position moved by the
    /// seed's jitter.
    fn region(&mut self, share: f64, k: usize, n: usize) -> Option<Region> {
        if share == 0.0 {
            return None;
        }
        let cells = self.data.cells() as u64;
        let len = ((cells as f64 * share) as u64).clamp(1, cells);
        // where the start may lie: anywhere, or — seven in ten regions of
        // the sharded workload — so that the region stays inside one shard
        let (mut lo, mut hi) = (0, cells - len);
        let mut base = (stratum(k, n) * hi as f64) as u64;
        if let Skew::ZipfSharded { shards } = self.skew {
            let shard = base * shards as u64 / cells;
            let (first, end) = (
                cells * shard / shards as u64,
                cells * (shard + 1) / shards as u64,
            );
            if k % 10 < 7 && len <= end - first {
                (lo, hi) = (first, end - len);
                base = base.clamp(lo, hi);
            }
        }
        let jitter = self.rng.below(REGION_JITTER);
        let start = if base + jitter <= hi {
            base + jitter
        } else {
            base.saturating_sub(jitter).max(lo)
        };
        // the cells every jittered position of this region contains
        let core = if len > 2 * REGION_JITTER {
            (base + REGION_JITTER, base + len - REGION_JITTER)
        } else {
            (start, start + len)
        };
        Some(Region {
            start,
            end: start + len,
            core,
        })
    }

    /// A `[lo, hi)` value range of `width` of `var`'s span centred (give
    /// or take the seed's jitter) on an anchor value that occurs inside
    /// the region: the `k`-th of `n` stratified quantiles of a fixed
    /// sample of the region's core cells, so the anchor does not move
    /// with the seed and its own cell always matches the query.
    fn value_range(
        &mut self,
        step: usize,
        var: usize,
        width: f64,
        region: Option<Region>,
        (k, n): (usize, usize),
    ) -> (f64, f64) {
        const SAMPLE: u64 = 64;
        let (r0, r1) = region.map_or((0, self.data.cells() as u64), |r| r.core);
        let values = &self.data.steps[step].fields[var].data;
        let mut sample: Vec<f64> = (0..SAMPLE)
            .map(|j| values[(r0 + (r1 - r0) * j / SAMPLE) as usize])
            .collect();
        sample.sort_by(f64::total_cmp);
        let anchor = sample[(stratum(k, n) * SAMPLE as f64) as usize % SAMPLE as usize];
        let binner = &self.data.binners[var];
        let bin = binner.bin_range(0).1 - binner.bin_range(0).0;
        let w = bin * binner.nbins() as f64 * width;
        let lo = anchor - w / 2.0 + bin * VALUE_JITTER * (self.rng.unit() - 0.5);
        (lo, lo + w)
    }
}

/// A query's region and the part of it no jitter moves.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: u64,
    end: u64,
    core: (u64, u64),
}

fn region_json(region: Option<Region>) -> String {
    region.map_or(String::new(), |r| {
        format!(", \"region\": [{}, {}]", r.start, r.end)
    })
}

impl Catalog {
    /// Draws `subsets` subset queries and `correlations` correlation
    /// queries over `data` (interleaved so both kinds see the same stretch
    /// of machine weather).
    pub fn generate(
        data: &Dataset,
        seed: u64,
        subsets: usize,
        correlations: usize,
        skew: Skew,
    ) -> Catalog {
        let n = data.steps.len();
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(1.1)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut draw = Draw {
            data,
            rng: Rng::new(seed ^ 0x0CA7_A106),
            skew,
            zipf_cdf,
        };
        let vars = data.variables();
        let every = (subsets / correlations.max(1)).max(1);
        let per_class = subsets.div_ceil(REGIONS.len());
        let corr_per_class = correlations.div_ceil(CORR_REGIONS.len());
        let mut out = Catalog::default();
        let mut corr_done = 0;
        for i in 0..subsets {
            let step = draw.step(i, subsets);
            let var = i % vars.len();
            let region = draw.region(REGIONS[i % REGIONS.len()], i / REGIONS.len(), per_class);
            let (lo, hi) = draw.value_range(
                step,
                var,
                WIDTHS[i % WIDTHS.len()],
                region,
                (i / WIDTHS.len(), subsets.div_ceil(WIDTHS.len())),
            );
            out.push(
                Kind::Subset,
                format!(
                    "{{\"queries\": [{{\"kind\": \"subset\", \"step\": {step}, \
                     \"variable\": \"{}\", \"value_range\": [{lo}, {hi}]{}}}]}}",
                    vars[var],
                    region_json(region)
                ),
            );
            if (i + 1) % every == 0 && corr_done < correlations {
                let j = corr_done;
                corr_done += 1;
                let step = draw.step(j, correlations);
                // Single-variable data correlates the variable with itself
                // over two different value ranges.
                let (a, b) = (0, vars.len() - 1);
                let region = match data.source {
                    Source::Ocean => draw.region(
                        CORR_REGIONS[j % CORR_REGIONS.len()],
                        j / CORR_REGIONS.len(),
                        corr_per_class,
                    ),
                    Source::Heat3d => None,
                };
                let strata = (j, correlations);
                let (alo, ahi) = draw.value_range(step, a, WIDTHS[3 + j % 3], region, strata);
                let (blo, bhi) = draw.value_range(step, b, WIDTHS[4 + j % 2], region, strata);
                out.push(
                    Kind::Correlation,
                    format!(
                        "{{\"queries\": [{{\"kind\": \"correlation\", \"step\": {step}, \
                         \"var_a\": \"{}\", \"var_b\": \"{}\", \"value_a\": [{alo}, {ahi}], \
                         \"value_b\": [{blo}, {bhi}]{}}}]}}",
                        vars[a],
                        vars[b],
                        region_json(region)
                    ),
                );
            }
        }
        out
    }

    /// A batch touching `count` distinct `(variable, step)` blobs, for the
    /// cold-open phase.
    pub fn cold_batch(data: &Dataset, seed: u64, count: usize) -> Catalog {
        let vars = data.variables();
        let mut draw = Draw {
            data,
            rng: Rng::new(seed ^ 0xC01D),
            skew: Skew::Uniform,
            zipf_cdf: Vec::new(),
        };
        let mut out = Catalog::default();
        for i in 0..count {
            let (step, var) = ((i / vars.len()) % data.steps.len(), i % vars.len());
            let (lo, hi) = draw.value_range(step, var, 0.25, None, (i, count));
            out.push(
                Kind::Subset,
                format!(
                    "{{\"queries\": [{{\"kind\": \"subset\", \"step\": {step}, \
                     \"variable\": \"{}\", \"value_range\": [{lo}, {hi}]}}]}}",
                    vars[var]
                ),
            );
        }
        out
    }

    fn push(&mut self, kind: Kind, doc: String) {
        let mut parsed = parse_batch(&doc).unwrap_or_else(|e| panic!("catalog wrote {doc}: {e}"));
        self.requests.push(parsed.remove(0));
        self.kinds.push(kind);
        self.docs.push(doc);
    }

    /// Ops in the catalog.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Sizes;

    #[test]
    fn same_seed_same_catalog_and_the_mix_is_as_asked() {
        let d = Dataset::generate(Source::Ocean, &Sizes::smoke());
        let a = Catalog::generate(&d, 5, 24, 4, Skew::Uniform);
        let b = Catalog::generate(&d, 5, 24, 4, Skew::Uniform);
        let c = Catalog::generate(&d, 6, 24, 4, Skew::Uniform);
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs);
        assert_eq!(a.len(), 28);
        assert_eq!(
            a.kinds.iter().filter(|&&k| k == Kind::Correlation).count(),
            4
        );
        assert_eq!(a.requests.len(), a.docs.len());
    }

    #[test]
    fn sharded_skew_keeps_most_regions_inside_one_shard() {
        let d = Dataset::generate(Source::Ocean, &Sizes::smoke());
        let c = Catalog::generate(&d, 1, 200, 0, Skew::ZipfSharded { shards: 4 });
        let cells = d.cells() as u64;
        let (mut inside, mut with_region, mut step0) = (0, 0, 0);
        for r in &c.requests {
            let QueryRequest::Subset { step, query, .. } = r else {
                unreachable!()
            };
            step0 += usize::from(*step == 0);
            if let Some(reg) = &query.position_range {
                with_region += 1;
                let shard = reg.start * 4 / cells;
                inside += usize::from(reg.end <= cells * (shard + 1) / 4);
            }
        }
        assert!(inside * 10 >= with_region * 7, "{inside}/{with_region}");
        assert!(step0 * 4 > c.len(), "zipf should favour step 0: {step0}");
    }

    #[test]
    fn cold_batch_touches_distinct_blobs() {
        let d = Dataset::generate(Source::Heat3d, &Sizes::smoke());
        let c = Catalog::cold_batch(&d, 9, 8);
        let mut keys: Vec<usize> = c
            .requests
            .iter()
            .map(|r| match r {
                QueryRequest::Subset { step, .. } => *step,
                QueryRequest::Correlation { .. } => unreachable!(),
            })
            .collect();
        keys.dedup();
        assert_eq!(keys.len(), 8);
    }
}
