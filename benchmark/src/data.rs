//! Workload inputs: the pre-generated time-steps, their binning scales,
//! and the [`Replay`] simulation that feeds them to the in-situ pipeline.

use ibis_core::Binner;
use ibis_datagen::{Field, Heat3D, Heat3DConfig, OceanConfig, OceanModel, Simulation, StepOutput};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which simulation a workload's data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// 3-D heat diffusion: one smooth, run-structured variable.
    Heat3d,
    /// Synthetic ocean state: noisy temperature and salinity.
    Ocean,
}

/// Problem sizes. [`Sizes::full`] is what `BENCHMARK.json` measures;
/// [`Sizes::smoke`] exercises the same code in well under a second.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Heat3D mesh `[nx, ny, nz]`.
    pub heat: [usize; 3],
    /// Heat3D mesh of the reordered workload, whose ingest sorts every
    /// step's rows (about ten times the cost per cell).
    pub heat_reorder: [usize; 3],
    /// Heat3D output steps discarded first, so the field has diffused.
    pub heat_preroll: usize,
    /// Jacobi sweeps per Heat3D output step.
    pub heat_sweeps: usize,
    /// Ocean grid `[nlon, nlat, ndepth]`.
    pub ocean: [usize; 3],
    /// Time-steps per run (N).
    pub steps: usize,
    /// Time-steps the in-situ selector keeps (K).
    pub select_k: usize,
    /// Subset queries per round.
    pub subsets: usize,
    /// Correlation queries per round.
    pub correlations: usize,
    /// Spatial unit of the correlation miner, in cells.
    pub mining_unit: u64,
    /// Fewest untraced rounds, whatever `--seconds` says.
    pub min_rounds: usize,
    /// Rounds of the traced pass.
    pub traced_rounds: usize,
    /// Times set-up is repeated (the median is `setup_s`).
    pub setups: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Sizes {
            heat: [96, 96, 96],
            heat_reorder: [48, 48, 48],
            heat_preroll: 24,
            heat_sweeps: 2,
            ocean: [96, 64, 16],
            steps: 8,
            select_k: 4,
            subsets: 1000,
            correlations: 24,
            mining_unit: 4096,
            min_rounds: 8,
            traced_rounds: 4,
            setups: 3,
        }
    }

    /// Tiny grids and three rounds: the whole contract in about a second.
    pub fn smoke() -> Self {
        Sizes {
            heat: [16, 16, 16],
            heat_reorder: [12, 12, 12],
            heat_preroll: 4,
            heat_sweeps: 2,
            ocean: [24, 16, 4],
            steps: 8,
            select_k: 4,
            subsets: 24,
            correlations: 4,
            mining_unit: 256,
            min_rounds: 3,
            traced_rounds: 2,
            setups: 1,
        }
    }
}

/// One workload's pre-generated input.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The source simulation.
    pub source: Source,
    /// Grid shape `[d0, d1, d2]`, last axis fastest.
    pub dims: [usize; 3],
    /// Every time-step, every field.
    pub steps: Arc<Vec<StepOutput>>,
    /// One binning scale per field, shared by all steps.
    pub binners: Vec<Binner>,
}

impl Dataset {
    /// Generates the workload's steps. Both sources are deterministic:
    /// `--seed` drives the query catalog only, because a different ocean
    /// (other eddies, other bin occupancy) costs up to a quarter more or
    /// less to correlate, which would read as run-to-run noise. Each
    /// Ocean step is an independent ocean state seeded `OCEAN_SEED + step`
    /// (see the README: `OceanModel` can only advance by generating all
    /// twelve of its fields, eight times the cost of the two this
    /// benchmark ingests).
    pub fn generate(source: Source, sizes: &Sizes) -> Dataset {
        match source {
            Source::Heat3d => heat3d(sizes),
            Source::Ocean => ocean(sizes),
        }
    }

    /// Cells per field per step.
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// Field names, in field order.
    pub fn variables(&self) -> Vec<&'static str> {
        self.steps[0].fields.iter().map(|f| f.name).collect()
    }

    /// Raw bytes of one step across all fields.
    pub fn raw_bytes_per_step(&self) -> u64 {
        self.steps[0].size_bytes() as u64
    }

    /// Values through the write path per full ingest (cells × fields ×
    /// steps).
    pub fn elements(&self) -> u64 {
        (self.cells() * self.steps[0].fields.len() * self.steps.len()) as u64
    }

    /// A fresh [`Replay`] over the steps; `spent` accumulates the
    /// nanoseconds its `step()` takes.
    pub fn replay(&self, spent: Arc<AtomicU64>) -> Replay {
        Replay {
            steps: Arc::clone(&self.steps),
            dims: self.dims,
            next: 0,
            spent,
        }
    }
}

fn heat3d(sizes: &Sizes) -> Dataset {
    let [nx, ny, nz] = sizes.heat;
    let mut sim = Heat3D::new(Heat3DConfig {
        nx,
        ny,
        nz,
        sweeps_per_step: sizes.heat_sweeps,
        // a full source cycle inside the run, so steps differ in content
        source_period: (sizes.heat_preroll + sizes.steps) as f64,
        ..Heat3DConfig::default()
    });
    for _ in 0..sizes.heat_preroll {
        sim.step();
    }
    let steps: Vec<StepOutput> = (0..sizes.steps)
        .map(|i| {
            let mut out = sim.step();
            out.step = i;
            out
        })
        .collect();
    Dataset {
        source: Source::Heat3d,
        dims: [nz, ny, nx],
        steps: Arc::new(steps),
        // integer-degree bins over the source's whole range
        binners: vec![Binner::precision(-1.0, 101.0, 0)],
    }
}

/// Seed of the first ocean step (the generator's own default).
const OCEAN_SEED: u64 = 0x0CEA_2015;

fn ocean(sizes: &Sizes) -> Dataset {
    let [nlon, nlat, ndepth] = sizes.ocean;
    let names = ["temperature", "salinity"];
    let steps: Vec<StepOutput> = (0..sizes.steps)
        .map(|i| {
            let model = OceanModel::new(OceanConfig {
                nlon,
                nlat,
                ndepth,
                seed: OCEAN_SEED + i as u64,
                ..OceanConfig::default()
            });
            StepOutput {
                step: i,
                fields: names
                    .iter()
                    .map(|&n| Field::new(n, model.variable(n)))
                    .collect(),
            }
        })
        .collect();
    let binners = (0..names.len())
        .map(|v| {
            let (lo, hi) = steps
                .iter()
                .flat_map(|s| s.fields[v].data.iter().copied())
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                    (lo.min(x), hi.max(x))
                });
            Binner::fit(&[lo, hi], 64)
        })
        .collect();
    Dataset {
        source: Source::Ocean,
        dims: [ndepth, nlat, nlon],
        steps: Arc::new(steps),
        binners,
    }
}

/// A [`Simulation`] that replays pre-generated steps, so the in-situ
/// pipeline is timed without the cost of simulating. Its own `step()`
/// (a clone of the stored arrays) is self-timed into `spent` and
/// subtracted from the ingest wall by the caller.
#[derive(Debug)]
pub struct Replay {
    steps: Arc<Vec<StepOutput>>,
    dims: [usize; 3],
    next: usize,
    spent: Arc<AtomicU64>,
}

impl Simulation for Replay {
    fn step(&mut self) -> StepOutput {
        let t0 = Instant::now();
        let mut out = self.steps[self.next % self.steps.len()].clone();
        out.step = self.next;
        self.next += 1;
        self.spent
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn num_elements(&self) -> usize {
        self.dims.iter().product()
    }

    fn name(&self) -> &'static str {
        "replay"
    }

    fn grid_dims(&self) -> Option<[usize; 3]> {
        Some(self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_is_deterministic_and_replay_is_faithful() {
        let sizes = Sizes::smoke();
        let a = Dataset::generate(Source::Ocean, &sizes);
        let b = Dataset::generate(Source::Ocean, &sizes);
        assert_eq!(a.steps[3].fields[1].data, b.steps[3].fields[1].data);
        assert_ne!(a.steps[3].fields[1].data, a.steps[4].fields[1].data);
        assert_eq!(a.variables(), vec!["temperature", "salinity"]);

        let spent = Arc::new(AtomicU64::new(0));
        let mut replay = a.replay(Arc::clone(&spent));
        for i in 0..sizes.steps {
            let out = replay.step();
            assert_eq!(out.step, i);
            assert_eq!(out.fields[0].data, a.steps[i].fields[0].data);
        }
        assert!(spent.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn heat3d_has_diffused_and_fits_its_binner() {
        let d = Dataset::generate(Source::Heat3d, &Sizes::smoke());
        let last = &d.steps.last().unwrap().fields[0].data;
        assert_eq!(last.len(), d.cells());
        let warm = last.iter().filter(|&&v| v > 0.5).count();
        assert!(warm > 0 && warm < last.len());
        assert!(last.iter().all(|&v| (-1.0..=101.0).contains(&v)));
    }
}
