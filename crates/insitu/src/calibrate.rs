//! Automatic core allocation for the Separate-Cores strategy —
//! Equations 1 and 2 of the paper:
//!
//! ```text
//! Core_simulate = Core_total × Time_simulate / (Time_simulate + Time_bitmap)
//! Core_bitmap   = Core_total − Core_simulate
//! ```
//!
//! A short probe run measures the average per-step simulation and bitmap
//! generation times; the split then balances the two pipelines so the queue
//! neither starves nor overflows.

use crate::machine::MachineModel;
use crate::pipeline::{step_permutation, CoreAllocation};
use ibis_core::{Binner, BitmapIndex, RowOrder, WahVec};
use ibis_datagen::{Simulation, StepOutput};
use std::time::{Duration, Instant};

/// Measured probe times.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Mean per-step simulation seconds (serial-equivalent).
    pub time_simulate: f64,
    /// Mean per-step bitmap-generation seconds (serial-equivalent).
    pub time_bitmap: f64,
}

impl Calibration {
    /// Applies Equations 1–2 for a `total`-core budget; both sets get at
    /// least one core.
    pub fn allocate(&self, total: usize) -> CoreAllocation {
        assert!(total >= 2, "separate cores need at least two cores");
        let frac = self.time_simulate / (self.time_simulate + self.time_bitmap).max(1e-12);
        let sim = ((total as f64 * frac).round() as usize).clamp(1, total - 1);
        CoreAllocation::Separate {
            sim_cores: sim,
            bitmap_cores: total - sim,
        }
    }
}

/// Probes `probe_steps` steps of the simulation with an Algorithm-1 bitmap
/// build per step, measuring both phases.
pub fn calibrate<S: Simulation>(
    sim: &mut S,
    binners: &[Binner],
    machine: &MachineModel,
    probe_cores: usize,
    probe_steps: usize,
) -> Calibration {
    assert!(probe_steps >= 1, "need at least one probe step");
    let pool = machine.pool(probe_cores);
    let mut sim_t = Duration::ZERO;
    let mut bm_t = Duration::ZERO;
    for _ in 0..probe_steps {
        let t0 = Instant::now();
        let out = pool.install(|| sim.step());
        sim_t += t0.elapsed();
        let t0 = Instant::now();
        pool.install(|| {
            for (f, binner) in out.fields.iter().zip(binners) {
                let _ = ibis_core::build_index_parallel(&f.data, binner.clone());
            }
        });
        bm_t += t0.elapsed();
    }
    Calibration {
        time_simulate: sim_t.as_secs_f64() / probe_steps as f64,
        time_bitmap: bm_t.as_secs_f64() / probe_steps as f64,
    }
}

/// Convenience: probe then allocate (`Reduction::Bitmaps` assumed — the only
/// reduction with a meaningful split).
pub fn auto_allocate<S: Simulation>(
    sim: &mut S,
    binners: &[Binner],
    machine: &MachineModel,
    total_cores: usize,
    probe_steps: usize,
) -> CoreAllocation {
    calibrate(sim, binners, machine, total_cores, probe_steps).allocate(total_cores)
}

/// Suggests the [`RowOrder`] under which the store of the probe step
/// comes out smaller: does [`RowOrder::GrayBin`] pay for its order blob?
/// Every field's index is built under the order's one permutation
/// (computed from the first field, as the pipeline does —
/// `step_permutation`) and in ingest order. Sorting the first field
/// always shrinks that field; it wins only if it pays for its permutation
/// and for what it does to the others. [`RowOrder::Identity`] wins ties
/// (nothing extra to persist or map at query time). An index is sized as
/// its bins' WAH form, counted from the form each is held in.
pub fn suggest_row_order(out: &StepOutput, binners: &[Binner]) -> RowOrder {
    let first = binners.first();
    let Some(perm) = first.and_then(|b| step_permutation(out, RowOrder::GrayBin, b)) else {
        return RowOrder::Identity;
    };
    let mut order_blob = Vec::new();
    crate::store::put_perm_payload(&mut order_blob, &perm);
    let (mut sorted, mut ingest) = (order_blob.len(), 0);
    let wah_bytes = |idx: BitmapIndex| -> usize {
        let bin = |b| 4 * idx.stored_bin(b).wah_stats().words + size_of::<WahVec>();
        (0..idx.nbins()).map(bin).sum()
    };
    for (f, b) in out.fields.iter().zip(binners) {
        sorted += wah_bytes(BitmapIndex::build_permuted(&f.data, b.clone(), &perm));
        ingest += wah_bytes(BitmapIndex::build(&f.data, b.clone()));
    }
    if sorted < ingest {
        RowOrder::GrayBin
    } else {
        RowOrder::Identity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibis_datagen::{Heat3D, Heat3DConfig};

    #[test]
    fn allocation_follows_time_ratio() {
        // equal times: even split
        let c = Calibration {
            time_simulate: 1.0,
            time_bitmap: 1.0,
        };
        assert_eq!(
            c.allocate(28),
            CoreAllocation::Separate {
                sim_cores: 14,
                bitmap_cores: 14
            }
        );
        // simulation 3x heavier: it gets ~3/4 of the cores (the paper's
        // LULESH case, where few bitmap cores suffice)
        let c = Calibration {
            time_simulate: 3.0,
            time_bitmap: 1.0,
        };
        assert_eq!(
            c.allocate(28),
            CoreAllocation::Separate {
                sim_cores: 21,
                bitmap_cores: 7
            }
        );
        // bitmap heavier (the paper's Heat3D case): more cores to bitmaps
        let c = Calibration {
            time_simulate: 1.0,
            time_bitmap: 1.5,
        };
        let CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } = c.allocate(28)
        else {
            panic!()
        };
        assert!(bitmap_cores > sim_cores);
    }

    #[test]
    fn allocation_never_empties_a_set() {
        let c = Calibration {
            time_simulate: 1000.0,
            time_bitmap: 0.0001,
        };
        let CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } = c.allocate(4)
        else {
            panic!()
        };
        assert!(sim_cores >= 1 && bitmap_cores >= 1);
        let c = Calibration {
            time_simulate: 0.0001,
            time_bitmap: 1000.0,
        };
        let CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } = c.allocate(4)
        else {
            panic!()
        };
        assert!(sim_cores >= 1 && bitmap_cores >= 1);
    }

    #[test]
    fn probe_measures_positive_times() {
        let mut sim = Heat3D::new(Heat3DConfig::tiny());
        let binners = vec![Binner::precision(-1.0, 101.0, 1)];
        let cal = calibrate(&mut sim, &binners, &MachineModel::xeon32(), 2, 2);
        assert!(cal.time_simulate > 0.0);
        assert!(cal.time_bitmap > 0.0);
        let alloc = cal.allocate(8);
        let CoreAllocation::Separate {
            sim_cores,
            bitmap_cores,
        } = alloc
        else {
            panic!()
        };
        assert_eq!(sim_cores + bitmap_cores, 8);
    }

    #[test]
    fn suggests_a_size_winning_order() {
        // Scattered-by-position values: sorting rows by bin turns the
        // bitmaps into near-pure runs, so the sorted order must beat
        // identity.
        let data: Vec<f64> = (0..20_000).map(|i| ((i * 37) % 50) as f64).collect();
        let out = StepOutput {
            step: 0,
            fields: vec![ibis_datagen::Field::new("temperature", data)],
        };
        let binner = Binner::distinct_ints(0, 49);
        let suggested = suggest_row_order(&out, std::slice::from_ref(&binner));
        assert_eq!(suggested, RowOrder::GrayBin);

        // A coherent field: sorting it still shrinks its index (one fill a
        // bin), but the index was a few KB to begin with and the
        // permutation costs more than it saves — `auto` must count it.
        let mut sim = Heat3D::new(Heat3DConfig::tiny());
        let heat = (0..6).map(|_| sim.step()).last().unwrap();
        let binners = [Binner::precision(-1.0, 101.0, 0)];
        let f0 = &heat.fields[0].data;
        let sorted = RowOrder::GrayBin
            .permutation(&[], &binners[0], f0)
            .expect("heat is not sorted by bin");
        assert!(
            BitmapIndex::build_permuted(f0, binners[0].clone(), &sorted).size_bytes()
                < BitmapIndex::build(f0, binners[0].clone()).size_bytes(),
            "the first field alone still says graybin"
        );
        assert_eq!(suggest_row_order(&heat, &binners), RowOrder::Identity);

        // Constant data: sorting is the identity, nothing to weigh.
        let flat = StepOutput {
            step: 0,
            fields: vec![ibis_datagen::Field::new("temperature", vec![1.0; 4096])],
        };
        assert_eq!(suggest_row_order(&flat, &[binner]), RowOrder::Identity);
    }

    #[test]
    #[should_panic(expected = "at least two cores")]
    fn rejects_single_core_split() {
        let c = Calibration {
            time_simulate: 1.0,
            time_bitmap: 1.0,
        };
        let _ = c.allocate(1);
    }
}
