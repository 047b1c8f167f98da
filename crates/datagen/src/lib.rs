#![warn(missing_docs)]
//! # ibis-datagen — simulation substrates for in-situ analysis
//!
//! The three workloads the paper evaluates on, implemented from scratch:
//!
//! * [`Heat3D`](heat3d::Heat3D) — 3-D heat diffusion (one variable,
//!   `temperature`); cheap steps, so bitmap generation and I/O dominate.
//!   [`Heat3DPartition`](heat3d::Heat3DPartition) is its z-slab-distributed
//!   form with explicit halo exchange for the cluster experiment.
//! * [`MiniLulesh`](lulesh::MiniLulesh) — a Lagrangian shock-hydro proxy
//!   producing the same 12 node arrays as LULESH (coordinates / force /
//!   velocity / acceleration × X/Y/Z); expensive steps, so simulation
//!   dominates.
//! * [`OceanModel`](ocean::OceanModel) — a synthetic stand-in for the POP
//!   ocean dataset with *planted* temperature–salinity correlation inside a
//!   known latitude band, so correlation-mining results can be verified
//!   against ground truth.
//!
//! Every simulation implements [`Simulation`], yielding a [`StepOutput`]
//! (named `f64` arrays) per time-step — the unit the in-situ pipeline
//! consumes.

pub mod field;
pub mod heat3d;
pub mod lulesh;
pub mod ocean;

pub use field::{Field, StepOutput};
pub use heat3d::{Heat3D, Heat3DConfig, Heat3DPartition};
pub use lulesh::{LuleshConfig, MiniLulesh, LULESH_FIELDS};
pub use ocean::{OceanConfig, OceanModel, OCEAN_FIELDS};

/// A time-stepped simulation producing named output arrays.
pub trait Simulation: Send {
    /// Advances one time-step and returns its complete output.
    fn step(&mut self) -> StepOutput;

    /// Elements per output array.
    fn num_elements(&self) -> usize;

    /// Human-readable workload name.
    fn name(&self) -> &'static str;

    /// Bytes of internal state the simulation itself keeps resident (mesh
    /// buffers, double-buffered fields, connectivity). Charged to the
    /// memory tracker for the paper's Figure 11 accounting; defaults to 0
    /// for analytic generators.
    fn resident_bytes(&self) -> usize {
        0
    }

    /// The structured-grid shape of each output array as `[d0, d1, d2]`
    /// with the last axis fastest (row-major), or `None` for unstructured
    /// or mesh-based outputs. Nothing in the workspace reads it any more
    /// (no row order depends on the grid shape); it stays on the trait
    /// because the `ibis-e2e` harness implements it (ROADMAP item 2b).
    fn grid_dims(&self) -> Option<[usize; 3]> {
        None
    }

    /// Runs `n` steps, collecting all outputs (convenience for tests and
    /// offline analysis; in-situ pipelines consume steps one at a time).
    fn run(&mut self, n: usize) -> Vec<StepOutput> {
        (0..n).map(|_| self.step()).collect()
    }
}

impl Simulation for Box<dyn Simulation> {
    fn step(&mut self) -> StepOutput {
        (**self).step()
    }

    fn num_elements(&self) -> usize {
        (**self).num_elements()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn resident_bytes(&self) -> usize {
        (**self).resident_bytes()
    }

    fn grid_dims(&self) -> Option<[usize; 3]> {
        (**self).grid_dims()
    }
}
