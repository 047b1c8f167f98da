//! The independent reference probe and the contention gate built on it.
//!
//! The sandbox's two vCPUs share their cores with other tenants: identical
//! rounds of real work fall into a fast and a slow mode about 1.4× apart
//! that persist for seconds, and a statistic over the measured work alone
//! cannot tell "the code is slower" from "the neighbour is busy". So every
//! phase of every round is bracketed by a fixed probe that does not touch
//! the program under test — AND + popcount over two 8 MiB arrays — and a
//! phase-round counts as *clean* only when both bracketing probes ran
//! within [`GATE`] of the fastest probe seen at the same position of the
//! round. The rule depends on nothing the measured program does, so it
//! applies identically to both sides of a comparison.
//!
//! What the gate is used for: measured here, the share of clean rounds
//! swings between 5 % and 90 % from run to run, and a median over them
//! still moved by 10–20 % between identical runs, so the reported timings
//! are unit floors (see `runner`) and the gate is the run's *noise
//! record*: `noise.clean_share.*`, `noise.probe_best_ms` and how far
//! above the floor the clean rounds ran.

use std::hint::black_box;
use std::time::Instant;

/// A probe slower than `(1 + GATE) ×` the best at its position marks the
/// neighbouring phase-rounds as disturbed. Fast-mode probes stay within
/// 10 % of the best at their position and slow-mode probes start 18 %
/// above it, so the gate sits between.
pub const GATE: f64 = 0.12;

/// `u64` words per probe array (8 MiB — larger than the last-level cache
/// share of one vCPU, so the probe sees memory contention as well as
/// core contention).
const PROBE_WORDS: usize = 1 << 20;
/// Passes over the arrays per probe (≈ 2 ms in the fast mode).
const PROBE_PASSES: usize = 2;

/// The reference probe.
#[derive(Debug)]
pub struct Probe {
    a: Vec<u64>,
    b: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Allocates and fills the probe arrays (fixed contents).
    pub fn new() -> Self {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let mut fill = || {
            (0..PROBE_WORDS)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect::<Vec<u64>>()
        };
        let a = fill();
        let b = fill();
        Probe { a, b }
    }

    /// Runs the probe once and returns its duration in milliseconds.
    pub fn run(&self) -> f64 {
        let t0 = Instant::now();
        let mut ones = 0u64;
        for _ in 0..PROBE_PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            ones += a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as u64)
                .sum::<u64>();
        }
        black_box(ones);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Probe readings of a run: `boundaries[r][i]` is the probe taken at
/// boundary `i` of round `r` (boundary `i` sits before phase `i`; the
/// last one closes the final phase, so consecutive phases share a probe).
#[derive(Debug, Default)]
pub struct GateLog {
    boundaries: Vec<Vec<f64>>,
}

impl GateLog {
    /// Records one round's boundary probes.
    pub fn push_round(&mut self, probes: Vec<f64>) {
        if let Some(first) = self.boundaries.first() {
            assert_eq!(first.len(), probes.len(), "boundary count changed");
        }
        self.boundaries.push(probes);
    }

    /// One round's boundary probes, in milliseconds.
    pub fn round(&self, r: usize) -> &[f64] {
        &self.boundaries[r]
    }

    /// Rounds recorded.
    pub fn rounds(&self) -> usize {
        self.boundaries.len()
    }

    /// The fastest probe seen at each boundary position.
    pub fn best(&self) -> Vec<f64> {
        let n = self.boundaries.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| {
                self.boundaries
                    .iter()
                    .map(|r| r[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Per round, whether `phase` ran undisturbed: both bracketing probes
    /// within [`GATE`] of the best at their positions.
    pub fn clean(&self, phase: usize) -> Vec<bool> {
        let best = self.best();
        let ok = |r: &Vec<f64>, i: usize| r[i] <= best[i] * (1.0 + GATE);
        self.boundaries
            .iter()
            .map(|r| ok(r, phase) && ok(r, phase + 1))
            .collect()
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the kernel CPU mask this harness handles (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on, ascending; empty when the mask
/// cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed; pid 0
    // addresses the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread (and every thread it spawns afterwards) to
/// `cpu`, so the measuring thread never migrates mid-phase. Returns
/// whether the kernel accepted the mask (a refused pin leaves the thread
/// where it was; the run continues and says so).
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Pins to the highest-numbered allowed CPU; returns it.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    pin_to_cpu(cpu).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_work() {
        let p = Probe::new();
        assert!(p.run() > 0.0);
        assert_eq!(p.a.len(), PROBE_WORDS);
    }

    #[test]
    fn gate_is_per_position_and_needs_both_brackets() {
        let mut log = GateLog::default();
        // position 1 is inherently slower than position 0 (it follows a
        // cache-thrashing phase); the gate compares like with like.
        log.push_round(vec![10.0, 12.0, 10.0]);
        log.push_round(vec![10.5, 12.4, 15.0]); // slow after phase 1
        log.push_round(vec![16.0, 12.1, 10.2]); // slow before phase 0
        log.push_round(vec![10.1, 13.4, 10.1]); // 13.4 ≤ 12.0·1.12
        assert_eq!(log.best(), vec![10.0, 12.0, 10.0]);
        assert_eq!(log.clean(0), vec![true, true, false, true]);
        assert_eq!(log.clean(1), vec![true, false, true, true]);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        let before = allowed_cpus();
        if let Some(cpu) = pin_to_highest_cpu() {
            assert_eq!(allowed_cpus(), vec![cpu]);
            assert_eq!(before.last(), Some(&cpu));
        }
    }
}
