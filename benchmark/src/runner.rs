//! The round loop: repeated set-up, fixed-work rounds with bracketing
//! probes until the time budget is spent, an optional traced pass, and
//! the reduction of per-round series to the named metrics.

use crate::catalog::Kind;
use crate::data::Sizes;
use crate::fixture::{
    remove_dir, Analysis, Client, Fixture, Ingested, QueryRound, Res, Spec, Units,
};
use crate::layers;
use crate::noise::{pin_to_highest_cpu, GateLog, Probe};
use crate::oracle::Sabotage;
use crate::stats::{gated_median, median, quantile, Gated};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Phases of a round, in execution order (also the gate positions).
pub const PHASES: [&str; 4] = ["ingest", "analysis", "query", "cold_open"];
/// Hard stop on rounds, whatever the clock says.
const MAX_ROUNDS: usize = 512;
/// A round's query phase runs every `QUERY_SLICES`-th op of the catalog,
/// a different slice each round: op floors settle within a few repeats,
/// while the long single-call units (an ingest, an analysis) need every
/// repeat the time budget can buy, so rounds are kept short.
pub const QUERY_SLICES: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub spec: Spec,
    /// Seed of the query catalog and the ocean data.
    pub seed: u64,
    /// Seconds the untraced rounds measure for.
    pub seconds: f64,
    /// Print per-layer metrics (from a traced pass) instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, three rounds.
    pub smoke: bool,
    /// Directory for stores and trace files.
    pub out_dir: PathBuf,
    /// Corrupt a program output to prove the gates bite.
    pub sabotage: Sabotage,
    /// Print every round's phase times and probes to stderr.
    pub verbose: bool,
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricLine {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl MetricLine {
    /// A metric line.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        MetricLine {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<MetricLine>,
    /// Operations attempted in the measured rounds.
    pub attempted: u64,
    /// Operations whose output was wrong or refused.
    pub failed: u64,
}

/// What the rounds measured: per fixed-work unit its fastest repeat, and
/// per round the phase totals and boundary probes (the noise record).
#[derive(Debug, Default)]
pub struct Rounds {
    /// Per phase, per unit, the fastest repeat over all rounds, seconds.
    pub unit_floor_s: [Vec<f64>; 4],
    /// Per phase, per round, the sum of that round's units over the sum of
    /// the same units' floors (filled in by [`Rounds::close`]): how far
    /// above undisturbed the round ran.
    pub phase_over_floor: [Vec<f64>; 4],
    /// Per phase, per round, the units that ran and their durations.
    raw: [Vec<(Vec<usize>, Units)>; 4],
    /// Boundary probes.
    pub gate: GateLog,
    /// Bytes the ingested store took on disk (same every round).
    pub stored_bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

impl Rounds {
    /// Folds one round's units of one phase into the floors; `ops` names
    /// the units that ran (all of them when `None`).
    pub fn record(&mut self, phase: usize, ops: Option<&[usize]>, units: &Units, of: usize) {
        let floors = &mut self.unit_floor_s[phase];
        floors.resize(of.max(floors.len()), f64::INFINITY);
        let ops: Vec<usize> = ops.map_or_else(|| (0..units.0.len()).collect(), <[usize]>::to_vec);
        assert_eq!(ops.len(), units.0.len(), "one duration per unit run");
        for (&i, &u) in ops.iter().zip(&units.0) {
            floors[i] = floors[i].min(u);
        }
        self.raw[phase].push((ops, units.clone()));
    }

    /// Ends recording: relates every round to the final floors.
    pub fn close(&mut self) {
        for phase in 0..4 {
            let floors = &self.unit_floor_s[phase];
            self.phase_over_floor[phase] = self.raw[phase]
                .iter()
                .map(|(ops, units)| units.total() / ops.iter().map(|&i| floors[i]).sum::<f64>())
                .collect();
        }
    }

    /// A phase's undisturbed duration: the sum of its units' floors.
    pub fn floor(&self, phase: usize) -> f64 {
        self.unit_floor_s[phase].iter().sum()
    }

    /// The median time-over-floor of one phase over the rounds the probe
    /// gate passed — the run's noise record ([`Rounds::close`] first).
    pub fn gated(&self, phase: usize) -> Gated {
        gated_median(&self.phase_over_floor[phase], &self.gate.clean(phase))
    }

    /// Floor latencies of the catalog ops of one kind.
    pub fn op_floors(&self, fx: &Fixture, kind: Kind) -> Vec<f64> {
        self.unit_floor_s[2]
            .iter()
            .zip(&fx.plan.catalog.kinds)
            .filter(|(_, &k)| k == kind)
            .map(|(&l, _)| l)
            .collect()
    }

    /// The query phase's undisturbed wall. One closed-loop client's round
    /// lasts the sum of its op latencies; concurrent clients (which take
    /// alternate ops) finish with the slowest of them.
    pub fn query_floor_s(&self, fx: &Fixture) -> f64 {
        let clients = match &fx.client {
            Client::Batch(_) => 1,
            Client::Tcp { conns, .. } => conns.len(),
        };
        (0..clients)
            .map(|c| {
                self.unit_floor_s[2]
                    .iter()
                    .skip(c)
                    .step_by(clients)
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }
}

/// What the phases of one round returned.
pub struct RoundOut {
    /// The ingest phase.
    pub ingested: Ingested,
    /// The analysis phase.
    pub analysis: Analysis,
    /// The query phase.
    pub query: QueryRound,
    /// The cold-open phase.
    pub cold: QueryRound,
}

/// Runs one round: every phase once (the query phase on one of `slices`
/// slices of the catalog), a probe at every boundary; `at_boundary` is
/// called after each probe (the traced pass takes its snapshots there).
pub fn round(
    fx: &mut Fixture,
    probe: &Probe,
    tr: &mut Tracer,
    rounds: &mut Rounds,
    slices: usize,
    at_boundary: &mut dyn FnMut(&Fixture),
) -> Res<RoundOut> {
    let mut probes = Vec::with_capacity(5);
    let mut boundary = |fx: &Fixture| {
        probes.push(probe.run());
        at_boundary(fx);
    };
    boundary(fx);
    let (ingested, bytes) = fx.plan.ingest(tr)?;
    boundary(fx);
    let analysis = fx.plan.analysis(tr)?;
    boundary(fx);
    let query = fx.query(tr, rounds.gate.rounds() % slices, slices)?;
    boundary(fx);
    let cold = fx.plan.cold_open(tr)?;
    boundary(fx);

    rounds.record(0, None, &ingested.units, ingested.units.0.len());
    rounds.record(1, None, &analysis.units, analysis.units.0.len());
    rounds.record(2, Some(&query.ops), &query.units, fx.plan.catalog.len());
    rounds.record(3, None, &cold.units, cold.units.0.len());
    rounds.gate.push_round(probes);
    rounds.stored_bytes = bytes;
    rounds.attempted += (query.ops.len() + fx.plan.cold.len() + 2) as u64;
    rounds.failed += (query.failed + cold.failed) as u64;
    Ok(RoundOut {
        ingested,
        analysis,
        query,
        cold,
    })
}

/// Runs the benchmark as `args` describes; whatever happens, nothing it
/// wrote but the trace file is left behind.
pub fn run(args: &Args) -> Res<Outcome> {
    let scratch = args.out_dir.join(format!("scratch-{}", std::process::id()));
    let outcome = run_in(args, &scratch);
    if outcome.is_err() {
        // a finished run tore its fixture down itself
        remove_dir(&scratch)?;
    }
    outcome
}

fn run_in(args: &Args, scratch: &Path) -> Res<Outcome> {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    // The whole process on one CPU: the measuring thread never migrates
    // mid-unit, and the server threads of the TCP workload (which inherit
    // the mask) hand requests over by context switch, not across vCPUs.
    let pinned = pin_to_highest_cpu();
    eprintln!(
        "# {} seed {} | cpu {} | scratch {}",
        args.spec.name,
        args.seed,
        pinned.map_or("unpinned".to_string(), |c| c.to_string()),
        scratch.display()
    );
    let probe = Probe::new();

    // Set-up, several times over: the median is `setup_s`, and the last
    // fixture is the one measured. A warm-up round is part of set-up.
    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..sizes.setups {
        if let Some(fx) = fixture.take() {
            Fixture::teardown(fx)?;
        }
        let t0 = Instant::now();
        let mut fx = Fixture::setup(args.spec, &sizes, args.seed, scratch, args.sabotage)?;
        round(
            &mut fx,
            &probe,
            &mut Tracer::off(),
            &mut Rounds::default(),
            QUERY_SLICES,
            &mut |_| (),
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let mut fx = fixture.ok_or("no set-up ran")?;
    if fx.plan.cache_budget > 0 {
        eprintln!(
            "# decoded working set {} bytes, cache budget {} bytes",
            fx.plan.working_set, fx.plan.cache_budget
        );
    }

    // A traced run spends half its time on the untraced rounds (they feed
    // the noise record) and about as much on the traced pass.
    let budget_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut rounds = Rounds::default();
    let t0 = Instant::now();
    while rounds.gate.rounds() < MAX_ROUNDS
        && (rounds.gate.rounds() < sizes.min_rounds || t0.elapsed().as_secs_f64() < budget_s)
    {
        round(
            &mut fx,
            &probe,
            &mut Tracer::off(),
            &mut rounds,
            QUERY_SLICES,
            &mut |_| (),
        )?;
    }
    rounds.close();
    if args.verbose {
        for r in 0..rounds.gate.rounds() {
            eprintln!(
                "# round {r:3} over floor: {}  probes {:.2?}",
                (0..4)
                    .map(|p| format!("{} {:.3}", PHASES[p], rounds.phase_over_floor[p][r]))
                    .collect::<Vec<_>>()
                    .join("  "),
                rounds.gate.round(r)
            );
        }
    }

    if args.verbose {
        // the tail percentiles are these ops
        let floors = &rounds.unit_floor_s[2];
        let mut heaviest: Vec<usize> = (0..floors.len()).collect();
        heaviest.sort_by(|&a, &b| floors[b].total_cmp(&floors[a]));
        for &i in heaviest.iter().take(40) {
            eprintln!(
                "# op {i}: {:.4} ms {}",
                floors[i] * 1e3,
                fx.plan.catalog.docs[i]
            );
        }
    }
    let metrics = if args.trace {
        let mut tracer = Tracer::on();
        let (metrics, failed) = layers::traced_pass(&mut fx, &probe, &mut tracer, &rounds)?;
        rounds.failed += failed;
        let path = args.out_dir.join(format!("{}.trace.json", args.spec.name));
        tracer
            .write_json(&path, args.spec.name, args.seed)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("# trace written to {}", path.display());
        metrics
    } else {
        end_to_end(&fx, &rounds, &setup_s)
    };
    if rounds.failed > 0 {
        eprintln!("# {} of {} ops failed", rounds.failed, rounds.attempted);
    }
    fx.teardown()?;
    Ok(Outcome {
        metrics,
        attempted: rounds.attempted,
        failed: rounds.failed,
    })
}

/// Reduces the untraced rounds to the end-to-end metrics. Every timing
/// is built from *floors*: each fixed-work unit's fastest repeat, since
/// interference from outside the program only ever adds time.
fn end_to_end(fx: &Fixture, rounds: &Rounds, setup_s: &[f64]) -> Vec<MetricLine> {
    let plan = &fx.plan;
    let subset = rounds.op_floors(fx, Kind::Subset);
    let corr = rounds.op_floors(fx, Kind::Correlation);
    for (p, name) in PHASES.iter().enumerate() {
        let g = rounds.gated(p);
        eprintln!(
            "# {name}: floor {:.6}s; {} of {} rounds pass the probe gate, running {:.3}x the floor{}",
            rounds.floor(p),
            g.clean,
            rounds.gate.rounds(),
            g.value,
            if g.fallback { " (best quartile of all rounds)" } else { "" }
        );
    }
    vec![
        MetricLine::new("setup_s", median(setup_s), "s"),
        MetricLine::new(
            "insitu_melem_per_s",
            plan.data.elements() as f64 / rounds.floor(0) / 1e6,
            "Melem/s",
        ),
        MetricLine::new(
            "stored_bytes_per_raw_byte",
            rounds.stored_bytes as f64 / plan.raw_bytes() as f64,
            "ratio",
        ),
        MetricLine::new("analysis_s", rounds.floor(1), "s"),
        MetricLine::new(
            "query_qps",
            plan.catalog.len() as f64 / rounds.query_floor_s(fx),
            "1/s",
        ),
        MetricLine::new("subset_p50_ms", median(&subset) * 1e3, "ms"),
        MetricLine::new("subset_p99_ms", quantile(&subset, 0.99) * 1e3, "ms"),
        MetricLine::new("corr_p50_ms", median(&corr) * 1e3, "ms"),
        MetricLine::new("corr_p90_ms", quantile(&corr, 0.90) * 1e3, "ms"),
        MetricLine::new("cold_open_batch_ms", rounds.floor(3) * 1e3, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_fold_per_unit_and_sliced_ops_land_on_their_index() {
        let mut r = Rounds::default();
        r.record(0, None, &Units(vec![3.0, 5.0]), 2);
        r.record(0, None, &Units(vec![4.0, 2.0]), 2);
        assert_eq!(r.unit_floor_s[0], vec![3.0, 2.0]);
        assert_eq!(r.floor(0), 5.0);

        // a catalog of four ops in two slices
        r.record(2, Some(&[0, 2]), &Units(vec![1.0, 9.0]), 4);
        r.record(2, Some(&[1, 3]), &Units(vec![2.0, 2.0]), 4);
        r.record(2, Some(&[0, 2]), &Units(vec![1.5, 6.0]), 4);
        assert_eq!(r.unit_floor_s[2], vec![1.0, 2.0, 6.0, 2.0]);
        r.close();
        // each round against the floors of the units it ran
        assert_eq!(r.phase_over_floor[0], vec![8.0 / 5.0, 6.0 / 5.0]);
        assert_eq!(r.phase_over_floor[2], vec![10.0 / 7.0, 1.0, 7.5 / 7.0]);
    }
}
