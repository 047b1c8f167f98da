//! Fault-injection matrix for the in-situ pipeline: every failure policy
//! against every core-allocation strategy, plus the acceptance properties
//! the robustness layer guarantees — no deadlock, no escaped panic, and
//! bit-identical failure reports for identical fault plans.

use ibis_analysis::sampling::SamplingMethod;
use ibis_analysis::Metric;
use ibis_core::{Binner, RowOrder};
use ibis_datagen::{Heat3D, Heat3DConfig};
use ibis_insitu::{
    run_pipeline, CoreAllocation, FailurePolicy, FaultPlan, IbisError, InsituReport, LocalDisk,
    MachineModel, PipelineConfig, Reduction, RobustnessConfig, ScalingModel, StepOutcome,
    WorkerRole,
};
use std::time::Duration;

fn heat() -> Heat3DConfig {
    Heat3DConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        ..Heat3DConfig::tiny()
    }
}

fn cfg(allocation: CoreAllocation) -> PipelineConfig {
    PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 4,
        allocation,
        reduction: Reduction::Bitmaps,
        steps: 13,
        select_k: 4,
        metric: Metric::ConditionalEntropy,
        binners: vec![Binner::precision(-1.0, 101.0, 0)],
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity: 2,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

fn separate() -> CoreAllocation {
    CoreAllocation::Separate {
        sim_cores: 2,
        bitmap_cores: 2,
    }
}

fn fallback() -> FailurePolicy {
    FailurePolicy::FallbackSampling {
        percent: 10.0,
        method: SamplingMethod::Stride,
    }
}

/// Every policy × strategy × fault-site combination must terminate with
/// either a clean report or a structured error — never a hang and never an
/// escaped panic (a panic here would fail the test harness itself).
#[test]
fn fault_matrix_terminates_without_escaped_panics() {
    let policies = [FailurePolicy::Abort, FailurePolicy::SkipStep, fallback()];
    let allocations = [CoreAllocation::Shared, separate()];
    let plans = [
        FaultPlan::none().with_consumer_panic_at(3),
        FaultPlan::none().with_producer_panic_at(5),
        FaultPlan::none().with_producer_panic_at(0),
        FaultPlan::none().with_io_error_at(0).with_torn_write_at(1),
        FaultPlan::none().with_delayed_ack_at(2, 0.2),
    ];
    for policy in &policies {
        for allocation in &allocations {
            for plan in &plans {
                let mut c = cfg(*allocation);
                c.robustness.policy = policy.clone();
                c.robustness.faults = plan.clone();
                let disk = LocalDisk::new(1e9);
                match run_pipeline(Heat3D::new(heat()), &c, &disk) {
                    Ok(r) => {
                        assert_eq!(r.step_outcomes.len(), 13, "{plan:?}");
                        assert!(r.selected.len() <= 4);
                    }
                    Err(e) => {
                        // only structured, explainable failures allowed
                        let msg = e.to_string();
                        assert!(!msg.is_empty());
                        assert!(
                            matches!(e, IbisError::WorkerPanic { .. }),
                            "unexpected error class for {plan:?} under {policy:?}: {e}"
                        );
                    }
                }
            }
        }
    }
}

/// What a failure report says happened, without the measured times.
fn outcome_of(r: &InsituReport) -> (&[usize], &[StepOutcome], u64, u64, &[String]) {
    (
        &r.selected,
        &r.step_outcomes,
        r.bytes_written,
        r.summary_bytes_total,
        &r.fault_events,
    )
}

/// Runs `c` under both allocations, twice each, and asserts the acceptance
/// property on the way: the same fault plan produces the identical result
/// — report or error — on every run and under either allocation, because
/// both feed the same consume-a-step path. Returns that one result.
fn run_everywhere(c: &PipelineConfig) -> Result<InsituReport, IbisError> {
    let run = |allocation| {
        let mut c = c.clone();
        c.allocation = allocation;
        run_pipeline(Heat3D::new(heat()), &c, &LocalDisk::new(1e9))
    };
    let first = run(CoreAllocation::Shared);
    for allocation in [CoreAllocation::Shared, separate(), separate()] {
        match (&first, &run(allocation)) {
            (Ok(a), Ok(b)) => assert_eq!(outcome_of(a), outcome_of(b), "{allocation:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "{allocation:?}"),
            (a, b) => panic!("{allocation:?}: {b:?} where Shared-Cores gave {a:?}"),
        }
    }
    first
}

/// Abort policy surfaces the consumer panic as a structured error that
/// names the role, the step, and the panic message.
#[test]
fn abort_policy_reports_structured_consumer_panic() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.faults = FaultPlan::none().with_consumer_panic_at(3);
    match run_everywhere(&c).unwrap_err() {
        IbisError::WorkerPanic {
            role,
            step,
            message,
        } => {
            assert_eq!(role, WorkerRole::Consumer);
            assert_eq!(step, Some(3));
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

/// The acceptance property on a mixed plan hitting both storage and the
/// consumer: same events, same outcomes, same selection.
#[test]
fn identical_fault_plans_produce_identical_reports() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.policy = FailurePolicy::SkipStep;
    c.robustness.faults = FaultPlan::none()
        .with_io_error_at(1)
        .with_torn_write_at(2)
        .with_consumer_panic_at(4);
    let r = run_everywhere(&c).unwrap();
    assert!(!r.fault_events.is_empty(), "plan must actually fire");
}

/// Same property for every seed-derived plan, reports and errors alike —
/// and some small seed does exercise the error path.
#[test]
fn seeded_plan_failure_report_is_deterministic() {
    let failed = (0u64..16)
        .filter(|&seed| {
            let mut c = cfg(CoreAllocation::Shared);
            c.robustness.faults = FaultPlan::seeded(seed, 13);
            run_everywhere(&c).is_err()
        })
        .count();
    assert!(failed > 0, "some small seed derives a fatal plan");
}

/// SkipStep keeps going: the panicked step is recorded, everything else
/// completes, and the selector still returns a full selection.
#[test]
fn skip_policy_records_outcome_and_completes() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.policy = FailurePolicy::SkipStep;
    c.robustness.faults = FaultPlan::none().with_consumer_panic_at(6);
    let r = run_everywhere(&c).unwrap();
    assert!(matches!(r.step_outcomes[6], StepOutcome::Skipped { .. }));
    assert_eq!(
        r.step_outcomes.iter().filter(|o| o.is_completed()).count(),
        12
    );
    assert_eq!(r.selected.len(), 4);
    assert!(
        !r.selected.contains(&6),
        "a skipped step cannot be selected"
    );
}

/// FallbackSampling substitutes a sampled summary for the failed step, so
/// the step stays eligible for selection.
#[test]
fn fallback_policy_keeps_step_eligible() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.policy = fallback();
    c.robustness.faults = FaultPlan::none().with_consumer_panic_at(6);
    let r = run_everywhere(&c).unwrap();
    assert!(matches!(
        r.step_outcomes[6],
        StepOutcome::FallbackSampled { .. }
    ));
    assert_eq!(r.selected.len(), 4);
}

/// Regression: under Separate-Cores a consumer death used to strand the
/// producer on a full bounded queue forever. The failure must now surface
/// as a structured error well within a timeout.
#[test]
fn separate_cores_consumer_death_does_not_deadlock() {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut c = cfg(separate());
        c.queue_capacity = 1; // smallest queue = fastest deadlock before the fix
        c.steps = 17;
        c.robustness.faults = FaultPlan::none().with_consumer_panic_at(2);
        let disk = LocalDisk::new(1e9);
        let result = run_pipeline(Heat3D::new(heat()), &c, &disk);
        tx.send(result).ok();
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("pipeline deadlocked: no result within 60s");
    handle.join().expect("runner thread panicked");
    let err = result.unwrap_err();
    assert!(
        matches!(
            err,
            IbisError::WorkerPanic {
                role: WorkerRole::Consumer,
                ..
            }
        ),
        "expected a contained consumer panic, got {err}"
    );
}

/// Transient storage faults are retried and absorbed: the run completes,
/// the events are on the record, and the modeled time reflects a delayed
/// acknowledgement.
#[test]
fn transient_write_faults_are_retried_and_logged() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.faults = FaultPlan::none()
        .with_io_error_at(0)
        .with_delayed_ack_at(1, 0.25);
    let r = run_everywhere(&c).unwrap();
    assert!(r.step_outcomes.iter().all(StepOutcome::is_completed));
    assert_eq!(r.fault_events.len(), 2, "{:?}", r.fault_events);

    let clean = run_everywhere(&cfg(CoreAllocation::Shared)).unwrap();
    assert_eq!(r.selected, clean.selected, "faults must not change results");
    assert!(
        r.phases.output > clean.phases.output,
        "backoff + delayed ack must show up in modeled output time"
    );
}

/// A persistently failing write exhausts the retry budget and aborts the
/// run with a storage error instead of looping forever.
#[test]
fn persistent_write_fault_exhausts_retries() {
    let mut c = cfg(CoreAllocation::Shared);
    c.robustness.faults = FaultPlan::none()
        .with_io_error_at(0)
        .with_persistent_write_faults();
    let err = run_everywhere(&c).unwrap_err();
    assert!(
        matches!(err, IbisError::StorageExhausted { .. }),
        "expected StorageExhausted, got {err}"
    );
}
