//! Observability invariants on the Separate-Cores queue instrumentation:
//!
//! * the queue-occupancy gauge's high-water mark never exceeds the
//!   configured bound (`queue_capacity + 1`: up to `capacity` buffered
//!   messages plus at most one in the producer's hand-off), and
//! * the backpressure stall counters stay at zero when the consumer is
//!   guaranteed to outpace the producer (capacity >= steps makes the
//!   queue deterministically never-full, independent of scheduling).
//!
//! Both invariants read the process-wide registry, so they live in one
//! serial `#[test]` — ordering between the two runs matters (the
//! high-water mark is cumulative).
//!
//! A durable Ocean ingest (build → score → checkpoint → put) holds every
//! bin in the form it is stored in: it never transcodes one to WAH. That
//! reads the registry too, so the two tests take turns.

use ibis_analysis::Metric;
use ibis_core::{Binner, RowOrder};
use ibis_datagen::{Heat3D, Heat3DConfig, OceanConfig, OceanModel};
use ibis_insitu::{
    run_durable, run_pipeline, CoreAllocation, LocalDisk, MachineModel, PipelineConfig, Reduction,
    RobustnessConfig, ScalingModel,
};
use ibis_obs::MetricValue;
use std::sync::Mutex;

/// Held by each test of this binary: they read the process-wide registry.
static REGISTRY: Mutex<()> = Mutex::new(());

fn cfg(queue_capacity: usize) -> PipelineConfig {
    PipelineConfig {
        machine: MachineModel::xeon32(),
        cores: 4,
        allocation: CoreAllocation::Separate {
            sim_cores: 2,
            bitmap_cores: 2,
        },
        reduction: Reduction::Bitmaps,
        steps: 13,
        select_k: 4,
        metric: Metric::ConditionalEntropy,
        binners: vec![Binner::precision(-1.0, 101.0, 0)],
        per_step_precision: None,
        row_order: RowOrder::Identity,
        queue_capacity,
        sim_scaling: ScalingModel::heat3d(),
        robustness: RobustnessConfig::default(),
    }
}

fn heat() -> Heat3D {
    Heat3D::new(Heat3DConfig {
        nx: 12,
        ny: 12,
        nz: 12,
        ..Heat3DConfig::tiny()
    })
}

fn counter(name: &str) -> u64 {
    match ibis_obs::global().snapshot().get(name) {
        Some(MetricValue::Counter(v)) => *v,
        None => 0,
        other => panic!("{name}: expected a counter, got {other:?}"),
    }
}

fn gauge(name: &str) -> (i64, i64) {
    match ibis_obs::global().snapshot().get(name) {
        Some(MetricValue::Gauge { value, max }) => (*value, *max),
        other => panic!("{name}: expected a gauge, got {other:?}"),
    }
}

#[test]
fn queue_gauge_bounded_and_stalls_zero_when_consumer_keeps_up() {
    let _alone = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    if !ibis_obs::ENABLED {
        let disk = LocalDisk::new(1e9);
        run_pipeline(heat(), &cfg(2), &disk).unwrap();
        assert!(
            ibis_obs::global().snapshot().is_empty(),
            "no-op build must record nothing"
        );
        return;
    }

    // --- invariant 1: occupancy high-water mark <= capacity + 1 ---
    let capacity = 2usize;
    let disk = LocalDisk::new(1e9);
    run_pipeline(heat(), &cfg(capacity), &disk).unwrap();

    let (bound, _) = gauge("pipeline.queue.bound");
    assert_eq!(bound, capacity as i64 + 1, "published bound");
    let (in_flight, watermark) = gauge("pipeline.queue.in_flight");
    assert_eq!(in_flight, 0, "a finished run leaves nothing in flight");
    assert!(
        watermark <= bound,
        "queue occupancy watermark {watermark} exceeded bound {bound}"
    );
    assert!(watermark >= 1, "a Separate run must put steps in flight");

    // --- invariant 2: capacity >= steps means the producer can never
    // find the queue full, so the stall path must not fire ---
    let stalls_before = counter("pipeline.queue.stalls");
    let stall_ns_before = counter("pipeline.queue.stall_ns");
    let roomy = cfg(13); // capacity == steps: deterministically never full
    run_pipeline(heat(), &roomy, &disk).unwrap();
    assert_eq!(
        counter("pipeline.queue.stalls"),
        stalls_before,
        "stall counter moved although the queue could never fill"
    );
    assert_eq!(
        counter("pipeline.queue.stall_ns"),
        stall_ns_before,
        "stall time accrued although the queue could never fill"
    );
}

#[test]
fn durable_ocean_ingest_transcodes_no_bin() {
    let _alone = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    // two 64Ki-row chunks of noisy fields: most bins are built as Roaring
    let ocean = OceanConfig {
        nlon: 96,
        nlat: 64,
        ndepth: 16,
        ..OceanConfig::default()
    };
    let cfg = PipelineConfig {
        cores: 1,
        allocation: CoreAllocation::Shared,
        steps: 6,
        select_k: 3,
        metric: Metric::EmdSpatial,
        binners: Vec::new(),
        per_step_precision: Some(1),
        queue_capacity: 1,
        ..cfg(1)
    };
    let dir = ibis_testkit::TempDir::new("ocean-ingest-form");
    let (transcoded, roaring) = (
        counter("codec.decode.transcoded_bins"),
        counter("codec.select.roaring"),
    );
    run_durable(OceanModel::new(ocean), &cfg, &dir).unwrap();
    assert_eq!(
        counter("codec.decode.transcoded_bins"),
        transcoded,
        "the ingest asked a Roaring-held bin for its WAH form"
    );
    if ibis_obs::ENABLED {
        assert!(
            counter("codec.select.roaring") > roaring,
            "no bin was built as Roaring"
        );
    }
}
