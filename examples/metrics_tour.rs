//! Metrics tour: the full observability surface on one page.
//!
//! Runs a small two-round workload through the service (cold, then
//! warm-from-repository), captures an incremental checkpoint, then:
//!
//! 1. prints the reuse-decision trace of the warm rerun — *why* the
//!    repository answered it ([`RestoreService::trace`]);
//! 2. dumps the complete Prometheus text exposition from
//!    [`RestoreService::render_metrics`] — match hit/miss/latency per
//!    tenant, per-stage pipeline timing, journal gauges,
//!    checkpoint durations, scheduler depth, worker utilization, and
//!    the RCU write counters that prove the match path publishes
//!    nothing.
//!
//! ```sh
//! cargo run --example metrics_tour
//! ```
//!
//! CI smokes this example and greps the output for the required metric
//! families, so the exposition surface cannot silently regress.
//!
//! [`RestoreService::trace`]: restore_suite::service::RestoreService::trace
//! [`RestoreService::render_metrics`]: restore_suite::service::RestoreService::render_metrics

use restore_suite::core::{FailureDisposition, FailurePolicy, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{
    CheckpointConfig, FaultInjector, RestoreService, ServiceConfig, ServiceError,
};

/// Injected outage for the tour's flaky tenant: every attempt fails,
/// so the failure-policy families below carry real traffic.
struct FlakyOutage;

impl FaultInjector for FlakyOutage {
    fn inject(&self, tenant: Option<&str>, _submission: u64, _attempt: u32) -> Option<String> {
        (tenant == Some("flaky")).then(|| "injected outage".to_string())
    }
}

fn main() {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xF00D).expect("data generation");
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
    // RESTORE_CANONICALIZE=0 turns the analyzer off; the canonicalization
    // histograms below then stay at zero counts but remain exposed.
    let canonicalize =
        !matches!(std::env::var("RESTORE_CANONICALIZE").as_deref(), Ok("0") | Ok("false"));
    let service = RestoreService::new(
        ReStore::new(engine, ReStoreConfig { canonicalize, ..Default::default() }),
        ServiceConfig { workers: 2, queue_depth: 16, ..Default::default() },
    );
    service.checkpoint_begin(CheckpointConfig::default());

    // Cold round: everything misses, the repository fills.
    for (q, wf) in
        [(queries::l3("/out/cold/l3"), "/wf/cold/l3"), (queries::l7("/out/cold/l7"), "/wf/cold/l7")]
    {
        service.submit(Some("ana"), &q, wf).expect("admitted").wait().expect("cold run");
    }
    // Warm rerun: answered from the repository.
    let warm = service.submit(Some("ana"), &queries::l7("/out/warm/l7"), "/wf/warm/l7").unwrap();
    let exec = warm.wait().expect("warm run");

    // Failure-policy beat: a flaky tenant retries once, surfaces the
    // final error, and trips its breaker — populating
    // `restore_retries_total` and `restore_circuit_state{tenant="flaky"}`.
    service.driver().set_config_as(
        Some("flaky"),
        ReStoreConfig {
            failure: FailurePolicy {
                on_failure: FailureDisposition::Retry,
                max_retries: 1,
                retry_backoff_base_ms: 1,
                failure_window: 4,
                failure_threshold: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    service.set_fault_injector(Some(std::sync::Arc::new(FlakyOutage)));
    service
        .submit(Some("flaky"), &queries::l3("/out/flaky/l3"), "/wf/flaky/l3")
        .expect("admitted")
        .wait()
        .expect_err("the injected outage exhausts the retry budget");
    assert!(
        matches!(
            service.submit(Some("flaky"), &queries::l3("/out/flaky/shed"), "/wf/flaky/shed"),
            Err(ServiceError::CircuitOpen { .. })
        ),
        "two failed attempts trip the breaker"
    );
    service.set_fault_injector(None);

    service.checkpoint_incremental().expect("delta capture");

    println!(
        "-- warm rerun: {} job(s) ran, {} skipped --",
        exec.job_results.len(),
        exec.jobs_skipped
    );
    println!("-- reuse-decision trace (why the repository answered it) --");
    for event in service.trace(&warm).expect("completed submission has a trace") {
        println!("  {event}");
    }

    println!("-- prometheus exposition --");
    print!("{}", service.render_metrics());

    service.shutdown();
}
