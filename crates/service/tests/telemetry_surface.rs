//! The service's observability surface:
//!
//! 1. `render_metrics` emits every required Prometheus family — match
//!    (per tenant), stage timing, journal gauges, checkpoint durations,
//!    scheduler depth, worker utilization, RCU write counters;
//! 2. `trace(handle)` explains a completed submission's reuse
//!    decisions, keyed by the ticket's driver tick;
//! 3. `stats()` totals always sum — tenant rows and service counters
//!    come from one cut, even while submissions race the reader.

use restore_core::{ReStore, ReStoreConfig, ReuseDecision};
use restore_dfs::DfsConfig;
use restore_mapreduce::{Engine, EngineConfig};
use restore_pigmix::{datagen, queries, DataScale};
use restore_service::{CheckpointConfig, RestoreService, ServiceConfig};
use restore_testkit::{engine_over, small_dfs};

const SEED: u64 = 0x5EED;

fn engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }))
}

fn service(config: ServiceConfig) -> RestoreService {
    RestoreService::new(ReStore::new(engine(), ReStoreConfig::default()), config)
}

#[test]
fn render_metrics_covers_required_families() {
    let svc = service(ServiceConfig { workers: 2, ..Default::default() });
    svc.checkpoint_begin(CheckpointConfig::default());
    svc.submit(Some("ana"), &queries::l7("/out/a1"), "/wf/a1").unwrap().wait().unwrap();
    svc.submit(Some("ana"), &queries::l7("/out/a2"), "/wf/a2").unwrap().wait().unwrap();
    svc.checkpoint_incremental().expect("capture a delta");

    let text = svc.render_metrics();
    for family in [
        // Match path, per tenant.
        "restore_match_hits_total{tenant=\"ana\"}",
        "restore_match_misses_total{tenant=\"ana\"}",
        "restore_match_seconds_bucket{tenant=\"ana\",le=",
        "restore_match_stage_seconds_bucket{stage=\"index_probe\"",
        // Driver pipeline stages.
        "restore_stage_seconds_bucket{stage=\"match\"",
        "restore_stage_seconds_bucket{stage=\"execute\"",
        "restore_stage_seconds_bucket{stage=\"register\"",
        // Journal gauges and capture lag.
        "restore_journal_seq ",
        "restore_journal_seq_lag ",
        "restore_journal_live_bytes ",
        // Checkpoint durations and keeper sizes.
        "restore_checkpoint_capture_seconds_bucket{le=",
        "restore_checkpoint_compact_seconds_bucket{le=",
        "restore_checkpoint_base_bytes ",
        // Scheduler and worker pool.
        "service_queue_depth ",
        "service_worker_utilization ",
        "service_barrier_stalls_total ",
        "service_queue_wait_seconds_bucket{le=",
        "service_conflict_probe_seconds_bucket{le=",
        "service_worker_run_seconds_bucket{le=",
        "service_ticket_wait_seconds_bucket{le=",
        "service_submitted{tenant=\"ana\"} 2",
        // RCU write counters per namespace.
        "restore_repo_publishes{tenant=\"ana\"}",
        "restore_repo_writer_sections{tenant=\"ana\"}",
        "restore_repo_entries{tenant=\"ana\"}",
    ] {
        assert!(text.contains(family), "missing metric family {family:?} in:\n{text}");
    }
    svc.shutdown();
}

#[test]
fn trace_explains_completed_submissions() {
    let svc = service(ServiceConfig { workers: 2, ..Default::default() });
    let cold = svc.submit(Some("ana"), &queries::l7("/out/c"), "/wf/c").unwrap();
    cold.wait().expect("cold run");
    let warm = svc.submit(Some("ana"), &queries::l7("/out/w"), "/wf/w").unwrap();
    warm.wait().expect("warm run");

    // The cold run's match loop probed an empty repository.
    let cold_trace = svc.trace(&cold).expect("cold trace recorded");
    assert!(
        cold_trace.iter().any(|e| matches!(e.decision, ReuseDecision::NoCandidates { .. })),
        "cold submission should trace a no-candidates decision: {cold_trace:?}"
    );
    // The warm rerun names the entry it reused.
    let warm_trace = svc.trace(&warm).expect("warm trace recorded");
    assert!(
        warm_trace.iter().any(|e| matches!(e.decision, ReuseDecision::Matched { .. })),
        "warm submission should trace a match: {warm_trace:?}"
    );
    // Traces are per-submission: the two handles see different ticks.
    assert_ne!(cold_trace[0].tick, warm_trace[0].tick);
    svc.shutdown();
}

#[test]
fn stats_totals_sum_while_submissions_race() {
    let svc = service(ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() });
    std::thread::scope(|s| {
        let svc = &svc;
        let writer = s.spawn(move || {
            for i in 0..6 {
                let tenant = ["ana", "bob"][i % 2];
                let h = svc
                    .submit(Some(tenant), &queries::l7(&format!("/out/{tenant}/{i}")), "/wf/r")
                    .expect("queue has room");
                h.wait().expect("workflow completes");
            }
        });
        // Race the reader against live submissions: every observed cut
        // must be internally consistent.
        while !writer.is_finished() {
            let st = svc.stats();
            let by_tenant: u64 = st.tenants.iter().map(|t| t.submitted).sum();
            assert_eq!(by_tenant, st.submitted, "tenant rows must sum to the service total");
            let completed: u64 = st.tenants.iter().map(|t| t.completed).sum();
            assert_eq!(completed, st.completed);
            let clocks: Vec<u64> =
                st.tenants.iter().map(|t| t.repository.queries_executed).collect();
            assert!(
                clocks.windows(2).all(|w| w[0] == w[1]),
                "every repository row must report the same clock: {clocks:?}"
            );
        }
        writer.join().unwrap();
    });
    let st = svc.stats();
    assert_eq!(st.submitted, 6);
    assert_eq!(st.completed, 6);
    assert_eq!(st.tenants.len(), 2);
    svc.shutdown();
}
