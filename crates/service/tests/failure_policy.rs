//! The failure-policy engine end to end:
//!
//! 1. a flapping tenant trips its circuit breaker within
//!    `failure_threshold` submissions and is shed with `CircuitOpen`
//!    **before** queueing — no worker slot burned — while a healthy
//!    tenant on the same service is unaffected;
//! 2. bounded retries with backoff heal transient failures and give up
//!    when the outage outlasts the budget;
//! 3. `Drop` discards failures without breaker accounting; the default
//!    policy stays fail-fast-once;
//! 4. a tenant's policy survives a checkpoint-set restart.
//!
//! Whatever the disposition, the final error reaches the submission's
//! ticket.

use restore_core::{FailureDisposition, FailurePolicy, ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_service::{
    CheckpointConfig, FaultInjector, RestoreService, ServiceConfig, ServiceError, SubmitHandle,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fresh_dfs() -> Dfs {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 256, replication: 2, node_capacity: None });
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\ndan\t2\n").unwrap();
    dfs
}

fn session_over(dfs: Dfs) -> ReStore {
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
    );
    ReStore::new(engine, ReStoreConfig::default())
}

fn service_over(dfs: Dfs) -> RestoreService {
    RestoreService::new(
        session_over(dfs),
        ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() },
    )
}

fn query(tag: &str, round: usize) -> (String, String) {
    let out = format!("/out/{tag}/r{round}");
    let q = format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    );
    (q, format!("/wf/{tag}/r{round}"))
}

fn submit(svc: &RestoreService, tag: &str, round: usize) -> SubmitHandle {
    let (q, wf) = query(tag, round);
    svc.submit(Some(tag), &q, &wf).expect("admitted")
}

fn with_failure(p: FailurePolicy) -> ReStoreConfig {
    ReStoreConfig { failure: p, ..Default::default() }
}

/// Fails every attempt for one tenant until healed; all other tenants
/// pass untouched.
struct TenantOutage {
    tenant: &'static str,
    failing: AtomicBool,
}

impl TenantOutage {
    fn new(tenant: &'static str) -> Arc<Self> {
        Arc::new(TenantOutage { tenant, failing: AtomicBool::new(true) })
    }

    fn heal(&self) {
        self.failing.store(false, Ordering::SeqCst);
    }
}

impl FaultInjector for TenantOutage {
    fn inject(&self, tenant: Option<&str>, _submission: u64, _attempt: u32) -> Option<String> {
        (self.failing.load(Ordering::SeqCst) && tenant == Some(self.tenant))
            .then(|| format!("injected outage for tenant {:?}", self.tenant))
    }
}

/// Fails the first `fail_first` attempts of every submission, then
/// lets it pass — the transient-fault shape retries are for.
struct TransientFault {
    fail_first: u32,
}

impl FaultInjector for TransientFault {
    fn inject(&self, _tenant: Option<&str>, _submission: u64, attempt: u32) -> Option<String> {
        (attempt < self.fail_first).then(|| format!("transient fault on attempt {attempt}"))
    }
}

/// The acceptance scenario: a tenant failing 100% of submissions trips
/// its breaker after exactly `failure_threshold` failures, every
/// subsequent submission is shed with `CircuitOpen` without reaching
/// the queue or a worker, and a healthy tenant keeps executing.
#[test]
fn flapping_tenant_is_shed_healthy_tenant_unaffected() {
    let svc = service_over(fresh_dfs());
    svc.set_fault_injector(Some(TenantOutage::new("flappy")));
    svc.driver().set_config_as(
        Some("flappy"),
        with_failure(FailurePolicy {
            failure_window: 8,
            failure_threshold: 3,
            // Long enough that the breaker stays open for the whole test.
            breaker_cooldown_ms: 60_000,
            ..Default::default()
        }),
    );

    // Exactly `failure_threshold` failures trip the breaker; each one
    // surfaces its injected error to the waiting ticket.
    for round in 0..3 {
        let err = submit(&svc, "flappy", round).wait().unwrap_err();
        assert!(
            matches!(&err, ServiceError::Query(e) if e.to_string().contains("injected outage")),
            "failure {round} surfaces the injected error, got {err}"
        );
    }

    // Everything after that is shed before queueing: no admission, no
    // worker slot — only the rejected counters move.
    let before = svc.stats();
    for round in 10..20 {
        let (q, wf) = query("flappy", round);
        match svc.submit(Some("flappy"), &q, &wf) {
            Err(ServiceError::CircuitOpen { tenant }) => assert_eq!(tenant, "flappy"),
            other => panic!("submission {round} should be shed, got {other:?}"),
        }
    }
    let after = svc.stats();
    assert_eq!(after.submitted, before.submitted, "shed submissions are never admitted");
    assert_eq!(after.completed, before.completed, "shed submissions never run");
    assert_eq!(after.rejected, before.rejected + 10);
    assert_eq!((after.queued, after.running), (0, 0), "nothing queued or on a worker");

    // A healthy tenant on the same service is untouched by the outage.
    submit(&svc, "steady", 0).wait().expect("healthy tenant executes normally");

    let metrics = svc.render_metrics();
    assert!(metrics.contains("restore_circuit_state{tenant=\"flappy\"} 1"), "breaker open gauge");
    assert!(metrics.contains("restore_circuit_shed_total 10"), "shed counter");
    svc.shutdown();
}

/// Bounded retries heal a transient fault — and the backoff schedule
/// runs through re-enqueue, so the worker pool is never parked.
#[test]
fn retries_heal_transients_and_exhaust_into_the_final_error() {
    let svc = service_over(fresh_dfs());
    svc.set_fault_injector(Some(Arc::new(TransientFault { fail_first: 2 })));
    svc.driver().set_config_as(
        Some("ana"),
        with_failure(FailurePolicy {
            on_failure: FailureDisposition::Retry,
            max_retries: 3,
            retry_backoff_base_ms: 1,
            retry_backoff_cap_ms: 4,
            ..Default::default()
        }),
    );

    // Attempts 0 and 1 fail, attempt 2 succeeds: the waiter sees only
    // the eventual success.
    submit(&svc, "ana", 0).wait().expect("third attempt succeeds");
    assert!(svc.render_metrics().contains("restore_retries_total 2"));

    // An outage longer than the retry budget surfaces the last error.
    svc.set_fault_injector(Some(Arc::new(TransientFault { fail_first: 10 })));
    let err = submit(&svc, "ana", 1).wait().unwrap_err();
    assert!(matches!(&err, ServiceError::Query(e) if e.to_string().contains("transient fault")));
    assert!(svc.render_metrics().contains("restore_retries_total 5"), "3 more retries consumed");
    svc.shutdown();
}

/// `Drop` disposition: the error surfaces once, and dropped failures
/// never feed the breaker window — best-effort traffic cannot trip its
/// own breaker.
#[test]
fn drop_disposition_discards_without_retries_or_breaker_accounting() {
    let svc = service_over(fresh_dfs());
    svc.set_fault_injector(Some(TenantOutage::new("be")));
    svc.driver().set_config_as(
        Some("be"),
        with_failure(FailurePolicy {
            on_failure: FailureDisposition::Drop,
            failure_window: 8,
            failure_threshold: 2,
            ..Default::default()
        }),
    );

    // Six consecutive failures — three times the threshold — and every
    // submission is still admitted: dropped failures are not counted.
    for round in 0..6 {
        let err = submit(&svc, "be", round).wait().unwrap_err();
        assert!(matches!(err, ServiceError::Query(_)));
    }
    assert!(svc.render_metrics().contains("restore_retries_total 0"), "nothing retried");
    assert!(
        svc.render_metrics().contains("restore_circuit_state{tenant=\"be\"} 0"),
        "breaker stays closed"
    );
    svc.shutdown();
}

/// The default policy is fail-fast-once: no retry (a retry would have
/// succeeded here), no breaker.
#[test]
fn default_policy_fails_fast_exactly_once() {
    let svc = service_over(fresh_dfs());
    svc.set_fault_injector(Some(Arc::new(TransientFault { fail_first: 1 })));
    let err = submit(&svc, "ana", 0).wait().unwrap_err();
    assert!(matches!(err, ServiceError::Query(_)));
    assert!(svc.render_metrics().contains("restore_retries_total 0"));
    svc.shutdown();
}

/// The recovery path: cooldown elapses, the next submission is admitted
/// as a half-open probe, its success closes the breaker, and the tenant
/// serves normally again.
#[test]
fn half_open_probe_closes_the_breaker_after_heal() {
    let svc = service_over(fresh_dfs());
    let outage = TenantOutage::new("ho");
    svc.set_fault_injector(Some(outage.clone()));
    svc.driver().set_config_as(
        Some("ho"),
        with_failure(FailurePolicy {
            failure_window: 4,
            failure_threshold: 2,
            breaker_cooldown_ms: 50,
            breaker_half_open_probes: 1,
            breaker_success_threshold: 1,
            ..Default::default()
        }),
    );

    for round in 0..2 {
        submit(&svc, "ho", round).wait().unwrap_err();
    }
    let (q, wf) = query("ho", 2);
    assert!(
        matches!(svc.submit(Some("ho"), &q, &wf), Err(ServiceError::CircuitOpen { .. })),
        "breaker is open immediately after tripping"
    );

    outage.heal();
    std::thread::sleep(Duration::from_millis(60));

    // First submission past the cooldown is the probe; its success
    // closes the breaker and normal admission resumes.
    submit(&svc, "ho", 3).wait().expect("probe succeeds after heal");
    for round in 4..7 {
        submit(&svc, "ho", round).wait().expect("breaker closed again");
    }
    assert!(svc.render_metrics().contains("restore_circuit_state{tenant=\"ho\"} 0"));
    svc.shutdown();
}

/// A tenant's failure policy is part of the durable state: a service
/// rebuilt from a checkpoint set alone retries the tenant's transient
/// faults exactly as the one before it would have.
#[test]
fn retry_policy_survives_a_checkpoint_set_restart() {
    let dfs = fresh_dfs();
    let svc = service_over(dfs.clone());
    svc.driver().set_config_as(
        Some("ana"),
        with_failure(FailurePolicy {
            on_failure: FailureDisposition::Retry,
            max_retries: 3,
            retry_backoff_base_ms: 1,
            retry_backoff_cap_ms: 4,
            ..Default::default()
        }),
    );
    svc.checkpoint_begin(CheckpointConfig::default());
    let set = svc.checkpoint_set().expect("checkpointing");
    svc.shutdown();

    let svc2 = service_over(dfs);
    svc2.restore_incremental(&set).unwrap();
    svc2.set_fault_injector(Some(Arc::new(TransientFault { fail_first: 2 })));
    submit(&svc2, "ana", 0).wait().expect("the restored policy retries into a success");
    assert!(svc2.render_metrics().contains("restore_retries_total 2"));
    svc2.shutdown();
}
