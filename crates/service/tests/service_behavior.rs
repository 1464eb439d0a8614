//! Service-layer guarantees:
//!
//! 1. admission control sheds load with `Overloaded` /
//!    `TenantOverloaded` instead of blocking or panicking;
//! 2. tenants are isolated: one tenant's reuse and sweeps never touch
//!    another's entries;
//! 3. cross-workflow scheduling produces byte-identical outputs to
//!    submitting the same queries sequentially through the plain driver;
//! 4. a submitter blocked in `wait()` runs its own submission when — and
//!    only when — the scheduler would start it next, and a wake-up goes
//!    only to someone who can act on it, with `pause`, conflict order,
//!    barriers, retries, `drain`, `restore_incremental` and `shutdown`
//!    unchanged.
//!
//! The tests of (4) script interleavings through the fault injector
//! ([`Gate`]): every execution attempt announces itself and named
//! attempts block until released. Each passes on a correct service
//! whatever the thread timing. That something did *not* dispatch is
//! asserted on state — `stats()`, `service_dispatch_total` — read after
//! an event that proves the thread in question has asked the scheduler
//! ([`asked`]: every `pick` evaluation is one observation of the
//! conflict-probe histogram, recorded under the scheduler lock).
//! `SETTLE` remains only where the service exposes no such event — a
//! `wait()` turned away by `pause`, a thread parked in `drain`,
//! `restore_incremental` or `shutdown` — and there, like `HANG`, it only
//! decides how reliably a *broken* rule fails.

use restore_core::{
    FailureDisposition, FailurePolicy, QueryExecution, ReStore, ReStoreConfig, SelectionPolicy,
};
use restore_dfs::DfsConfig;
use restore_mapreduce::{Engine, EngineConfig};
use restore_pigmix::{datagen, queries, DataScale};
use restore_service::{
    CheckpointSet, FaultInjector, RestoreService, ServiceConfig, ServiceError, SubmitHandle,
};
use restore_testkit::{check_repository, engine_over, small_dfs};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

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

/// The per-tenant query mix: one multi-job workflow plus single-job
/// queries that exercise sub-job reuse.
fn mix(tag: &str) -> Vec<(String, String)> {
    vec![
        (queries::l3(&format!("/out/{tag}/l3")), format!("/wf/{tag}/l3")),
        (queries::l7(&format!("/out/{tag}/l7")), format!("/wf/{tag}/l7")),
        (queries::l8(&format!("/out/{tag}/l8")), format!("/wf/{tag}/l8")),
        (queries::l11(&format!("/out/{tag}/l11")), format!("/wf/{tag}/l11")),
    ]
}

#[test]
fn queue_saturation_sheds_with_overloaded() {
    let svc = service(ServiceConfig { workers: 2, queue_depth: 3, ..Default::default() });
    // Pausing dispatch makes saturation deterministic: nothing drains.
    svc.pause();
    let mut handles = Vec::new();
    for i in 0..3 {
        let h = svc
            .submit(Some("ana"), &queries::l7(&format!("/out/q{i}")), &format!("/wf/q{i}"))
            .expect("queue has room");
        handles.push(h);
    }
    // The fourth submission is shed, not blocked.
    let over = svc.submit(Some("ana"), &queries::l7("/out/q3"), "/wf/q3");
    assert_eq!(over.unwrap_err(), ServiceError::Overloaded { queue_depth: 3 });
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.rejected), (3, 1));

    // Resuming drains the queue; every accepted query completes.
    svc.resume();
    for h in handles {
        h.wait().expect("accepted query completes");
    }
    // Capacity is available again.
    svc.submit(Some("ana"), &queries::l7("/out/q4"), "/wf/q4").unwrap().wait().unwrap();
}

#[test]
fn tenant_inflight_cap_rejects_tenant_only() {
    let svc = service(ServiceConfig { workers: 2, queue_depth: 16, max_inflight_per_tenant: 1 });
    svc.pause();
    let a = svc.submit(Some("ana"), &queries::l7("/out/a0"), "/wf/a0").unwrap();
    let denied = svc.submit(Some("ana"), &queries::l7("/out/a1"), "/wf/a1");
    assert_eq!(
        denied.unwrap_err(),
        ServiceError::TenantOverloaded { tenant: "ana".into(), max_inflight: 1 }
    );
    // Another tenant is unaffected by ana's cap.
    let b = svc.submit(Some("bo"), &queries::l7("/out/b0"), "/wf/b0").unwrap();
    svc.resume();
    a.wait().unwrap();
    b.wait().unwrap();
    // With ana's workflow done, her slot frees up.
    svc.submit(Some("ana"), &queries::l7("/out/a2"), "/wf/a2").unwrap().wait().unwrap();
}

#[test]
fn tenant_sweeps_and_reuse_are_isolated() {
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(2), ..Default::default() },
        ..Default::default()
    };
    let svc = RestoreService::new(
        ReStore::new(engine(), config),
        ServiceConfig { workers: 2, ..Default::default() },
    );

    // bo populates his namespace, then goes idle.
    svc.submit(Some("bo"), &queries::l7("/out/bo/l7"), "/wf/bo/l7").unwrap().wait().unwrap();
    let bo_entries = svc.driver().stats_as(Some("bo")).repository_entries;
    assert!(bo_entries > 0);

    // ana's traffic advances the shared clock far past bo's window; each
    // of her queries runs an eviction sweep — in ana's space only.
    for i in 0..8 {
        svc.submit(Some("ana"), &queries::l7(&format!("/out/ana/{i}")), &format!("/wf/ana/{i}"))
            .unwrap()
            .wait()
            .unwrap();
    }

    assert_eq!(
        svc.driver().stats_as(Some("bo")).repository_entries,
        bo_entries,
        "ana's sweeps must not evict bo's entries"
    );
    if let Err(e) = check_repository(svc.driver()) {
        panic!("an output deleted by another tenant's sweep: {e}");
    }

    // No cross-tenant reuse: bo rerunning ana's exact query text (fresh
    // output path) still executes jobs.
    let cold = svc.submit(Some("carol"), &queries::l7("/out/carol/l7"), "/wf/carol/l7").unwrap();
    let exec = cold.wait().unwrap();
    assert_eq!(exec.jobs_skipped, 0, "carol must not reuse ana's or bo's entries");
}

/// The acceptance bar: an 8-worker mixed-tenant run with cross-workflow
/// scheduling produces byte-identical outputs to the same queries
/// submitted sequentially through the plain driver.
#[test]
fn cross_workflow_scheduling_matches_sequential_driver() {
    let tenants = ["ana", "bo", "carol"];

    // Baseline: plain driver, strictly sequential submission order.
    let baseline = ReStore::new(engine(), ReStoreConfig::default());
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for t in &tenants {
        for (q, prefix) in mix(t) {
            let e = baseline.execute_query_as(Some(t), &q, &prefix).unwrap();
            expected.push(baseline.engine().dfs().read_all(&e.final_output).unwrap());
        }
    }

    // Service: same queries, 8 workers overlapping disjoint workflows.
    let svc = service(ServiceConfig { workers: 8, queue_depth: 64, max_inflight_per_tenant: 16 });
    let mut handles = Vec::new();
    for t in &tenants {
        for (q, prefix) in mix(t) {
            handles.push(svc.submit(Some(t), &q, &prefix).unwrap());
        }
    }
    let mut got = Vec::new();
    for h in handles {
        let e = h.wait().expect("service query completes");
        got.push(svc.driver().engine().dfs().read_all(&e.final_output).unwrap());
    }
    assert_eq!(got, expected, "service outputs must be byte-identical to sequential driver");

    let stats = svc.stats();
    assert_eq!(stats.completed, (tenants.len() * 4) as u64);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.tenants.len(), tenants.len());

    // Waiting submitters: one closed-loop client per tenant, each
    // blocking on a submission before sending the next, so submissions
    // are dispatched from `wait()` as well as by the pool — racing the
    // other tenants' clients and the workers every submit wakes.
    let svc = service(ServiceConfig { workers: 2, ..Default::default() });
    let got: Vec<Vec<u8>> = std::thread::scope(|s| {
        let clients: Vec<_> = tenants
            .iter()
            .map(|t| {
                let svc = &svc;
                s.spawn(move || {
                    mix(t)
                        .into_iter()
                        .map(|(q, prefix)| {
                            let e = svc.submit(Some(t), &q, &prefix).unwrap().wait().unwrap();
                            svc.driver().engine().dfs().read_all(&e.final_output).unwrap()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(got, expected, "waiting submitters must not change any output byte");
    assert_eq!(svc.stats().completed, (tenants.len() * 4) as u64);
}

/// Two identical submissions racing on the same paths: the footprint
/// probe serializes them, so the second is answered from the first's
/// repository entries instead of colliding on the DFS.
#[test]
fn conflicting_submissions_serialize_in_order() {
    let svc = service(ServiceConfig { workers: 4, ..Default::default() });
    let q = queries::l3("/out/same");
    let first = svc.submit(Some("ana"), &q, "/wf/same").unwrap();
    let second = svc.submit(Some("ana"), &q, "/wf/same").unwrap();
    let e1 = first.wait().expect("first run executes");
    let e2 = second.wait().expect("second run must not race the first");
    assert_eq!(e1.jobs_skipped, 0);
    assert!(e2.jobs_skipped > 0, "second identical query is served from the repository");
    assert_eq!(
        svc.driver().engine().dfs().read_all(&e1.final_output).unwrap(),
        svc.driver().engine().dfs().read_all(&e2.final_output).unwrap(),
    );
}

/// Strict-§5 stress: many rounds of multi-job workflows race over 8
/// workers while every query runs an eviction sweep with a 1-tick
/// window. Entry pinning must keep both matched outputs *and* each
/// workflow's own registered intermediates alive until consumed — any
/// regression surfaces as a `FileNotFound` here.
#[test]
fn strict_eviction_under_service_concurrency_never_loses_files() {
    let strict = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
        // Paper-experiment mode: final outputs stay user-owned so they
        // are never swept and remain readable below.
        register_final_outputs: false,
        ..Default::default()
    };
    let svc = RestoreService::new(
        ReStore::new(engine(), strict),
        ServiceConfig { workers: 8, queue_depth: 64, max_inflight_per_tenant: 64 },
    );
    let mut handles = Vec::new();
    for round in 0..4 {
        for t in ["ana", "bo"] {
            for (q, prefix) in mix(&format!("r{round}/{t}")) {
                handles.push(svc.submit(Some(t), &q, &prefix).unwrap());
            }
        }
    }
    let mut outputs: Vec<Vec<restore_common::Tuple>> = Vec::new();
    for h in handles {
        let e = h.wait().expect("strict-policy query must not hit FileNotFound");
        let bytes = svc.driver().engine().dfs().read_all(&e.final_output).unwrap();
        let mut t = restore_common::codec::decode_all(&bytes).unwrap();
        t.sort();
        outputs.push(t);
    }
    // Every round answers each query identically.
    let per_round = 8;
    for r in 1..4 {
        for i in 0..per_round {
            assert_eq!(outputs[r * per_round + i], outputs[i], "round {r} query {i} diverged");
        }
    }
}

#[test]
fn shutdown_drains_accepted_work() {
    let svc = service(ServiceConfig { workers: 2, ..Default::default() });
    let handles: Vec<_> = (0..4)
        .map(|i| {
            svc.submit(Some("ana"), &queries::l8(&format!("/out/s{i}")), &format!("/wf/s{i}"))
                .unwrap()
        })
        .collect();
    svc.shutdown();
    for h in handles {
        h.wait().expect("accepted work completes before shutdown returns");
    }
}

/// One execution attempt, as the fault injector saw it start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    id: u64,
    attempt: u32,
    /// The thread running it: a pool thread or the waiting submitter.
    thread: ThreadId,
}

/// A fault injector that scripts interleavings. Every attempt is
/// announced on a channel the moment it starts; an attempt named by
/// [`Gate::hold`] then blocks inside the injector — in flight, on
/// whichever thread dispatched it — until the test sends its
/// [`Verdict`].
struct Gate {
    entered: Mutex<Sender<Attempt>>,
    held: Mutex<HashMap<(u64, u32), Receiver<Verdict>>>,
}

/// `None` = execute the attempt, `Some(reason)` = fail it.
type Verdict = Option<String>;

impl Gate {
    fn install(svc: &RestoreService) -> (Arc<Gate>, Receiver<Attempt>) {
        let (tx, rx) = channel();
        let gate = Arc::new(Gate { entered: Mutex::new(tx), held: Mutex::default() });
        svc.set_fault_injector(Some(gate.clone()));
        (gate, rx)
    }

    /// Hold `attempt` of submission `id` (ids count from 1 in submission
    /// order) until the returned sender delivers its verdict.
    fn hold(&self, id: u64, attempt: u32) -> Sender<Verdict> {
        let (tx, rx) = channel();
        self.held.lock().unwrap().insert((id, attempt), rx);
        tx
    }
}

impl FaultInjector for Gate {
    fn inject(&self, _tenant: Option<&str>, id: u64, attempt: u32) -> Option<String> {
        let thread = std::thread::current().id();
        // The receiver is gone once the test body has returned.
        let _ = self.entered.lock().unwrap().send(Attempt { id, attempt, thread });
        let held = self.held.lock().unwrap().remove(&(id, attempt));
        // A test that failed drops its senders: fail what it held, so
        // the service under it can still wind down.
        held.and_then(|verdict| verdict.recv().unwrap_or_else(|_| Some("gate dropped".into())))
    }
}

/// Long enough for a thread that was just started to reach the call it
/// blocks in, and for a dispatch that must not happen to happen anyway.
const SETTLE: Duration = Duration::from_millis(50);
/// How long a call that a broken wake-up rule would hang may take.
const HANG: Duration = Duration::from_secs(20);

/// A blocking call running on a thread of its own. A plain thread, not
/// a scoped one: a scope joins its threads on the way out, which would
/// turn a failed expectation about a blocked call into a test run that
/// never ends.
struct Pending<T>(Receiver<T>);

fn start<T: Send + 'static>(call: impl FnOnce() -> T + Send + 'static) -> Pending<T> {
    let (tx, rx) = channel();
    std::thread::spawn(move || tx.send(call()));
    Pending(rx)
}

impl<T> Pending<T> {
    fn get(&self, what: &str) -> T {
        self.0.recv_timeout(HANG).unwrap_or_else(|_| panic!("still blocked after {HANG:?}: {what}"))
    }

    fn still_blocked(&self) -> bool {
        self.0.recv_timeout(SETTLE).is_err()
    }
}

type Waiting = Pending<(ThreadId, Result<QueryExecution, ServiceError>)>;

/// `handle.wait()` on a fresh thread; yields that thread's id with the
/// result.
fn wait_on(handle: &Arc<SubmitHandle>) -> Waiting {
    let handle = handle.clone();
    start(move || (std::thread::current().id(), handle.wait()))
}

/// A single-job query over its own output and temporaries: disjoint
/// from every other tag's.
fn solo(svc: &RestoreService, tag: &str) -> Arc<SubmitHandle> {
    let query = queries::l7(&format!("/out/{tag}"));
    Arc::new(svc.submit(Some("ana"), &query, &format!("/wf/{tag}")).expect("admitted"))
}

/// One pool thread, pinned inside submission 1 until the returned sender
/// fires: from here on only a waiting submitter can dispatch anything.
fn busy_pool() -> (RestoreService, Arc<Gate>, Receiver<Attempt>, Sender<Verdict>) {
    let svc = service(ServiceConfig { workers: 1, ..Default::default() });
    let (gate, entered) = Gate::install(&svc);
    let release = gate.hold(1, 0);
    assert_eq!(solo(&svc, "pin").id(), 1);
    assert_eq!(entered.recv_timeout(HANG).expect("the worker takes it").id, 1);
    (svc, gate, entered, release)
}

/// Block until the scheduler has evaluated `pick` `n` more times than
/// `since` (a [`picks`] reading): a pool thread or a waiter has taken
/// the scheduler lock and asked what may start. The observation is
/// recorded under that lock, before the answer is acted on, so a
/// `stats()` call afterwards sees the books as that dispatch left them —
/// and a pool thread that was told "nothing" is by then parked.
fn asked(svc: &RestoreService, since: f64, n: usize, who: &str) {
    let t0 = Instant::now();
    while picks(&svc.render_metrics()) < since + n as f64 {
        assert!(t0.elapsed() < HANG, "never asked the scheduler: {who}");
        std::thread::yield_now();
    }
}

/// `pick` evaluations so far, from the exposition.
fn picks(text: &str) -> f64 {
    sample(text, "service_conflict_probe_seconds_count")
}

/// `service_dispatch_total` as `(by="worker", by="waiter")`.
fn dispatched(svc: &RestoreService) -> (f64, f64) {
    let text = svc.render_metrics();
    (
        sample(&text, "service_dispatch_total{by=\"worker\"}"),
        sample(&text, "service_dispatch_total{by=\"waiter\"}"),
    )
}

/// One sample of the exposition (`name{labels} value`).
fn sample(text: &str, series: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.strip_prefix(series).is_some_and(|rest| rest.starts_with(' ')))
        .unwrap_or_else(|| panic!("no series {series:?}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// `submit` returns while the workflow has not even started, and a
/// submission nobody ever waits on is run by the pool.
#[test]
fn submit_never_blocks_and_an_unwaited_submission_completes() {
    let svc = service(ServiceConfig { workers: 1, ..Default::default() });
    let (gate, entered) = Gate::install(&svc);
    let release = gate.hold(1, 0);
    let h = solo(&svc, "alone");
    // Back from `submit` with the attempt still parked in the injector.
    assert_eq!(entered.recv_timeout(HANG).expect("a worker starts it").id, h.id());
    assert!(!h.is_done());
    release.send(None).unwrap();
    svc.drain();
    let text = svc.render_metrics();
    assert_eq!(sample(&text, "service_dispatch_total{by=\"worker\"}"), 1.0);
    assert_eq!(sample(&text, "service_dispatch_total{by=\"waiter\"}"), 0.0);
    // The ticket is filled after the scheduler's books are closed;
    // joining the pool is what orders it before this read.
    svc.shutdown();
    assert!(h.is_done(), "completed without anyone calling wait()");
}

/// The closed-loop case: with the pool busy, `submit` + `wait` runs on
/// the caller's thread, counted as `by="waiter"`, one queue-wait
/// observation per dispatch.
#[test]
fn a_blocked_submitter_runs_its_own_submission() {
    let (svc, _gate, entered, release) = busy_pool();
    let thread = std::thread::current().id();
    for i in 0..3 {
        let h = solo(&svc, &format!("own{i}"));
        h.wait().expect("runs on the submitter's thread");
        assert_eq!(entered.recv_timeout(HANG).unwrap(), Attempt { id: h.id(), attempt: 0, thread });
    }
    let text = svc.render_metrics();
    assert_eq!(sample(&text, "service_dispatch_total{by=\"waiter\"}"), 3.0);
    assert_eq!(sample(&text, "service_dispatch_total{by=\"worker\"}"), 1.0);
    assert_eq!(sample(&text, "service_queue_wait_seconds_count"), 4.0);
    // The pinned one is still running.
    assert_eq!(sample(&text, "service_worker_run_seconds_count"), 3.0);
    assert_eq!(svc.stats().running, 1);
    release.send(None).unwrap();
    svc.shutdown();
}

/// `pause` binds waiters as it binds workers: a `wait()` issued while
/// dispatch is paused starts nothing, and returns once `resume` lets the
/// submission run.
#[test]
fn a_paused_services_waiter_does_not_run_its_entry() {
    let svc = service(ServiceConfig { workers: 1, ..Default::default() });
    let (_gate, entered) = Gate::install(&svc);
    svc.pause();
    let h = solo(&svc, "paused");
    let waiter = wait_on(&h);
    // A `wait()` turned away by `pause` leaves no trace to wait for.
    assert!(entered.recv_timeout(SETTLE).is_err(), "nothing dispatches while paused");
    assert!(!h.is_done());
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.running), (1, 0));
    assert_eq!(dispatched(&svc), (0.0, 0.0));
    svc.resume();
    waiter.get("wait() after resume").1.expect("completes after resume");
    assert_eq!(entered.try_iter().count(), 1, "ran exactly once");
    let (by_worker, by_waiter) = dispatched(&svc);
    assert_eq!(by_worker + by_waiter, 1.0);
}

/// A waiter takes its submission only when `pick` names it: while a
/// conflicting earlier submission is queued, and then while it is in
/// flight, waiting on the later one starts nothing — so the pair runs in
/// submission order and the second is served from the first's result.
#[test]
fn a_waiter_never_overtakes_a_conflicting_earlier_submission() {
    let (svc, gate, entered, release_pin) = busy_pool();
    let q = queries::l3("/out/same");
    let release_a = gate.hold(2, 0);
    let a = svc.submit(Some("ana"), &q, "/wf/same").unwrap();
    let b = Arc::new(svc.submit(Some("ana"), &q, "/wf/same").unwrap());
    assert_eq!((a.id(), b.id()), (2, 3));
    // A queued, pool busy: B's waiter asks, and `pick` names A, not B.
    let before = picks(&svc.render_metrics());
    let first = wait_on(&b);
    asked(&svc, before, 1, "B's first waiter");
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.running), (2, 1), "B must not start while A is queued");
    assert_eq!(dispatched(&svc), (1.0, 0.0));
    // The pool frees up and takes A, which stays in flight.
    release_pin.send(None).unwrap();
    assert_eq!(entered.recv_timeout(HANG).expect("the pool runs A").id, a.id());
    // A in flight: a fresh wait on B still finds nothing to take.
    let before = picks(&svc.render_metrics());
    let second = wait_on(&b);
    asked(&svc, before, 1, "B's second waiter");
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.running), (1, 1), "B must not start while A is in flight");
    assert_eq!(dispatched(&svc), (2.0, 0.0));
    assert!(entered.try_recv().is_err());
    release_a.send(None).unwrap();
    let e1 = a.wait().expect("A runs first");
    let e2 = first.get("B's first waiter").1.expect("B runs after A");
    let again = second.get("B's second waiter").1.expect("both waiters get B's result");
    assert_eq!(again.tick, e2.tick);
    assert_eq!(e1.jobs_skipped, 0);
    assert!(e2.jobs_skipped > 0, "B is served from A's repository entries");
    assert_eq!(entered.try_iter().map(|a| a.id).collect::<Vec<_>>(), [b.id()], "B ran once");
}

/// While a barrier workflow (one that rewrites a repository-registered
/// path) is in flight, a waiter can dispatch no more than a worker can:
/// nothing.
#[test]
fn a_barrier_in_flight_freezes_waiters_too() {
    let svc = service(ServiceConfig { workers: 2, ..Default::default() });
    let q = queries::l7("/out/registered");
    svc.submit(Some("ana"), &q, "/wf/reg").unwrap().wait().unwrap();
    assert!(svc.driver().serves_path("/out/registered"));

    let (gate, entered) = Gate::install(&svc);
    let release = gate.hold(2, 0);
    // Rewrites the registered path: a barrier. Nobody waits on it, so a
    // pool thread takes it and parks in the injector, in flight.
    let barrier = svc.submit(Some("ana"), &q, "/wf/reg").unwrap();
    assert_eq!(entered.recv_timeout(HANG).expect("the pool runs the barrier").id, barrier.id());
    // Disjoint from everything, a free worker, a waiting submitter — and
    // still frozen: the worker `submit` wakes asks, the waiter asks, and
    // both are told "nothing".
    let before = picks(&svc.render_metrics());
    let other = solo(&svc, "elsewhere");
    let waiter = wait_on(&other);
    asked(&svc, before, 2, "the free worker and the waiter");
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.running), (1, 1), "nothing starts behind a barrier");
    assert!(!other.is_done());
    assert!(entered.try_recv().is_err());
    release.send(None).unwrap();
    waiter.get("wait() behind a barrier").1.expect("runs once the barrier has finished");
    barrier.wait().unwrap();
    assert!(sample(&svc.render_metrics(), "service_barrier_stalls_total") >= 1.0);
}

/// The shutdown term of the wake-up rule. A worker that finds the queue
/// empty during shutdown stays while anything is in flight; when that
/// last entry is a waiter's, its completion is the only event left that
/// can release the worker `shutdown` is joining.
#[test]
fn a_waiter_finishing_the_last_entry_releases_shutdown() {
    let (svc, gate, entered, release_pin) = busy_pool();
    // The waiter's entry: taken by its submitter (the pool is pinned)
    // and held in flight on that thread.
    let release_own = gate.hold(2, 0);
    let own = solo(&svc, "own");
    let waiter = wait_on(&own);
    assert_eq!(entered.recv_timeout(HANG).expect("the waiter takes it").id, own.id());
    // Paused, one more entry queued, the worker let go: it parks.
    svc.pause();
    let last = solo(&svc, "last");
    release_pin.send(None).unwrap();
    // Shutdown lifts the pause, so the worker running `last` proves the
    // shutdown flag is up; then it finds the queue empty, the waiter's
    // entry in flight, and parks again.
    let shutdown = start(move || svc.shutdown());
    assert_eq!(entered.recv_timeout(HANG).expect("shutdown drains the queue").id, last.id());
    last.wait().unwrap();
    assert!(shutdown.still_blocked(), "shutdown waits for what a submitter is running");
    release_own.send(None).unwrap();
    waiter.get("the waiter's own run").1.expect("completes");
    shutdown.get("shutdown(), joining a worker only that completion can wake");
}

/// A submission its submitter ran fails into a retry while every pool
/// thread is parked without a deadline: the re-enqueue must wake one to
/// arm the backoff timer, or the retry never runs.
#[test]
fn a_retry_queued_by_a_waiter_is_run_at_its_deadline() {
    let (svc, gate, entered, release_pin) = busy_pool();
    svc.driver().set_config_as(
        Some("ana"),
        ReStoreConfig {
            failure: FailurePolicy {
                on_failure: FailureDisposition::Retry,
                max_retries: 1,
                retry_backoff_base_ms: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let fail_first = gate.hold(2, 0);
    let own = solo(&svc, "flaky");
    let waiter = wait_on(&own);
    let first = entered.recv_timeout(HANG).expect("the waiter takes it");
    // The pool finishes its pinned entry, asks for more, finds nothing
    // queued and parks with no deadline to wake for.
    let before = picks(&svc.render_metrics());
    release_pin.send(None).unwrap();
    asked(&svc, before, 1, "the pool thread, done with its pinned entry");
    let stats = svc.stats();
    assert_eq!((stats.queued, stats.running, stats.completed), (0, 1, 1));
    fail_first.send(Some("injected: first attempt".into())).unwrap();
    let (thread, result) = waiter.get("wait() across a retry the pool must be woken for");
    result.expect("the retry succeeds");
    assert_eq!(first, Attempt { id: own.id(), attempt: 0, thread });
    let retry = entered.recv_timeout(HANG).unwrap();
    assert_eq!((retry.id, retry.attempt), (own.id(), 1));
    assert_ne!(retry.thread, thread, "the parked submitter does not poll; the pool runs retries");
    assert_eq!(sample(&svc.render_metrics(), "restore_retries_total"), 1.0);
}

/// Two threads waiting on one handle: one of them runs it, the other
/// parks, both get the result, and it ran once.
#[test]
fn two_waiters_on_one_handle_share_one_run() {
    let (svc, gate, entered, release_pin) = busy_pool();
    let release = gate.hold(2, 0);
    let h = solo(&svc, "shared");
    let first = wait_on(&h);
    let ran = entered.recv_timeout(HANG).expect("one waiter takes it");
    // The second asks too, is told "nothing" — the entry is in flight —
    // and parks on the ticket.
    let before = picks(&svc.render_metrics());
    let second = wait_on(&h);
    asked(&svc, before, 1, "the second waiter");
    assert_eq!(svc.stats().running, 2);
    assert_eq!(dispatched(&svc), (1.0, 1.0));
    release.send(None).unwrap();
    let (first_thread, e1) = first.get("the waiter that runs it");
    let (second_thread, e2) = second.get("the waiter that parks");
    assert_eq!(ran, Attempt { id: h.id(), attempt: 0, thread: first_thread });
    assert_ne!(first_thread, second_thread);
    assert_eq!(e1.unwrap().tick, e2.unwrap().tick);
    release_pin.send(None).unwrap();
    svc.drain();
    assert_eq!(entered.try_iter().count(), 0, "no second attempt");
    assert_eq!(sample(&svc.render_metrics(), "service_dispatch_total{by=\"waiter\"}"), 1.0);
    assert_eq!(svc.stats().completed, 2);
}

/// `drain` and `restore_incremental` park on the idle signal; when the
/// last entry in flight is one a submitter is running, its completion is
/// what wakes them — and dispatch resumes after the restore.
#[test]
fn drain_and_restore_return_when_the_last_entry_was_a_waiters() {
    let (svc, gate, entered, release_pin) = busy_pool();
    let svc = Arc::new(svc);
    // The state before anything has run: the pinned submission is held
    // in the injector, before its driver pass.
    let set = CheckpointSet { base: svc.driver().save_state(), segments: Vec::new() };
    let release = gate.hold(2, 0);
    // Not the pinned query's text, so it executes and registers its
    // output instead of being answered from the repository.
    let h = Arc::new(svc.submit(Some("ana"), &queries::l8("/out/mine"), "/wf/mine").unwrap());
    let waiter = wait_on(&h);
    assert_eq!(entered.recv_timeout(HANG).expect("the waiter takes it").id, h.id());
    release_pin.send(None).unwrap();
    let drain = start({
        let svc = svc.clone();
        move || svc.drain()
    });
    let restore = start({
        let svc = svc.clone();
        move || svc.restore_incremental(&set)
    });
    assert!(drain.still_blocked() && restore.still_blocked(), "both wait for the entry in flight");
    release.send(None).unwrap();
    waiter.get("the waiter's own run").1.expect("completes");
    drain.get("drain(), which only that completion can wake");
    restore.get("restore_incremental(), which only that completion can wake").expect("restores");
    assert!(
        !svc.driver().save_state().contains("/out/mine"),
        "the restore replaced the state the waiter's run left, not the reverse"
    );
    solo(&svc, "after").wait().expect("dispatch resumed after the restore");
}
