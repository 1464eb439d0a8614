//! The failure-policy engine on one page: a tenant starts flapping
//! (every submission fails via an injected fault), bounded retries burn
//! down, each exhausted submission reports its final error on its
//! ticket, and the circuit breaker trips — subsequent submissions are
//! shed with `CircuitOpen` before they reach the queue or a worker.
//! Then the outage ends: the cooldown elapses, and a half-open probe
//! closes the breaker. Last, a real engine failure: a job's input is
//! deleted between compile and run, and the failed submission leaves
//! no file behind that no record names.
//!
//! ```sh
//! cargo run --example failure_policy
//! ```
//!
//! CI smokes this example; the asserts are the contract.

use restore_suite::core::{FailureDisposition, FailurePolicy, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::datagen::USERS;
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{FaultInjector, RestoreService, ServiceConfig, ServiceError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic outage: every attempt for `tenant` fails until healed.
struct Outage {
    tenant: &'static str,
    failing: AtomicBool,
}

impl FaultInjector for Outage {
    fn inject(&self, tenant: Option<&str>, _submission: u64, attempt: u32) -> Option<String> {
        (self.failing.load(Ordering::SeqCst) && tenant == Some(self.tenant))
            .then(|| format!("injected outage (attempt {attempt})"))
    }
}

fn main() {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xFA17).expect("datagen");
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
    let service = RestoreService::new(
        ReStore::new(engine, ReStoreConfig::default()),
        ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() },
    );

    // 1. Tenant "flaky" opts into retries + a breaker;
    //    everyone else keeps the fail-fast default.
    service.driver().set_config_as(
        Some("flaky"),
        ReStoreConfig {
            failure: FailurePolicy {
                on_failure: FailureDisposition::Retry,
                max_retries: 1,
                retry_backoff_base_ms: 5,
                failure_window: 8,
                failure_threshold: 3,
                breaker_cooldown_ms: 200,
                breaker_half_open_probes: 1,
                breaker_success_threshold: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let outage = Arc::new(Outage { tenant: "flaky", failing: AtomicBool::new(true) });
    service.set_fault_injector(Some(outage.clone()));

    // 2. The outage: submissions fail, retry once, and the final error
    //    reaches the waiter.
    println!("-- outage: every submission for \"flaky\" fails --");
    for round in 0..2 {
        let q = queries::l3(&format!("/out/flaky/r{round}"));
        let err = service
            .submit(Some("flaky"), &q, &format!("/wf/flaky/r{round}"))
            .expect("admitted")
            .wait()
            .expect_err("the injected fault surfaces");
        println!("   submission {round}: {err}");
    }
    assert!(
        service.render_metrics().contains("restore_retries_total 2"),
        "initial attempt + one retry each"
    );

    // 3. Four failed attempts crossed the threshold: the breaker is
    //    open and submissions are shed before queueing.
    match service.submit(Some("flaky"), &queries::l3("/out/flaky/shed"), "/wf/flaky/shed") {
        Err(ServiceError::CircuitOpen { tenant }) => {
            println!("-- breaker open: tenant {tenant:?} shed with CircuitOpen --");
        }
        other => panic!("expected CircuitOpen, got {other:?}"),
    }
    // A healthy tenant is untouched by its neighbour's outage.
    service
        .submit(Some("steady"), &queries::l7("/out/steady/r0"), "/wf/steady/r0")
        .expect("admitted")
        .wait()
        .expect("healthy tenant executes normally");
    println!("-- healthy tenant \"steady\" served during the outage --");

    // 4. The outage ends; after the cooldown the next submission is a
    //    half-open probe whose success closes the breaker.
    outage.failing.store(false, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(250));
    service
        .submit(Some("flaky"), &queries::l3("/out/flaky/probe"), "/wf/flaky/probe")
        .expect("admitted as the half-open probe")
        .wait()
        .expect("probe succeeds");
    println!("-- cooldown elapsed: half-open probe succeeded, breaker closed --");

    // 5. A real engine failure, not an injected one: of a wave's two
    //    jobs, one loses its input between compile and run. The healthy
    //    job is committed and registered, the failed one leaves nothing,
    //    and the submission reports the lost input.
    println!("-- engine failure: an input deleted after compile --");
    let dfs = service.driver().engine().dfs();
    dfs.write_all("/data/users_copy", &dfs.read_all(USERS).expect("users")).expect("copy");
    let by_city = |input: &str, out: &str| {
        format!(
            "U = load '{input}' as (name, phone, address, city);
             G = group U by city;
             C = foreach G generate group, COUNT(U);
             store C into '{out}';"
        )
    };
    let (kept, lost) = ("/out/lossy/cities", "/out/lossy/copy");
    let q = format!("{}\n{}", by_city(USERS, kept), by_city("/data/users_copy", lost));
    let wf = service.driver().compile_as(Some("lossy"), &q, "/wf/lossy").expect("compiles");
    dfs.delete("/data/users_copy");
    let err = service
        .submit_workflow(Some("lossy"), wf)
        .expect("admitted")
        .wait()
        .expect_err("the lost input fails its job");
    println!("   submission: {err}");
    let repo = service.driver().repository_as(Some("lossy"));
    let mut files = dfs.list("/restore/lossy/");
    files.extend(dfs.list("/wf/lossy/"));
    files.extend([kept, lost].into_iter().filter(|p| dfs.exists(p)).map(String::from));
    let unnamed: Vec<&String> = files.iter().filter(|p| repo.file(p).is_none()).collect();
    assert!(dfs.exists(kept) && !dfs.exists(lost), "the healthy job committed, the failed one not");
    println!("   files left: {files:?}");
    println!("a failed submission leaves no unnamed file: {}", unnamed.is_empty());
    assert!(unnamed.is_empty(), "files without a record: {unnamed:?}");

    // 6. The whole episode is on the metrics surface.
    let metrics = service.render_metrics();
    for family in ["restore_retries_total", "restore_circuit_shed_total", "restore_circuit_state"] {
        let line = metrics.lines().find(|l| l.starts_with(family)).expect("family present");
        println!("   {line}");
    }
    service.shutdown();
    println!("-- done --");
}
