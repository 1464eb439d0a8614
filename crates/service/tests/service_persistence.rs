//! Durable multi-tenant serving: crash-restart parity, snapshots under
//! load, a restore racing submissions, and per-tenant policy submission
//! through the service.

use restore_core::{Heuristic, ReStore, ReStoreConfig, ReStoreStats, SelectionPolicy};
use restore_dfs::Dfs;
use restore_mapreduce::EngineConfig;
use restore_service::{CheckpointConfig, CheckpointSet, RestoreService, ServiceConfig};
use restore_testkit::{check_repository, engine_over, pv_users, session_over};
use std::sync::Arc;
use std::time::Duration;

const TENANTS: [&str; 4] = ["ana", "bo", "cy", "dee"];

fn service_over(dfs: Dfs, config: ReStoreConfig) -> RestoreService {
    let engine =
        engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 2 }));
    RestoreService::new(
        ReStore::new(engine, config),
        ServiceConfig { workers: 4, queue_depth: 256, ..Default::default() },
    )
}

/// Each tenant runs its own query shape; `round` varies only the output
/// location, so reruns are answerable from the tenant's repository.
fn tenant_query(tenant: &str, round: usize) -> (String, String) {
    let out = format!("/out/{tenant}/r{round}");
    let q = match tenant {
        "ana" => format!(
            "A = load '/data/pv' as (user, n:int);
             G = group A by user;
             R = foreach G generate group, SUM(A.n);
             store R into '{out}';"
        ),
        "bo" => format!(
            "A = load '/data/pv' as (user, revenue:int);
             B = load '/data/users' as (name, city);
             C = join B by name, A by user;
             D = group C by $0;
             E = foreach D generate group, SUM(C.revenue);
             store E into '{out}';"
        ),
        "cy" => format!(
            "A = load '/data/pv' as (user, n:int);
             B = filter A by n > 2;
             G = group B by user;
             R = foreach G generate group, COUNT(B);
             store R into '{out}';"
        ),
        _ => format!(
            "A = load '/data/users' as (name, city);
             P = foreach A generate city;
             D = distinct P;
             store D into '{out}';"
        ),
    };
    (q, format!("/wf/{tenant}/r{round}"))
}

/// Observable outcome of one tenant's submission.
#[derive(Debug, PartialEq)]
struct Outcome {
    tenant: String,
    jobs_skipped: usize,
    rewrites: usize,
    output: Vec<u8>,
}

fn submit_round(svc: &RestoreService, round: usize) -> Vec<Outcome> {
    let handles: Vec<_> = TENANTS
        .iter()
        .map(|t| {
            let (q, wf) = tenant_query(t, round);
            (t.to_string(), svc.submit(Some(t), &q, &wf).expect("admitted"))
        })
        .collect();
    handles
        .into_iter()
        .map(|(tenant, h)| {
            let e = h.wait().expect("workflow completes");
            let output = svc.driver().engine().dfs().read_all(&e.final_output).unwrap();
            Outcome { tenant, jobs_skipped: e.jobs_skipped, rewrites: e.rewrites.len(), output }
        })
        .collect()
}

fn install_overrides(svc: &RestoreService) {
    // ana materializes conservatively; dee registers nothing final.
    svc.driver().set_config_as(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    svc.driver().set_config_as(
        Some("dee"),
        ReStoreConfig { heuristic: Heuristic::None, ..Default::default() },
    );
}

/// Run the mixed 4-tenant workload: round 1 cold, then — with or
/// without a simulated process restart in between — round 2 warm.
/// Returns the round-2 outcomes, the per-tenant repository statistics,
/// and each tenant's effective config.
fn run_scenario(restart: bool) -> (Vec<Outcome>, Vec<ReStoreStats>, Vec<ReStoreConfig>) {
    let dfs = pv_users();
    let svc = service_over(dfs.clone(), ReStoreConfig::default());
    install_overrides(&svc);
    submit_round(&svc, 1);

    let svc = if restart {
        // Simulated crash/restart: checkpoint, tear the whole process
        // state down, and bring up a fresh service over the surviving
        // DFS from the checkpoint alone.
        svc.checkpoint_begin(CheckpointConfig::default());
        let set = svc.checkpoint_set().expect("checkpointing");
        let before = svc.driver().save_state();
        svc.shutdown();
        let svc2 = service_over(dfs.clone(), ReStoreConfig::default());
        svc2.restore_incremental(&set).expect("checkpoint restores");
        assert_eq!(svc2.driver().save_state(), before, "restored state is byte-identical");
        svc2
    } else {
        svc
    };

    let outcomes = submit_round(&svc, 2);
    let stats = TENANTS.iter().map(|t| svc.driver().stats_as(Some(t))).collect();
    let configs = TENANTS.iter().map(|t| svc.driver().config_as(Some(t))).collect();
    svc.shutdown();
    (outcomes, stats, configs)
}

/// The crash-restart suite's core claim: a service rebuilt from a
/// checkpoint serves round 2 exactly as the uninterrupted service would
/// have — same per-tenant warm-hit statistics, same output bytes, same
/// repository state, same effective policies.
#[test]
fn crash_restart_matches_uninterrupted_run() {
    let (u_out, u_stats, u_cfg) = run_scenario(false);
    let (r_out, r_stats, r_cfg) = run_scenario(true);

    assert_eq!(u_out, r_out, "per-tenant warm hits and output bytes must match");
    assert_eq!(u_stats, r_stats, "per-tenant repository statistics must match");
    assert_eq!(u_cfg, r_cfg, "per-tenant policies must survive the restart");

    // And the parity is not vacuous: round 2 really is warm.
    for o in &u_out {
        assert!(
            o.jobs_skipped > 0 || o.rewrites > 0,
            "tenant {} should be served from its restored repository: {o:?}",
            o.tenant
        );
    }
}

/// `save_state` raced against strict-eviction sweeps and in-flight
/// workflows: every snapshot loads cleanly, and a quiesced snapshot
/// never references a path that does not exist in the DFS.
#[test]
fn snapshot_under_load_never_serializes_dead_paths() {
    let dfs = pv_users();
    // Aggressive retention: anything unused for 2 ticks is evicted (and
    // its file deleted — deferred when pinned by an in-flight workflow).
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(2), ..Default::default() },
        ..Default::default()
    };
    let svc = Arc::new(service_over(dfs.clone(), config));

    let mut handles = Vec::new();
    for wave in 0..6 {
        for t in &TENANTS {
            let (q, wf) = tenant_query(t, 100 + wave);
            handles.push(svc.submit(Some(t), &q, &wf).expect("admitted"));
        }

        // Snapshot while workflows are in flight: must always load
        // cleanly into a fresh session, whatever the race.
        let live = svc.driver().save_state();
        let scratch = session_over(&dfs, ReStoreConfig::default());
        scratch.recover(&live, &[]).unwrap_or_else(|e| {
            panic!("snapshot taken under load must stay loadable: {e}\n{live}")
        });

        // Quiesced snapshot: with dispatch paused and nothing running,
        // nothing mutates the DFS, so the existence check is race-free.
        svc.pause();
        while svc.stats().running > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = svc.driver().save_state();
        assert_all_paths_live(&snap, &dfs);
        svc.resume();
    }
    for h in handles {
        h.wait().expect("workflow completes despite snapshots and sweeps");
    }
    svc.drain();
    assert_all_paths_live(&svc.driver().save_state(), &dfs);
}

/// Load `snap` into a scratch session and assert every repository and
/// provenance path in every namespace has a file behind it.
fn assert_all_paths_live(snap: &str, dfs: &Dfs) {
    let scratch = session_over(dfs, ReStoreConfig::default());
    scratch.recover(snap, &[]).expect("snapshot loads");
    if let Err(e) = check_repository(&scratch) {
        panic!("snapshot serialized a dangling repository path: {e}");
    }
    let mut namespaces: Vec<Option<String>> = vec![None];
    namespaces.extend(scratch.tenant_ids().into_iter().map(Some));
    for ns in namespaces {
        let t = ns.as_deref();
        scratch.with_provenance_as(t, |prov| {
            for p in prov.iter_paths() {
                assert!(
                    dfs.exists(p),
                    "snapshot serialized dangling provenance path {p} (tenant {t:?})"
                );
            }
        });
    }
}

/// Submissions arriving while a restore quiesces the pool are queued —
/// not rejected — and execute once dispatch resumes.
#[test]
fn restore_incremental_queues_concurrent_submissions() {
    let dfs = pv_users();
    let svc = Arc::new(service_over(dfs, ReStoreConfig::default()));
    let (q, wf) = tenant_query("ana", 1);
    svc.submit(Some("ana"), &q, &wf).unwrap().wait().unwrap();
    let set = CheckpointSet { base: svc.driver().save_state(), segments: Vec::new() };

    // A restoring thread and a submitting thread race.
    let report = std::thread::scope(|s| {
        let svc2 = svc.clone();
        let restorer = s.spawn(move || svc2.restore_incremental(&set));
        let (q2, wf2) = tenant_query("ana", 2);
        let h = svc.submit(Some("ana"), &q2, &wf2).expect("queued, not rejected");
        let e = h.wait().expect("completes after the restore resumes dispatch");
        assert_eq!(e.jobs_skipped, 1, "warm hit straddling a restore");
        restorer.join().expect("restore thread")
    });
    assert!(report.expect("the base restores").torn_tail.is_none());
}

/// The service's per-tenant config APIs change behaviour for that
/// tenant only, and overrides ride along in checkpoints.
#[test]
fn per_tenant_policy_submission_via_service() {
    let dfs = pv_users();
    let svc = service_over(dfs.clone(), ReStoreConfig::default());
    let frugal = ReStoreConfig {
        heuristic: Heuristic::None,
        register_final_outputs: false,
        ..Default::default()
    };
    svc.driver().set_config_as(Some("frugal"), frugal.clone());
    assert_eq!(svc.driver().config_as(Some("frugal")), frugal);
    assert_eq!(svc.driver().config_as(Some("ana")), svc.driver().config_as(None));

    let (q, _) = tenant_query("ana", 1);
    svc.submit(Some("frugal"), &q, "/wf/f1").unwrap().wait().unwrap();
    svc.submit(Some("ana"), &q, "/wf/a1").unwrap().wait().unwrap();
    assert_eq!(
        svc.driver().stats_as(Some("frugal")).repository_entries,
        0,
        "frugal's policy stores nothing"
    );
    assert!(svc.driver().stats_as(Some("ana")).repository_entries > 0);

    // The override is part of the durable state.
    svc.checkpoint_begin(CheckpointConfig::default());
    let set = svc.checkpoint_set().expect("checkpointing");
    svc.shutdown();
    let svc2 = service_over(dfs, ReStoreConfig::default());
    svc2.restore_incremental(&set).unwrap();
    assert_eq!(svc2.driver().config_as(Some("frugal")), frugal);
    svc2.shutdown();
}
