//! Cross-crate integration tests: the full stack (parser → compiler →
//! ReStore → engine → DFS) under multi-query workloads.

use restore_suite::common::{codec, tuple, Tuple};
use restore_suite::core::{Heuristic, ReStore, ReStoreConfig, Repository};
use restore_suite::dfs::DfsConfig;
use restore_suite::mapreduce::{Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_testkit::{engine_over, lines_of, read_lines_sorted, small_dfs, Oracle};

fn pigmix_engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 6, block_size: 4 << 10, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), 1234).unwrap();
    engine_over(dfs, Some(EngineConfig { worker_threads: 4, default_reduce_tasks: 4 }))
}

fn workload(out: &str) -> Vec<String> {
    queries::standard_workload(out).into_iter().map(|(_, q)| q).collect()
}

/// Every PigMix query must produce the no-reuse answer under every
/// ReStore configuration, warm or cold.
#[test]
fn pigmix_results_invariant_under_reuse() {
    for heuristic in [Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic] {
        let rs = ReStore::new(pigmix_engine(), ReStoreConfig { heuristic, ..Default::default() });
        // Run the whole workload twice: cold (generating) and warm
        // (reusing).
        for round in 0..2 {
            if let Err(e) = Oracle::check(&rs, &workload(&format!("/out/r{round}"))) {
                panic!("{heuristic:?} round {round}: {e}");
            }
        }
    }
}

/// Queries submitted at different times share sub-plans; chains of reuse
/// must compose (Q1's sub-job feeds Q2, whose output feeds Q3's match).
#[test]
fn chained_reuse_across_three_queries() {
    let rs = ReStore::new(pigmix_engine(), ReStoreConfig::default());

    // Q2 extends the L2 join with a group — its first job should be
    // answered by L2's stored output (whole-job or join sub-job). Q3
    // repeats Q2 — everything should come from the repository.
    let q2 = |out: &str| {
        format!(
            "A = load '/data/page_views' as (user, action:int, timestamp:int, est_revenue:double, page_info, page_links);
             B = foreach A generate user, est_revenue;
             alpha = load '/data/power_users' as (name, phone, address, city);
             beta = foreach alpha generate name;
             C = join beta by name, B by user;
             D = group C by $0;
             E = foreach D generate group, COUNT(C);
             store E into '{out}';"
        )
    };
    let runs = Oracle::check(&rs, &[queries::l2("/out/c1"), q2("/out/c2"), q2("/out/c3")]).unwrap();
    assert!(!runs[1].rewrites.is_empty(), "Q2 must reuse Q1's join: {:?}", runs[1].rewrites);
    assert!(runs[2].jobs_skipped >= 1, "Q3 should skip at least the join job");
}

/// The repository survives a save/load cycle mid-workload and the
/// reloaded instance still rewrites queries.
#[test]
fn repository_persistence_mid_workload() {
    let engine = pigmix_engine();
    let rs = ReStore::new(engine.clone(), ReStoreConfig::default());
    rs.execute_query(&queries::l3("/out/p1"), "/wf/p1").unwrap();
    let saved = rs.repository_as(None).save();
    let entries_before = rs.repository_as(None).len();

    // "New session": same DFS, fresh driver, reloaded repository.
    let rs2 = ReStore::new(engine, ReStoreConfig::default());
    rs2.with_repository_mut_as(None, |repo| repo.adopt(Repository::load(&saved).unwrap()));
    assert_eq!(rs2.repository_as(None).len(), entries_before);

    // The fresh driver has no provenance, but repository matching works
    // on base-level plans directly, and L3's first job loads only base
    // data, so the whole-job match still fires.
    let runs = Oracle::check(&rs2, &[queries::l3("/out/p2")]).unwrap();
    assert!(!runs[0].rewrites.is_empty(), "reloaded repository must still produce rewrites");
}

/// Full session persistence: repository + provenance + counters survive,
/// so a resumed session behaves identically to the uninterrupted one —
/// including lineage-based matching through stored sub-job paths.
#[test]
fn full_session_state_round_trips() {
    let engine = pigmix_engine();
    let rs = ReStore::new(engine.clone(), ReStoreConfig::default());
    rs.execute_query(&queries::l2("/out/f1"), "/wf/f1").unwrap();
    rs.execute_query(&queries::l3("/out/f2"), "/wf/f2").unwrap();
    let state = rs.save_state();

    // Continue in the original session as the reference.
    let ref_exec = Oracle::check(&rs, &[queries::l7("/out/f3a")]).unwrap().remove(0);

    // Resume from the snapshot in a "new process".
    let resumed = ReStore::new(engine, ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert!(!resumed.repository_as(None).is_empty());
    assert!(resumed.repository_as(None).len() <= rs.repository_as(None).len());
    let res_exec = Oracle::check(&resumed, &[queries::l7("/out/f3b")]).unwrap().remove(0);

    // Both sessions rewrite the same way, and both answer as no reuse
    // does.
    assert_eq!(res_exec.rewrites.len(), ref_exec.rewrites.len());
    // Candidate counters resumed: no path collisions with pre-snapshot
    // sub-job files (paths under /restore are all distinct).
    let paths = resumed.engine().dfs().list("/restore/");
    let mut dedup = paths.clone();
    dedup.dedup();
    assert_eq!(paths, dedup);
}

/// Workflow-shape invariants across the whole PigMix workload: modeled
/// times and Equation (1) totals are consistent.
#[test]
fn modeled_times_are_consistent() {
    let engine = pigmix_engine();
    let rs = ReStore::new(engine, ReStoreConfig::baseline());
    for (label, q) in queries::standard_workload("/out/t") {
        let e = rs.execute_query(&q, &format!("/wf/t-{label}")).unwrap();
        // Equation (1): total is at least the largest single job and at
        // most the sum of all jobs.
        let max_job = e.job_results.iter().map(|r| r.times.total_s).fold(0.0f64, f64::max);
        let sum_jobs: f64 = e.job_results.iter().map(|r| r.times.total_s).sum();
        assert!(e.total_s >= max_job - 1e-9, "{label}");
        assert!(e.total_s <= sum_jobs + 1e-9, "{label}");
        for r in &e.job_results {
            assert!(r.times.total_s > 0.0, "{label}/{}", r.job_name);
            assert!(r.counters.map_tasks > 0, "{label}/{}", r.job_name);
        }
    }
}

/// DFS-level bookkeeping: ReStore's stored artifacts live under its
/// repo prefix; the baseline leaves no temporaries behind.
#[test]
fn storage_accounting() {
    let engine = pigmix_engine();
    let before = engine.dfs().bytes_under("/restore/");
    let rs = ReStore::new(engine, ReStoreConfig::default());
    let e = rs.execute_query(&queries::l3("/out/s1"), "/wf/s1").unwrap();
    let after = rs.engine().dfs().bytes_under("/restore/");
    assert!(e.stored_candidate_bytes > 0);
    assert_eq!(after - before, e.stored_candidate_bytes);

    // Baseline cleans its temporaries.
    let engine2 = pigmix_engine();
    let base = ReStore::new(engine2, ReStoreConfig::baseline());
    base.execute_query(&queries::l3("/out/s2"), "/wf/s2base").unwrap();
    assert!(base.engine().dfs().list("/wf/s2base").is_empty());
}

/// A direct check of the tuple! data path: results computed through the
/// entire stack match a hand-rolled in-memory oracle.
#[test]
fn full_stack_matches_oracle() {
    let rows: Vec<Tuple> = (0..200)
        .map(|i| tuple![format!("k{}", i % 13), i as i64, ((i * 7) % 100) as f64])
        .collect();
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 3, block_size: 256, replication: 1, node_capacity: None }),
        &[("/d", &codec::encode_all(&rows))],
    );
    let engine =
        engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }));
    let rs = ReStore::new(engine, ReStoreConfig::default());
    let e = rs
        .execute_query(
            "A = load '/d' as (k, n:int, v:double);
             B = filter A by n % 2 == 0;
             G = group B by k;
             R = foreach G generate group, COUNT(B), SUM(B.v);
             store R into '/out/oracle';",
            "/wf/oracle",
        )
        .unwrap();
    let got = read_lines_sorted(rs.engine().dfs(), &e.final_output);

    use std::collections::BTreeMap;
    let mut oracle: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for t in rows.iter().filter(|t| t.get(1).as_i64().unwrap() % 2 == 0) {
        let e = oracle.entry(t.get(0).as_str().unwrap().into()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += t.get(2).as_f64().unwrap();
    }
    let want: Vec<Tuple> = oracle.into_iter().map(|(k, (c, s))| tuple![k, c, s]).collect();
    assert_eq!(got, lines_of(&want));
}
