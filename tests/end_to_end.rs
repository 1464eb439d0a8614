//! Cross-crate integration tests: the full stack (parser → compiler →
//! ReStore → engine → DFS) under multi-query workloads.

use restore_suite::common::{codec, tuple, Tuple};
use restore_suite::core::{Heuristic, ReStore, ReStoreConfig, Repository};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};

fn pigmix_engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 6, block_size: 4 << 10, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 1234).unwrap();
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 4, default_reduce_tasks: 4 },
    )
}

fn read_sorted(dfs: &Dfs, path: &str) -> Vec<Tuple> {
    let mut rows = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
    rows.sort();
    rows
}

/// Every PigMix query must produce byte-identical (sorted) results under
/// every ReStore configuration, warm or cold.
#[test]
fn pigmix_results_invariant_under_reuse() {
    // Golden results from the plain baseline.
    let golden: Vec<(String, Vec<Tuple>)> = {
        let engine = pigmix_engine();
        let rs = ReStore::new(engine, ReStoreConfig::baseline());
        queries::standard_workload("/out/golden")
            .into_iter()
            .map(|(label, q)| {
                let e = rs.execute_query(&q, &format!("/wf/g-{label}")).unwrap();
                (label, read_sorted(rs.engine().dfs(), &e.final_output))
            })
            .collect()
    };

    for heuristic in [Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic] {
        let engine = pigmix_engine();
        let rs = ReStore::new(engine, ReStoreConfig { heuristic, ..Default::default() });
        // Run the whole workload twice: cold (generating) and warm
        // (reusing). Both must match the golden answers.
        for round in 0..2 {
            for (i, (label, q)) in
                queries::standard_workload(&format!("/out/r{round}")).into_iter().enumerate()
            {
                let e =
                    rs.execute_query(&q, &format!("/wf/{heuristic:?}-{round}-{label}")).unwrap();
                let got = read_sorted(rs.engine().dfs(), &e.final_output);
                assert_eq!(got, golden[i].1, "{label} differs under {heuristic:?} round {round}");
            }
        }
    }
}

/// Queries submitted at different times share sub-plans; chains of reuse
/// must compose (Q1's sub-job feeds Q2, whose output feeds Q3's match).
#[test]
fn chained_reuse_across_three_queries() {
    let engine = pigmix_engine();
    let rs = ReStore::new(engine, ReStoreConfig::default());

    let q1 = queries::l2("/out/c1");
    rs.execute_query(&q1, "/wf/c1").unwrap();

    // Q2 extends the L2 join with a group — its first job should be
    // answered by L2's stored output (whole-job or join sub-job).
    let q2 = "
        A = load '/data/page_views' as (user, action:int, timestamp:int, est_revenue:double, page_info, page_links);
        B = foreach A generate user, est_revenue;
        alpha = load '/data/power_users' as (name, phone, address, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        D = group C by $0;
        E = foreach D generate group, COUNT(C);
        store E into '/out/c2';
    ";
    let e2 = rs.execute_query(q2, "/wf/c2").unwrap();
    assert!(!e2.rewrites.is_empty(), "Q2 must reuse Q1's join: {:?}", e2.rewrites);

    // Q3 repeats Q2 — everything should come from the repository.
    let e3 = rs.execute_query(q2, "/wf/c3").unwrap();
    assert!(e3.jobs_skipped >= 1, "Q3 should skip at least the join job");
    assert_eq!(
        read_sorted(rs.engine().dfs(), &e3.final_output),
        read_sorted(rs.engine().dfs(), "/out/c2"),
    );
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
    let e = rs2.execute_query(&queries::l3("/out/p2"), "/wf/p2").unwrap();
    assert!(!e.rewrites.is_empty(), "reloaded repository must still produce rewrites");
    assert_eq!(
        read_sorted(rs2.engine().dfs(), &e.final_output),
        read_sorted(rs2.engine().dfs(), "/out/p1"),
    );
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
    let ref_exec = rs.execute_query(&queries::l7("/out/f3a"), "/wf/f3a").unwrap();

    // Resume from the snapshot in a "new process".
    let resumed = ReStore::new(engine, ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert!(!resumed.repository_as(None).is_empty());
    assert!(resumed.repository_as(None).len() <= rs.repository_as(None).len());
    let res_exec = resumed.execute_query(&queries::l7("/out/f3b"), "/wf/f3b").unwrap();

    // Both sessions rewrite the same way and produce the same rows.
    assert_eq!(res_exec.rewrites.len(), ref_exec.rewrites.len());
    assert_eq!(
        read_sorted(resumed.engine().dfs(), &res_exec.final_output),
        read_sorted(rs.engine().dfs(), &ref_exec.final_output),
    );
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
    let dfs =
        Dfs::new(DfsConfig { nodes: 3, block_size: 256, replication: 1, node_capacity: None });
    let rows: Vec<Tuple> = (0..200)
        .map(|i| tuple![format!("k{}", i % 13), i as i64, ((i * 7) % 100) as f64])
        .collect();
    dfs.write_all("/d", &codec::encode_all(&rows)).unwrap();
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
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
    let got = read_sorted(rs.engine().dfs(), &e.final_output);

    use std::collections::BTreeMap;
    let mut oracle: BTreeMap<String, (i64, f64)> = BTreeMap::new();
    for t in rows.iter().filter(|t| t.get(1).as_i64().unwrap() % 2 == 0) {
        let e = oracle.entry(t.get(0).as_str().unwrap().into()).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += t.get(2).as_f64().unwrap();
    }
    let want: Vec<Tuple> = oracle.into_iter().map(|(k, (c, s))| tuple![k, c, s]).collect();
    assert_eq!(got, want);
}
