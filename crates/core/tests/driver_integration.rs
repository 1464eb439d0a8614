//! End-to-end tests of the ReStore driver: the paper's Q1/Q2 scenario
//! (Figures 2–6) executed on the full stack — parser → logical →
//! physical → MR compiler → ReStore match/rewrite/enumerate → engine →
//! DFS.

use restore_common::{codec, tuple, Tuple};
use restore_core::{Heuristic, ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None });
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 4, default_reduce_tasks: 3 },
    )
}

fn seed_data(dfs: &Dfs) {
    let pv: Vec<Tuple> = vec![
        tuple!["ann", 1, 10.0, "infoA", "linksA"],
        tuple!["bob", 2, 20.0, "infoB", "linksB"],
        tuple!["ann", 3, 5.0, "infoC", "linksC"],
        tuple!["cat", 4, 7.5, "infoD", "linksD"],
        tuple!["dan", 5, 2.5, "infoE", "linksE"],
    ];
    dfs.write_all("/data/page_views", &codec::encode_all(&pv)).unwrap();
    let users: Vec<Tuple> = vec![
        tuple!["ann", "p1", "a1", "c1"],
        tuple!["bob", "p2", "a2", "c2"],
        tuple!["cat", "p3", "a3", "c3"],
    ];
    dfs.write_all("/data/users", &codec::encode_all(&users)).unwrap();
}

fn q1(out: &str) -> String {
    format!(
        "A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
         B = foreach A generate user, est_revenue;
         alpha = load '/data/users' as (name, phone, address, city);
         beta = foreach alpha generate name;
         C = join beta by name, B by user;
         store C into '{out}';"
    )
}

fn q2(out: &str) -> String {
    format!(
        "A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
         B = foreach A generate user, est_revenue;
         alpha = load '/data/users' as (name, phone, address, city);
         beta = foreach alpha generate name;
         C = join beta by name, B by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.est_revenue);
         store E into '{out}';"
    )
}

fn read_sorted(dfs: &Dfs, path: &str) -> Vec<Tuple> {
    let mut t = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
    t.sort();
    t
}

fn q2_expected() -> Vec<Tuple> {
    vec![tuple!["ann", 15.0], tuple!["bob", 20.0], tuple!["cat", 7.5]]
}

#[test]
fn baseline_executes_and_deletes_tmp() {
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig::baseline());
    let exec = rs.execute_query(&q2("/out/q2"), "/wf/q2").unwrap();
    assert_eq!(read_sorted(rs.engine().dfs(), "/out/q2"), q2_expected());
    assert_eq!(exec.jobs_skipped, 0);
    assert!(exec.rewrites.is_empty());
    assert_eq!(exec.job_results.len(), 2); // join job + group job
    assert!(exec.total_s > 0.0);
    // Plain Pig deletes the inter-job temporary.
    assert!(rs.engine().dfs().list("/wf/q2/").is_empty());
    // And stores nothing in the repository.
    assert!(rs.repository_as(None).is_empty());
}

#[test]
fn whole_job_reuse_q1_then_q2() {
    // The paper's headline scenario (Figures 2–4): Q1's stored join
    // output answers Q2's first job entirely.
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig { heuristic: Heuristic::None, ..Default::default() });

    let e1 = rs.execute_query(&q1("/out/q1"), "/wf/a").unwrap();
    assert!(e1.rewrites.is_empty());
    assert!(!rs.repository_as(None).is_empty());

    let e2 = rs.execute_query(&q2("/out/q2"), "/wf/b").unwrap();
    // Job 1 of Q2 was eliminated; only the group job executed.
    assert_eq!(e2.jobs_skipped, 1);
    assert_eq!(e2.job_results.len(), 1);
    assert_eq!(e2.rewrites.len(), 1);
    assert!(e2.rewrites[0].whole_job);
    assert_eq!(e2.rewrites[0].reused_path, "/out/q1");
    // Results are identical to the baseline.
    assert_eq!(read_sorted(rs.engine().dfs(), "/out/q2"), q2_expected());
    // Reuse is reflected in repository statistics.
    let repo = rs.repository_as(None);
    let reused = repo.get(e2.rewrites[0].entry_id).unwrap();
    assert_eq!(reused.stats().use_count, 1);
}

#[test]
fn whole_job_reuse_speeds_up_modeled_time() {
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig { heuristic: Heuristic::None, ..Default::default() });
    let cold = rs.execute_query(&q2("/out/cold"), "/wf/cold").unwrap();
    let warm = rs.execute_query(&q2("/out/warm"), "/wf/warm").unwrap();
    // Second identical query: the whole final job matches too, so both
    // jobs are skipped (answer comes straight from the repository).
    assert_eq!(warm.jobs_skipped, 2);
    assert!(warm.total_s < cold.total_s);
    assert_eq!(warm.final_output, "/out/cold");
    assert_eq!(read_sorted(rs.engine().dfs(), &warm.final_output), q2_expected());
}

#[test]
fn subjob_reuse_between_different_queries() {
    // Q1 runs with the Aggressive heuristic, materializing its projected
    // page_views (Figure 5). A later unrelated aggregation over the same
    // projection gets rewritten to load the stored sub-job (Figure 6).
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig::default());

    let e1 = rs.execute_query(&q1("/out/q1"), "/wf/a").unwrap();
    assert!(e1.candidates_stored >= 2, "project sub-jobs stored");
    assert!(e1.stored_candidate_bytes > 0);

    // A different query using the same Load+Project prefix.
    let q3 = "A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
              B = foreach A generate user, est_revenue;
              G = group B by user;
              S = foreach G generate group, SUM(B.est_revenue);
              store S into '/out/q3';";
    let e3 = rs.execute_query(q3, "/wf/c").unwrap();
    assert!(!e3.rewrites.is_empty(), "sub-job should be reused");
    let expected =
        vec![tuple!["ann", 15.0], tuple!["bob", 20.0], tuple!["cat", 7.5], tuple!["dan", 2.5]];
    assert_eq!(read_sorted(rs.engine().dfs(), "/out/q3"), expected);

    // The rewritten job loads the small projected file, not the wide one.
    let reused_path = &e3.rewrites[0].reused_path;
    let projected_len = rs.engine().dfs().file_len(reused_path).unwrap();
    let full_len = rs.engine().dfs().file_len("/data/page_views").unwrap();
    assert!(projected_len < full_len);
}

#[test]
fn repeat_query_with_aggressive_heuristic_stores_once() {
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig::default());
    let e1 = rs.execute_query(&q2("/out/r1"), "/wf/r1").unwrap();
    let stored_first = e1.stored_candidate_bytes;
    assert!(stored_first > 0);
    let repo_after_first = rs.repository_as(None).len();

    let e2 = rs.execute_query(&q2("/out/r2"), "/wf/r2").unwrap();
    // Everything matches; no new candidate materialization cost.
    assert_eq!(e2.stored_candidate_bytes, 0);
    assert_eq!(rs.repository_as(None).len(), repo_after_first);
    assert!(e2.total_s < e1.total_s);
}

#[test]
fn reuse_correctness_matches_baseline_across_configs() {
    // Whatever the configuration, query answers must be identical.
    for heuristic in
        [Heuristic::None, Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic]
    {
        let eng = engine();
        seed_data(eng.dfs());
        let rs = ReStore::new(eng, ReStoreConfig { heuristic, ..Default::default() });
        rs.execute_query(&q1("/out/h/q1"), "/wf/h1").unwrap();
        rs.execute_query(&q2("/out/h/q2"), "/wf/h2").unwrap();
        assert_eq!(
            read_sorted(rs.engine().dfs(), "/out/h/q2"),
            q2_expected(),
            "heuristic {heuristic:?}"
        );
    }
}

#[test]
fn eviction_by_input_invalidation_disables_reuse() {
    let eng = engine();
    seed_data(eng.dfs());
    // Rule 4 holds under every policy, the default included.
    let config = ReStoreConfig { heuristic: Heuristic::None, ..Default::default() };
    let rs = ReStore::new(eng, config);

    rs.execute_query(&q1("/out/e1"), "/wf/e1").unwrap();
    assert!(!rs.repository_as(None).is_empty());

    // Overwrite page_views: every entry depending on it must go.
    let new_pv = vec![tuple!["zed", 9, 100.0, "i", "l"]];
    let mut w = rs.engine().dfs().create_overwrite("/data/page_views").unwrap();
    w.write(&codec::encode_all(&new_pv));
    w.close().unwrap();

    let e2 = rs.execute_query(&q2("/out/e2"), "/wf/e2").unwrap();
    assert_eq!(e2.rewrites.len(), 0, "stale entries must not be reused after input overwrite");
    // Fresh data produced fresh (correct) results: only ann/bob/cat are
    // users; zed is not in /data/users, so the join is empty.
    assert_eq!(read_sorted(rs.engine().dfs(), "/out/e2"), Vec::<Tuple>::new());
}

#[test]
fn modeled_times_report_overhead_of_subjob_stores() {
    // Running with injected stores must cost more (modeled) than without
    // — that is Figure 11's "overhead".
    let eng = engine();
    seed_data(eng.dfs());
    let base = ReStore::new(eng.clone(), ReStoreConfig::baseline());
    let plain = base.execute_query(&q2("/out/o1"), "/wf/o1").unwrap();

    let inst = ReStore::new(
        eng,
        ReStoreConfig {
            reuse_enabled: false,
            heuristic: Heuristic::Aggressive,
            ..Default::default()
        },
    );
    let with_stores = inst.execute_query(&q2("/out/o2"), "/wf/o2").unwrap();
    assert!(with_stores.total_s > plain.total_s);
    assert!(with_stores.stored_candidate_bytes > 0);
}

#[test]
fn multi_sink_final_output_is_last_topo_job() {
    // Two independent sinks share one wave; the higher-index job is
    // answered from the repository (skipped). `final_output` must follow
    // the strict Algorithm-1 topo order — the wave's highest-index job —
    // not whichever job happened to execute.
    let eng = engine();
    seed_data(eng.dfs());
    let rs = ReStore::new(eng, ReStoreConfig { heuristic: Heuristic::None, ..Default::default() });

    // Warm the repository with the second sink's whole job.
    let prior = "U = load '/data/users' as (name, phone, address, city);
                 G = group U by name;
                 R = foreach G generate group, COUNT(U);
                 store R into '/out/prior';";
    rs.execute_query(prior, "/wf/prior").unwrap();

    // Job 0 (page_views group) runs cold; job 1 (users group) is skipped.
    let multi = "P = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
                 GP = group P by user;
                 SP = foreach GP generate group, SUM(P.est_revenue);
                 store SP into '/out/m0';
                 U = load '/data/users' as (name, phone, address, city);
                 GU = group U by name;
                 RU = foreach GU generate group, COUNT(U);
                 store RU into '/out/m1';";
    let e = rs.execute_query(multi, "/wf/multi").unwrap();
    assert_eq!(e.jobs_skipped, 1);
    assert_eq!(e.job_results.len(), 1);
    assert_eq!(
        e.final_output, "/out/prior",
        "final_output must come from the last (skipped) job, not the executed sibling"
    );
}
