//! Driver behaviour across the configuration matrix: strict selection,
//! eviction windows, and final-output registration.

use restore_common::{codec, tuple, Tuple};
use restore_core::{Heuristic, ReStore, ReStoreConfig, SelectionPolicy};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None });
    let rows: Vec<Tuple> = (0..300)
        .map(|i| {
            tuple![
                format!("u{}", i % 11),
                i as i64,
                (i % 97) as f64,
                "padding-padding-padding-padding"
            ]
        })
        .collect();
    dfs.write_all("/data/events", &codec::encode_all(&rows)).unwrap();
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 4, default_reduce_tasks: 3 },
    )
}

const Q: &str = "
    A = load '/data/events' as (u, n:int, v:double, pad);
    B = foreach A generate u, v;
    G = group B by u;
    R = foreach G generate group, SUM(B.v);
    store R into '/out/q';
";

fn read_sorted(dfs: &Dfs, path: &str) -> Vec<Tuple> {
    let mut t = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
    t.sort();
    t
}

/// Strict §5 admission keeps the repository smaller without changing
/// answers.
#[test]
fn strict_selection_prunes_but_preserves_answers() {
    let eng_all = engine();
    let all = ReStore::new(eng_all, ReStoreConfig::default());
    let a1 = all.execute_query(Q, "/wf/a1").unwrap();
    let baseline = read_sorted(all.engine().dfs(), &a1.final_output);
    let repo_all = all.repository_as(None).len();

    let eng_strict = engine();
    let config = ReStoreConfig {
        selection: SelectionPolicy {
            require_size_reduction: true,
            require_time_benefit: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let strict = ReStore::new(eng_strict, config);
    let s1 = strict.execute_query(Q, "/wf/s1").unwrap();
    assert_eq!(read_sorted(strict.engine().dfs(), &s1.final_output), baseline);
    assert!(
        strict.repository_as(None).len() <= repo_all,
        "strict admission must not grow the repository beyond store-all"
    );
    // Rejected candidates' files were deleted from the DFS.
    for path in strict.engine().dfs().list("/restore/") {
        assert!(
            strict.repository_as(None).entries().iter().any(|e| e.output_path == path),
            "orphan candidate file {path} left behind"
        );
    }
    // A rerun still produces correct answers (whatever was kept is used).
    let s2 = strict.execute_query(Q, "/wf/s2").unwrap();
    assert_eq!(read_sorted(strict.engine().dfs(), &s2.final_output), baseline);
}

/// With `register_final_outputs` off (the paper's experiment semantics),
/// a repeated single-job query re-executes its final job but still reuses
/// sub-jobs.
#[test]
fn paper_mode_reexecutes_final_job() {
    let eng = engine();
    let rs =
        ReStore::new(eng, ReStoreConfig { register_final_outputs: false, ..Default::default() });
    let e1 = rs.execute_query(Q, "/wf/p1").unwrap();
    let e2 = rs.execute_query(Q, "/wf/p2").unwrap();
    // The group job is the final job of this 1-job workflow: it must run
    // (not be skipped), but its input is the reused sub-job output.
    assert_eq!(e2.jobs_skipped, 0);
    assert!(!e2.rewrites.is_empty());
    assert!(!e2.job_results.is_empty());
    assert!(e2.total_s < e1.total_s);
    // Default mode would answer from the repository entirely.
    let eng2 = engine();
    let rs2 = ReStore::new(eng2, ReStoreConfig::default());
    rs2.execute_query(Q, "/wf/d1").unwrap();
    let d2 = rs2.execute_query(Q, "/wf/d2").unwrap();
    assert_eq!(d2.jobs_skipped, 1);
    assert!(d2.job_results.is_empty());
}

/// An eviction window during a workload: entries idle past the window
/// disappear, and matching afterwards re-materializes rather than
/// referencing deleted files.
#[test]
fn eviction_window_mid_workload() {
    let eng = engine();
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(2), ..Default::default() },
        ..Default::default()
    };
    let rs = ReStore::new(eng, config);

    rs.execute_query(Q, "/wf/w0").unwrap();
    let initial = rs.repository_as(None).len();
    assert!(initial > 0);

    // Unrelated queries age the repository past the window.
    for i in 0..4 {
        let unrelated = format!(
            "A = load '/data/events' as (u, n:int, v:double, pad);
             B = filter A by n == {i};
             store B into '/out/w{i}';"
        );
        rs.execute_query(&unrelated, &format!("/wf/wu{i}")).unwrap();
    }
    // The Q entries are gone (idle), and their DFS files with them.
    let repo = rs.repository_as(None);
    let still_q: Vec<_> = repo.entries().iter().filter(|e| e.stats().created == 1).collect();
    assert!(still_q.is_empty(), "tick-1 entries must be evicted: {still_q:?}");
    drop(repo);

    // Running Q again works from scratch and produces correct results.
    let e = rs.execute_query(Q, "/wf/wq").unwrap();
    assert!(rs.engine().dfs().exists(&e.final_output));
}

/// Conservative vs Aggressive on a join query: HA additionally registers
/// the join itself, so a later group-over-join query is answered with
/// less work under HA.
#[test]
fn ha_covers_more_than_hc() {
    let q_join = "
        A = load '/data/events' as (u, n:int, v:double, pad);
        B = foreach A generate u, v;
        C = foreach A generate u, n;
        J = join B by u, C by u;
        store J into '/out/join';
    ";
    let q_follow = "
        A = load '/data/events' as (u, n:int, v:double, pad);
        B = foreach A generate u, v;
        C = foreach A generate u, n;
        J = join B by u, C by u;
        G = group J by $0;
        R = foreach G generate group, COUNT(J);
        store R into '/out/follow';
    ";
    let time_with = |h: Heuristic| {
        let eng = engine();
        let rs = ReStore::new(
            eng,
            ReStoreConfig { heuristic: h, register_final_outputs: false, ..Default::default() },
        );
        rs.execute_query(q_join, "/wf/j").unwrap();
        // First follow-up run still *generates* new candidates (HA pays
        // for storing the Group output here); the warm rerun is the fair
        // reuse comparison.
        rs.execute_query(q_follow, "/wf/f1").unwrap();
        let e = rs.execute_query(q_follow, "/wf/f2").unwrap();
        (e.total_s, read_sorted(rs.engine().dfs(), &e.final_output))
    };
    let (t_hc, rows_hc) = time_with(Heuristic::Conservative);
    let (t_ha, rows_ha) = time_with(Heuristic::Aggressive);
    assert_eq!(rows_hc, rows_ha);
    assert!(
        t_ha <= t_hc + 1e-9,
        "HA ({t_ha}) must not be slower than HC ({t_hc}) on the warm follow-up"
    );
}
