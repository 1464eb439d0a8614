//! Tests of the introspection surface: dry-run explain, driver stats,
//! and their consistency with actual execution.

use restore_common::{codec, tuple, Tuple};
use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None });
    let rows: Vec<Tuple> =
        (0..120).map(|i| tuple![format!("u{}", i % 7), i as i64, (i % 31) as f64]).collect();
    dfs.write_all("/data/d", &codec::encode_all(&rows)).unwrap();
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    )
}

const Q: &str = "
    A = load '/data/d' as (u, n:int, v:double);
    B = foreach A generate u, v;
    G = group B by u;
    R = foreach G generate group, SUM(B.v);
    store R into '/out/q';
";

#[test]
fn explain_predicts_execution() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());

    // Cold: explain predicts no matches.
    let cold = rs.explain_query_as(None, Q, "/wf/x").unwrap();
    assert!(cold.contains("no matches"), "{cold}");
    assert!(cold.contains("repository: 0 entries"), "{cold}");

    // Warm the repository, then explain again.
    rs.execute_query(Q, "/wf/warm").unwrap();
    let warm = rs.explain_query_as(None, Q, "/wf/x2").unwrap();
    assert!(warm.contains("would reuse entry"), "{warm}");
    assert!(warm.contains("job would be skipped"), "{warm}");

    // Dry run mutated nothing: use counts unchanged.
    assert_eq!(rs.stats_as(None).total_uses, 0);

    // And the prediction comes true.
    let e = rs.execute_query(Q, "/wf/real").unwrap();
    assert_eq!(e.jobs_skipped, 1);
}

#[test]
fn stats_track_activity() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    let s0 = rs.stats_as(None);
    assert_eq!(s0.repository_entries, 0);
    assert_eq!(s0.queries_executed, 0);

    rs.execute_query(Q, "/wf/1").unwrap();
    let s1 = rs.stats_as(None);
    assert!(s1.repository_entries > 0);
    assert!(s1.stored_bytes > 0);
    assert_eq!(s1.queries_executed, 1);
    assert_eq!(s1.total_uses, 0);
    assert_eq!(s1.never_used, s1.repository_entries);
    assert_eq!(s1.provenance_entries, s1.repository_entries);

    rs.execute_query(Q, "/wf/2").unwrap();
    let s2 = rs.stats_as(None);
    assert!(s2.total_uses > 0, "rerun must register reuse");
    assert!(s2.never_used < s2.repository_entries);
    assert_eq!(s2.queries_executed, 2);
}

#[test]
fn explain_reports_errors_for_bad_queries() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    assert!(rs.explain_query_as(None, "not a query", "/wf").is_err());
    assert!(rs.explain_query_as(None, "A = load '/data/d' as (x);", "/wf").is_err());
    // no STORE
}

#[test]
fn dot_export_of_compiled_workflow() {
    // The dataflow dot renderer integrates with driver-visible queries.
    let wf = restore_dataflow::compile(Q, "/wf").unwrap();
    let dot = restore_dataflow::dot::workflow_to_dot(&wf, "q");
    assert!(dot.contains("digraph q {"));
    assert!(dot.contains("Group"));
}
