//! Quickstart: the paper's Q1/Q2 scenario end to end.
//!
//! Builds an in-memory DFS, loads a small `page_views`/`users` data set,
//! runs Q1 (a join) through ReStore, then runs Q2 (join + group/sum) and
//! watches ReStore answer Q2's join job from Q1's stored output — the
//! rewrite of Figure 4.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use restore_suite::common::{codec, tuple, Tuple};
use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

fn main() {
    // 1. Bring up a simulated cluster: 4 datanodes, small blocks.
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });

    // 2. Load some data.
    let page_views: Vec<Tuple> = vec![
        tuple!["ann", 1, 10.0, "info-a", "links-a"],
        tuple!["bob", 2, 20.0, "info-b", "links-b"],
        tuple!["ann", 3, 5.5, "info-c", "links-c"],
        tuple!["cat", 4, 7.5, "info-d", "links-d"],
    ];
    dfs.write_all("/data/page_views", &codec::encode_all(&page_views)).unwrap();
    let users: Vec<Tuple> = vec![
        tuple!["ann", "555-0101", "12 Elm St", "Waterloo"],
        tuple!["bob", "555-0102", "34 Oak St", "Toronto"],
    ];
    dfs.write_all("/data/users", &codec::encode_all(&users)).unwrap();

    // 3. Wrap the MapReduce engine with ReStore (Aggressive heuristic).
    let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
    let restore = ReStore::new(engine, ReStoreConfig::default());

    // 4. Q1: the paper's example join (PigMix L2 shape).
    let q1 = "
        A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
        B = foreach A generate user, est_revenue;
        alpha = load '/data/users' as (name, phone, address, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        store C into '/out/q1';
    ";
    let e1 = restore.execute_query(q1, "/wf/q1").unwrap();
    println!(
        "Q1 executed: modeled time {:.1}s, {} sub-jobs materialized",
        e1.total_s, e1.candidates_stored
    );
    println!("Repository now holds {} plans:", restore.repository_as(None).len());
    for entry in restore.repository_as(None).entries() {
        println!(
            "  #{:<2} {:<22} {:>6} bytes  ({} operators)",
            entry.id,
            entry.file.path,
            entry.stats().output_bytes,
            entry.file.plan.effective_len(),
        );
    }

    // 5. Q2 extends Q1 with grouping — ReStore reuses Q1's join.
    let q2 = "
        A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
        B = foreach A generate user, est_revenue;
        alpha = load '/data/users' as (name, phone, address, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        D = group C by $0;
        E = foreach D generate group, SUM(C.est_revenue);
        store E into '/out/q2';
    ";
    let e2 = restore.execute_query(q2, "/wf/q2").unwrap();
    println!("\nQ2 executed: modeled time {:.1}s", e2.total_s);
    println!("  jobs skipped by whole-job reuse: {}", e2.jobs_skipped);
    for rw in &e2.rewrites {
        println!(
            "  rewrite: job {} reused {} (whole job: {})",
            rw.job, rw.reused_path, rw.whole_job
        );
    }

    // 6. The answer, straight from the DFS.
    let out = restore.engine().dfs().read_all(&e2.final_output).unwrap();
    println!("\nQ2 result ({}):", e2.final_output);
    for t in codec::decode_all(&out).unwrap() {
        println!("  {t}");
    }
}
