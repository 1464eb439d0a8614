//! Inspecting ReStore's decisions before committing to them: the
//! `explain_query_as` dry run of a two-job query (a join, then a group
//! over its output), repository statistics, and Graphviz export of the
//! compiled workflow. Once the query has run, the dry run predicts both
//! jobs skipped: the group job is matched through the output the join's
//! reuse stands in for, as execution matches it.
//!
//! ```sh
//! cargo run --example explain_reuse
//! # pipe the last section into graphviz:
//! cargo run --example explain_reuse | sed -n '/^digraph/,$p' | dot -Tpng > wf.png
//! ```

use restore_suite::common::{codec, tuple, Tuple};
use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dataflow::dot;
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

const QUERY: &str = "
    A = load '/data/sales' as (region, sku, qty:int, price:double);
    M = load '/data/managers' as (area, manager);
    J = join M by area, A by region;
    G = group J by $1;
    R = foreach G generate group, SUM(J.qty);
    store R into '/out/by_manager';
";

fn main() {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    let rows: Vec<Tuple> = (0..500)
        .map(|i| {
            tuple![
                ["emea", "apac", "amer"][i % 3],
                format!("sku-{}", i % 40),
                (i % 9 + 1) as i64,
                ((i * 13) % 100) as f64 / 4.0
            ]
        })
        .collect();
    dfs.write_all("/data/sales", &codec::encode_all(&rows)).unwrap();
    let managers = [tuple!["emea", "ana"], tuple!["apac", "bo"], tuple!["amer", "ana"]];
    dfs.write_all("/data/managers", &codec::encode_all(&managers)).unwrap();
    let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
    let rs = ReStore::new(engine, ReStoreConfig::default());

    println!("== dry run against an empty repository ==");
    print!("{}", rs.explain_query_as(None, QUERY, "/wf/x0").unwrap());

    println!("\n== execute once (populates the repository) ==");
    let e = rs.execute_query(QUERY, "/wf/run1").unwrap();
    println!("modeled {:.1}s; {} sub-jobs stored", e.total_s, e.candidates_stored);

    println!("\n== dry run again: what a rerun would reuse ==");
    print!("{}", rs.explain_query_as(None, QUERY, "/wf/x1").unwrap());

    println!("\n== driver statistics ==");
    let s = rs.stats_as(None);
    println!(
        "entries={} stored={} uses={} never_used={} queries={}",
        s.repository_entries, s.stored_bytes, s.total_uses, s.never_used, s.queries_executed
    );

    println!("\n== compiled workflow as Graphviz ==");
    let wf = restore_suite::dataflow::compile(QUERY, "/wf/dot").unwrap();
    print!("{}", dot::workflow_to_dot(&wf, "by_manager"));
}
