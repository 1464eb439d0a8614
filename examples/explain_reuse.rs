//! Inspecting ReStore's decisions before committing to them: the
//! `explain_query` dry run, repository statistics, and Graphviz export
//! of a compiled workflow.
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
    B = foreach A generate region, qty * price as revenue;
    G = group B by region;
    R = foreach G generate group, SUM(B.revenue);
    store R into '/out/by_region';
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
    print!("{}", dot::workflow_to_dot(&wf, "by_region"));
}
