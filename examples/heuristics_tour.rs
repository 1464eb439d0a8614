//! Tour of the §4 sub-job heuristics: Conservative (HC), Aggressive
//! (HA), and No-Heuristic (NH) on the PigMix L3 query.
//!
//! For each heuristic the example reports what was materialized, what it
//! cost (store-injection overhead), and what a rerun gains (reuse
//! speedup) — a miniature of Figures 13/14 and Table 1.
//!
//! ```sh
//! cargo run --release --example heuristics_tour
//! ```

use restore_suite::core::{Heuristic, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};

fn main() {
    // A small PigMix instance (see `restore-bench` for the full scales).
    let scale = DataScale::tiny();
    let dfs =
        Dfs::new(DfsConfig { nodes: 8, block_size: 4 << 10, replication: 3, node_capacity: None });
    let data = datagen::generate(&dfs, &scale, 7).unwrap();
    let byte_scale = scale.byte_scale(data.page_views_bytes);
    let engine =
        Engine::new(dfs, ClusterConfig::paper_testbed(byte_scale), EngineConfig::default());

    let query = queries::l3("/out/l3");

    // Baseline: no ReStore.
    let plain = ReStore::new(engine.clone(), ReStoreConfig::baseline())
        .execute_query(&query, "/wf/plain")
        .unwrap()
        .total_s;
    println!("L3 without ReStore: {:.0} modeled seconds\n", plain);

    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>9}",
        "heuristic", "sub-jobs", "stored (B)", "overhead", "rerun (s)", "speedup"
    );
    println!("{}", "-".repeat(72));
    for h in [Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic] {
        let rs = ReStore::new(
            engine.clone(),
            ReStoreConfig {
                heuristic: h,
                reuse_enabled: false,
                repo_prefix: format!("/restore/{}", h.label()),
                register_final_outputs: false,
                ..Default::default()
            },
        );
        // First run: materialize candidates (pays the overhead).
        let gen = rs.execute_query(&query, &format!("/wf/{}-gen", h.label())).unwrap();
        // Second run: reuse them.
        let mut cfg = rs.config_as(None);
        cfg.reuse_enabled = true;
        rs.set_config_as(None, cfg);
        let reuse = rs.execute_query(&query, &format!("/wf/{}-re", h.label())).unwrap();

        println!(
            "{:<14} {:>10} {:>12} {:>9.2}x {:>12.0} {:>8.1}x",
            h.label(),
            gen.candidates_stored,
            gen.stored_candidate_bytes,
            gen.total_s / plain,
            reuse.total_s,
            plain / reuse.total_s,
        );
    }

    println!(
        "\nThe paper's conclusion (§7.3): HA captures the expensive operators, so\n\
         reusing its sub-jobs matches NH at lower storage cost; HC is cheaper\n\
         still but gives up part of the benefit."
    );
}
