//! The paper's motivating scenario (§1): an internet company's usage-log
//! warehouse where many analysts run overlapping queries at different
//! times.
//!
//! "Queries on these data sets typically perform the following steps:
//! (1) load the data set, (2) perform some simple processing to filter
//! out unnecessary data, and (3) perform extra processing on the small
//! fraction of the loaded data that passes the filter. Steps 1 and 2 of
//! one workflow are likely to be repeated in other workflows."
//!
//! Five analyst queries share the load+filter prefix; ReStore pays the
//! materialization cost once and every later query starts from the small
//! filtered file.
//!
//! ```sh
//! cargo run --example log_analytics
//! ```

use restore_suite::common::rng::SplitMix64;
use restore_suite::common::{codec, Tuple, Value};
use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

/// Synthesize a service log: (service, level, latency_ms, message).
fn write_logs(dfs: &Dfs, rows: usize) {
    let mut rng = SplitMix64::new(2024);
    let services = ["api", "web", "auth", "billing", "search"];
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let service = services[rng.next_below(5) as usize];
        // ~5% of entries are errors — the filter the analysts share.
        let level = if rng.next_below(20) == 0 { "ERROR" } else { "INFO" };
        let latency = rng.next_below(2_000) as i64;
        let message = format!("trace={} detail={}", rng.next_string(16), rng.next_string(48));
        out.push(Tuple::from_values(vec![
            Value::str(service),
            Value::str(level),
            Value::Int(latency),
            Value::str(message),
        ]));
    }
    dfs.write_all("/logs/app", &codec::encode_all(&out)).unwrap();
}

const LOAD_AND_FILTER: &str = "
    L = load '/logs/app' as (service, level, latency:int, message);
    E = filter L by level == 'ERROR';
";

fn main() {
    // Model a 200 GB production log on the paper's 14-worker cluster: the
    // in-process rows stand in for the real volume, and the cost model
    // scales measured bytes back up (see DESIGN.md §4). A probe pass
    // sizes the data so the DFS block size matches the paper's 64 MB
    // blocks at the modeled scale (same number of input splits).
    let probe =
        Dfs::new(DfsConfig { nodes: 8, block_size: 1 << 20, replication: 1, node_capacity: None });
    write_logs(&probe, 20_000);
    let actual = probe.file_len("/logs/app").unwrap();
    let byte_scale = (200u64 << 30) as f64 / actual as f64;
    let block_size = (((64u64 << 20) as f64 / byte_scale) as u64).clamp(512, 64 << 20);

    let dfs = Dfs::new(DfsConfig { nodes: 8, block_size, replication: 3, node_capacity: None });
    write_logs(&dfs, 20_000);
    let engine =
        Engine::new(dfs, ClusterConfig::paper_testbed(byte_scale), EngineConfig::default());

    // The analyst queries: all start from the shared error filter.
    let queries: Vec<(&str, String)> = vec![
        (
            "errors per service",
            format!(
                "{LOAD_AND_FILTER}
             G = group E by service;
             R = foreach G generate group, COUNT(E);
             store R into '/out/per_service';"
            ),
        ),
        (
            "p-latency of errors",
            format!(
                "{LOAD_AND_FILTER}
             P = foreach E generate service, latency;
             G = group P by service;
             R = foreach G generate group, MAX(P.latency), AVG(P.latency);
             store R into '/out/latency';"
            ),
        ),
        (
            "global error count",
            format!(
                "{LOAD_AND_FILTER}
             G = group E all;
             R = foreach G generate COUNT(E);
             store R into '/out/total';"
            ),
        ),
        (
            "slow errors",
            format!(
                "{LOAD_AND_FILTER}
             S = filter E by latency > 1500;
             store S into '/out/slow';"
            ),
        ),
        (
            "billing errors",
            format!(
                "{LOAD_AND_FILTER}
             B = filter E by service == 'billing';
             G = group B all;
             R = foreach G generate COUNT(B);
             store R into '/out/billing';"
            ),
        ),
    ];

    // Without ReStore: every query rescans the raw log.
    let mut plain_total = 0.0;
    {
        let rs = ReStore::new(engine.clone(), ReStoreConfig::baseline());
        for (i, (_, q)) in queries.iter().enumerate() {
            plain_total += rs.execute_query(q, &format!("/wf/plain{i}")).unwrap().total_s;
        }
    }

    // With ReStore: the first query pays for materializing the filtered
    // errors; the rest start from that file. The Conservative heuristic
    // fits this workload: the shared prefix is exactly a Filter.
    let mut restore_total = 0.0;
    let rs = ReStore::new(
        engine.clone(),
        ReStoreConfig {
            heuristic: restore_suite::core::Heuristic::Conservative,
            ..Default::default()
        },
    );
    println!("{:<24} {:>12} {:>10} {:>8}", "query", "modeled (s)", "rewrites", "stored");
    println!("{}", "-".repeat(58));
    for (i, (name, q)) in queries.iter().enumerate() {
        let e = rs.execute_query(q, &format!("/wf/restore{i}")).unwrap();
        restore_total += e.total_s;
        println!(
            "{:<24} {:>12.1} {:>10} {:>8}",
            name,
            e.total_s,
            e.rewrites.len(),
            e.candidates_stored
        );
    }

    println!("\nWorkload total (modeled cluster seconds):");
    println!("  without ReStore: {plain_total:8.1}");
    println!("  with ReStore:    {restore_total:8.1}");
    println!("  speedup:         {:8.1}x", plain_total / restore_total);
    println!(
        "\nRepository: {} entries, {} logical bytes of stored outputs",
        rs.repository_as(None).len(),
        rs.repository_as(None).stored_bytes(),
    );
}
