//! Service quickstart: submitting queries from several tenants through
//! the `restore-service` front end.
//!
//! Brings up a simulated cluster with a PigMix data set, starts a
//! 4-worker service, and submits a mixed-tenant workload twice: the
//! first round runs cold, the warm rerun is answered from each tenant's
//! repository namespace. Prints per-tenant serving and repository stats
//! plus an excerpt of the Prometheus-style metrics exposition.
//!
//! ```sh
//! cargo run --example service_quickstart
//! ```
//!
//! `RESTORE_CANONICALIZE=0` disables the analyzer's canonical form.
//! Output is identical either way.

use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{RestoreService, ServiceConfig};

fn main() {
    // 1. Simulated cluster + PigMix data at tiny scale.
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xF00D).expect("data generation");
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );

    // 2. The service: bounded queue, 4 workers, cross-workflow overlap.
    //    RESTORE_CANONICALIZE=0 turns the analyzer off.
    let canonicalize =
        !matches!(std::env::var("RESTORE_CANONICALIZE").as_deref(), Ok("0") | Ok("false"));
    let service = RestoreService::new(
        ReStore::new(engine, ReStoreConfig { canonicalize, ..Default::default() }),
        ServiceConfig { workers: 4, queue_depth: 32, ..Default::default() },
    );

    // 3. Two tenants, two rounds. Every submission returns a handle
    //    immediately; waiting redeems the workflow's result.
    let tenants = ["ana", "bo"];
    for round in 0..2 {
        let mut handles = Vec::new();
        for t in &tenants {
            for (name, q, prefix) in [
                (
                    "l3",
                    queries::l3(&format!("/out/r{round}/{t}/l3")),
                    format!("/wf/r{round}/{t}/l3"),
                ),
                (
                    "l7",
                    queries::l7(&format!("/out/r{round}/{t}/l7")),
                    format!("/wf/r{round}/{t}/l7"),
                ),
                (
                    "l8",
                    queries::l8(&format!("/out/r{round}/{t}/l8")),
                    format!("/wf/r{round}/{t}/l8"),
                ),
            ] {
                let h = service.submit(Some(t), &q, &prefix).expect("admitted");
                handles.push((t.to_string(), name, h));
            }
        }
        println!("-- round {round} ({}) --", if round == 0 { "cold" } else { "warm" });
        for (tenant, name, h) in handles {
            let e = h.wait().expect("query completes");
            println!(
                "  {tenant}/{name}: {} job(s) ran, {} skipped, {} rewrite(s), {:.1}s modeled",
                e.job_results.len(),
                e.jobs_skipped,
                e.rewrites.len(),
                e.total_s,
            );
        }
    }

    // 4. Introspection: the service-level and per-tenant picture.
    let stats = service.stats();
    println!("-- service --");
    println!(
        "  workers {} | submitted {} | completed {} | rejected {}",
        stats.workers, stats.submitted, stats.completed, stats.rejected
    );
    for t in &stats.tenants {
        println!(
            "  tenant {:?}: {} completed; repository {} entr{}, {} reuse(s)",
            t.tenant,
            t.completed,
            t.repository.repository_entries,
            if t.repository.repository_entries == 1 { "y" } else { "ies" },
            t.repository.total_uses,
        );
    }

    // 5. The same picture as Prometheus text exposition (excerpt; run
    //    the `metrics_tour` example for the full dump plus reuse traces).
    let metrics = service.render_metrics();
    println!("-- metrics excerpt --");
    for line in metrics.lines().filter(|l| {
        ["restore_match_hits_total", "restore_match_misses_total", "service_queue_depth"]
            .iter()
            .any(|p| l.starts_with(p))
    }) {
        println!("  {line}");
    }

    service.shutdown();
}
