//! Service-level throughput: a mixed-tenant PigMix workload submitted
//! through `RestoreService` as the worker pool grows (1/2/4/8).
//!
//! Three regimes:
//! * `service_handoff` — one closed-loop client redeeming a pre-compiled
//!   workflow the repository answers whole: admission, queue, dispatch,
//!   the warm driver pass and the ticket, with no compile and no job —
//!   what it costs to hand a submission to whoever runs it and get the
//!   result back, at 1/2/4 pool threads;
//! * `service_warm` — every query is answered from its tenant's
//!   repository, isolating queue + scheduler + lock overhead;
//! * `service_mixed` — fresh output paths each round (final outputs not
//!   registered), so jobs with reusable prefixes still execute and the
//!   cross-workflow scheduler overlaps work from different tenants.
//!
//! (The `service_fifo` arm — the mixed workload under strict FIFO
//! dispatch — went with the switch that selected it; its numbers are
//! archived in `BENCH_service.json`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::{datagen, queries, DataScale};
use restore_service::{RestoreService, ServiceConfig};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: u64 = 0x5E_ED_CE;
const TENANTS: [&str; 4] = ["ana", "bo", "carol", "dee"];

fn service(workers: usize, register_final: bool) -> RestoreService {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
    );
    let rs = ReStore::new(
        engine,
        ReStoreConfig { register_final_outputs: register_final, ..Default::default() },
    );
    RestoreService::new(
        rs,
        ServiceConfig { workers, queue_depth: 256, max_inflight_per_tenant: 64 },
    )
}

/// The per-tenant query mix: one multi-job workflow + two single-job ones.
fn mix(tag: &str) -> Vec<(String, String)> {
    vec![
        (queries::l3(&format!("/out/{tag}/l3")), format!("/wf/{tag}/l3")),
        (queries::l7(&format!("/out/{tag}/l7")), format!("/wf/{tag}/l7")),
        (queries::l8(&format!("/out/{tag}/l8")), format!("/wf/{tag}/l8")),
    ]
}

/// Submit the whole mixed-tenant round, then wait for every handle.
fn submit_round(svc: &RestoreService, round: u64) {
    let mut handles = Vec::new();
    for t in TENANTS {
        for (q, prefix) in mix(&format!("r{round}-{t}")) {
            handles.push(svc.submit(Some(t), &q, &prefix).expect("admitted"));
        }
    }
    for h in handles {
        black_box(h.wait().expect("query completes"));
    }
}

fn bench_group(c: &mut Criterion, name: &str, register_final: bool) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &workers in &[1usize, 2, 4, 8] {
        let svc = service(workers, register_final);
        // Round 0 warms each tenant's repository.
        submit_round(&svc, 0);
        let round = AtomicU64::new(1);
        group.throughput(Throughput::Elements((TENANTS.len() * 3) as u64));
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| submit_round(&svc, round.fetch_add(1, Ordering::Relaxed)));
        });
    }
    group.finish();
}

fn bench_handoff(c: &mut Criterion) {
    /// Submissions per sample: one is tens of microseconds.
    const BATCH: u64 = 1000;
    let mut group = c.benchmark_group("service_handoff");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BATCH));
    for &workers in &[1usize, 2, 4] {
        let svc = service(workers, true);
        let wf = svc
            .driver()
            .compile_as(Some("ana"), &queries::l7("/out/handoff"), "/wf/handoff")
            .expect("compiles");
        // Executes once; every later submission is a whole-job hit.
        svc.submit_workflow(Some("ana"), wf.clone()).expect("admitted").wait().expect("cold run");
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| {
                for _ in 0..BATCH {
                    let handle = svc.submit_workflow(Some("ana"), wf.clone()).expect("admitted");
                    let exec = handle.wait().expect("query completes");
                    assert!(exec.job_results.is_empty(), "a warm hit runs zero jobs");
                }
            });
        });
    }
    group.finish();
}

fn bench_warm_serving(c: &mut Criterion) {
    bench_group(c, "service_warm", true);
}

fn bench_mixed_workload(c: &mut Criterion) {
    bench_group(c, "service_mixed", false);
}

criterion_group!(benches, bench_handoff, bench_warm_serving, bench_mixed_workload);
criterion_main!(benches);
