//! Replication cost along the two axes that matter for a warm standby:
//!
//! * `replication_warm` — steady-state overhead of shipping on the warm
//!   path. Both arms run a warm two-job workflow on a journaling
//!   session under the continuous-checkpoint cadence (one delta capture
//!   per workflow — the deployment replication slots into); `shipping`
//!   additionally has a replicator attached with one shipping beat per
//!   workflow. Shipping *shares* the checkpoint's sealed segments (seal
//!   vs cut), so the arm delta (compare `min_ns` — the least-noisy
//!   statistic the harness records) isolates the true marginal cost:
//!   the tap, the segment clone, and the queue push. Budget: ≤5%.
//! * `replication_promote` — failover latency as a function of
//!   unshipped work: promote a standby whose replay queue holds 0 / 4 /
//!   16 workflows' worth of shipments. Promotion drains the queue,
//!   verifies seq parity, and starts a worker pool — no checkpoint is
//!   read, so this is the "recovery time" axis a cold restart pays in
//!   full.
//!
//! `REPLICATION_QUEUED` (comma-separated) trims the promote matrix —
//! CI smoke runs `REPLICATION_QUEUED=4`. Results archive as
//! `BENCH_replication.json` via `CRITERION_JSON`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_core::{
    InProcessLink, JournalConfig, ReStore, ReStoreConfig, ReplicationTransport, Replicator,
};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_service::{ServiceConfig, Standby};
use std::hint::black_box;
use std::sync::Arc;

const PROMOTE_SAMPLES: usize = 5;

fn dfs() -> Dfs {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
    dfs
}

fn plain_session(dfs: Dfs) -> ReStore {
    let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
    ReStore::new(engine, ReStoreConfig::default())
}

fn session(dfs: Dfs) -> Arc<ReStore> {
    Arc::new(plain_session(dfs))
}

fn sum_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    )
}

/// A two-job workflow (join, then group) — the warm-path measurement
/// unit. A single tiny job would put the pump's fixed ~µs beat cost
/// over any relative budget; a real workflow is the denominator the
/// overhead budget is stated against.
fn join_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, revenue:int);
         B = load '/data/users' as (name, city);
         C = join B by name, A by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.revenue);
         store E into '{out}';"
    )
}

fn queued_counts() -> Vec<usize> {
    match std::env::var("REPLICATION_QUEUED") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![0, 4, 16],
    }
}

/// A standby whose replay queue holds `queued` workflows' worth of
/// shipments, with its primary already gone — exactly what promotion
/// finds after a crash.
fn prepared_standby(queued: usize, salt: usize) -> Standby {
    let dfs = dfs();
    let primary = session(dfs.clone());
    primary.enable_journal(JournalConfig::default());
    primary.execute_query(&sum_query(&format!("/out/p{salt}/seed")), "/wf/seed").unwrap();
    let link = InProcessLink::new();
    let rep = Replicator::attach(primary.clone(), link.clone()).expect("attach");
    let standby = Standby::attach_manual(plain_session(dfs), link);
    assert!(standby.tail_all() >= 1, "the anchoring base must arrive");
    for q in 0..queued {
        let warm = primary.execute_query(&sum_query(&format!("/out/p{salt}/{q}")), "/wf/w");
        assert_eq!(warm.unwrap().jobs_skipped, 1);
        rep.pump().expect("shipping beat");
    }
    drop(rep);
    standby
}

fn bench_replication(c: &mut Criterion) {
    // ---- steady-state shipping overhead on the warm path ----
    {
        let shared = dfs();
        let mut group = c.benchmark_group("replication_warm");
        group.throughput(Throughput::Elements(1));

        let off = session(shared.clone());
        off.enable_journal(JournalConfig::default());
        off.execute_query(&join_query("/out/off/seed"), "/wf/seed").unwrap();
        let mut i = 0usize;
        group.bench_function("off", |b| {
            b.iter(|| {
                i += 1;
                let e = off.execute_query(&join_query(&format!("/out/off/{i}")), "/wf/w").unwrap();
                assert!(e.jobs_skipped >= 1, "the measured path must stay warm");
                black_box(off.save_state_delta().unwrap().len())
            });
        });

        // Shipping arm: replicator attached, one beat per workflow. The
        // transport's far end is consumed without replay — the standby
        // applies on its own machine in the deployment this models, so
        // its CPU must not leak into the primary's wall clock (this
        // harness runs on a single core). Replay cost is measured
        // separately by the promote arm below.
        let primary = session(shared.clone());
        primary.enable_journal(JournalConfig::default());
        primary.execute_query(&join_query("/out/on/seed"), "/wf/seed").unwrap();
        let link = InProcessLink::new();
        let rep = Replicator::attach(primary.clone(), link.clone()).expect("attach");
        while link.try_recv().is_some() {}
        let mut j = 0usize;
        let mut shipped = 0usize;
        group.bench_function("shipping", |b| {
            b.iter(|| {
                j += 1;
                let e =
                    primary.execute_query(&join_query(&format!("/out/on/{j}")), "/wf/w").unwrap();
                assert!(e.jobs_skipped >= 1, "the measured path must stay warm");
                rep.pump().expect("shipping beat");
                let captured = primary.save_state_delta().unwrap().len();
                while link.try_recv().is_some() {
                    shipped += 1;
                }
                black_box(captured)
            });
        });
        assert!(shipped >= j, "every beat must have shipped its segment");
        group.finish();
    }

    // ---- promote latency vs unshipped workflows ----
    for &queued in &queued_counts() {
        let mut prepared: Vec<Standby> =
            (0..PROMOTE_SAMPLES + 1).map(|k| prepared_standby(queued, k)).collect();
        let mut promoted = Vec::new();
        let mut group = c.benchmark_group(format!("replication_promote/queued{queued}"));
        group.sample_size(PROMOTE_SAMPLES);
        group.bench_function("promote", |b| {
            b.iter(|| {
                let standby = prepared.pop().expect("one prepared standby per sample");
                let config =
                    ServiceConfig { workers: 1, queue_depth: 16, max_inflight_per_tenant: 16 };
                promoted.push(standby.promote(config).expect("parity holds"));
            });
        });
        group.finish();
        for svc in promoted {
            svc.shutdown();
        }
    }
}

criterion_group!(benches, bench_replication);
criterion_main!(benches);
