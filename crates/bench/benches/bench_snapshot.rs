//! Checkpoint cost: the full base dump (one journal segment) vs the snapshot
//! journal's incremental delta, across repository sizes, and what
//! loading the dump back costs.
//!
//! Three arms per size:
//!
//! * `full_dump` — `save_state()`: serializes every entry of every
//!   namespace. Cost grows with the repository — this is the stall the
//!   journal exists to eliminate.
//! * `delta` — a fixed-size working set is dirtied (16 entries
//!   reused via `note_use`), then `save_state_delta()` drains the
//!   journal. Cost tracks **dirty size**, so the curve stays flat
//!   while `full_dump` climbs with the repository.
//! * `recover` — `recover(base, &[])` of that size's full dump into a
//!   fresh session over the same DFS: the load half of a failover
//!   through the checkpoint set (a new service calling
//!   `restore_incremental`). Session construction is outside the
//!   timed region.
//!
//! Repository sizes default to 10² / 10³ / 10⁴ entries;
//! `SNAPSHOT_SIZES` (comma-separated) trims the matrix — CI smoke runs
//! `SNAPSHOT_SIZES=100`. Results archive as `BENCH_snapshot.json` via
//! `CRITERION_JSON`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use restore_core::{JournalConfig, ReStore, ReStoreConfig, RepoStats, StoredFile};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use std::hint::black_box;
use std::time::Instant;

/// Entries touched per delta round — the fixed dirty working set.
const DIRTY_USES: u64 = 16;

/// A distinct Load→Filter→Project→Store plan per index.
fn entry_plan(i: usize) -> PhysicalPlan {
    let mut p = PhysicalPlan::new();
    let l = p.add(PhysicalOp::Load { path: format!("/data/t{}", i % 7) }, vec![]);
    let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(i % 5, i as i64) }, vec![l]);
    let pr = p.add(PhysicalOp::Project { cols: vec![0, (i % 3) + 1] }, vec![f]);
    p.add(PhysicalOp::Store { path: format!("/repo/{i}") }, vec![pr]);
    p
}

fn stats(i: usize, n: usize) -> RepoStats {
    RepoStats {
        input_bytes: 10 * n as u64 - i as u64,
        output_bytes: 100,
        job_time_s: (n - i) as f64,
        ..Default::default()
    }
}

/// A session whose default namespace holds `n` synthetic entries, with
/// the journal enabled *after* population (the entries belong to the
/// base, not the delta).
fn session_of(n: usize) -> ReStore {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    for i in 0..n {
        dfs.write_all(&format!("/repo/{i}"), b"x").unwrap();
    }
    let rs = fresh_session(&dfs);
    rs.with_repository_mut_as(None, |repo| {
        repo.batch(|b| {
            for i in 0..n {
                b.insert(StoredFile::new(format!("/repo/{i}"), entry_plan(i)), stats(i, n));
            }
        })
    });
    rs.enable_journal(JournalConfig::default());
    rs
}

fn fresh_session(dfs: &Dfs) -> ReStore {
    let engine = Engine::new(dfs.clone(), ClusterConfig::default(), EngineConfig::default());
    ReStore::new(engine, ReStoreConfig::default())
}

fn sizes() -> Vec<usize> {
    match std::env::var("SNAPSHOT_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![100, 1_000, 10_000],
    }
}

fn bench_snapshot(c: &mut Criterion) {
    for &n in &sizes() {
        let rs = session_of(n);
        let mut tick = 0u64;

        // ---- full_dump: O(repository) every time ----
        {
            let mut group = c.benchmark_group(format!("snapshot_full_dump/n{n}"));
            group.throughput(Throughput::Elements(1));
            group.bench_function("capture", |b| {
                b.iter(|| black_box(rs.save_state().len()));
            });
            group.finish();
        }

        // ---- delta: O(dirty) regardless of repository size ----
        {
            // Drain anything the setup left behind so every measured
            // capture sees exactly one round's dirt.
            rs.save_state_delta().unwrap();
            let mut group = c.benchmark_group(format!("snapshot_delta/n{n}"));
            group.throughput(Throughput::Elements(DIRTY_USES));
            group.bench_function(format!("dirty{DIRTY_USES}"), |b| {
                b.iter(|| {
                    rs.with_repository_mut_as(None, |repo| {
                        for id in 0..DIRTY_USES {
                            tick += 1;
                            repo.note_use(id % n as u64, tick);
                        }
                    });
                    let segs = rs.save_state_delta().unwrap();
                    assert!(!segs.is_empty(), "a dirtied round must capture something");
                    black_box(segs.iter().map(String::len).sum::<usize>())
                });
            });
            group.finish();
        }

        // ---- recover: load a full dump into a fresh session ----
        {
            let base = rs.save_state();
            let dfs = rs.engine().dfs().clone();
            let check = fresh_session(&dfs);
            check.recover(&base, &[]).unwrap();
            assert_eq!(check.save_state(), base, "recovery must reproduce the dump");
            let mut group = c.benchmark_group(format!("snapshot_recover/n{n}"));
            group.throughput(Throughput::Elements(n as u64));
            group.bench_function("fresh_session", |b| {
                b.iter_custom(|_| {
                    let fresh = fresh_session(&dfs);
                    let t0 = Instant::now();
                    black_box(fresh.recover(&base, &[]).unwrap());
                    t0.elapsed()
                });
            });
            group.finish();
        }
    }
}

criterion_group!(benches, bench_snapshot);
criterion_main!(benches);
