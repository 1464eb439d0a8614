//! Plan-matching micro-benchmarks: the tip-signature index the driver
//! matches through vs the paper's sequential repository scan, across
//! repository sizes.
//!
//! The paper scans the ordered repository linearly (§3); the index
//! pre-filters candidates by tip signature. Both return identical
//! matches (asserted in `repository::tests` and `prop_matcher`), so the
//! scan survives only as that oracle and as this ablation — the one
//! bench that calls it — which quantifies what the index buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use restore_core::{RepoStats, Repository};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use std::hint::black_box;

/// A distinct Load→Filter→Project→Store plan per index.
fn entry_plan(i: usize) -> PhysicalPlan {
    let mut p = PhysicalPlan::new();
    let l = p.add(PhysicalOp::Load { path: format!("/data/t{}", i % 7) }, vec![]);
    let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(i % 5, i as i64) }, vec![l]);
    let pr = p.add(PhysicalOp::Project { cols: vec![0, (i % 3) + 1] }, vec![f]);
    p.add(PhysicalOp::Store { path: format!("/repo/{i}") }, vec![pr]);
    p
}

/// The query plan that matches exactly one repository entry.
fn query_plan(i: usize) -> PhysicalPlan {
    let mut p = entry_plan(i);
    let tip = p.stores()[0];
    let before = p.inputs(tip)[0];
    let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
    p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
    p
}

fn repo_of(n: usize) -> Repository {
    let repo = Repository::new();
    for i in 0..n {
        repo.insert(
            entry_plan(i),
            format!("/repo/{i}"),
            RepoStats {
                input_bytes: 1000 + i as u64,
                output_bytes: 100,
                job_time_s: i as f64,
                ..Default::default()
            },
        );
    }
    repo
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("repository_match");
    group.sample_size(30);
    for &n in &[8usize, 64, 256] {
        let view = repo_of(n).snapshot();
        // Worst case for the scan: the matching entry is near the end.
        let query = query_plan(n - 1);
        group.bench_with_input(BenchmarkId::new("sequential_scan", n), &n, |b, _| {
            b.iter(|| black_box(view.find_first_match_scan(black_box(&query), |_, _| false)))
        });
        group.bench_with_input(BenchmarkId::new("fingerprint_index", n), &n, |b, _| {
            b.iter(|| black_box(view.find_first_match(black_box(&query))))
        });
        // Miss case: nothing matches.
        let miss = {
            let mut p = PhysicalPlan::new();
            let l = p.add(PhysicalOp::Load { path: "/nowhere".into() }, vec![]);
            p.add(PhysicalOp::Store { path: "/o".into() }, vec![l]);
            p
        };
        group.bench_with_input(BenchmarkId::new("scan_miss", n), &n, |b, _| {
            b.iter(|| black_box(view.find_first_match_scan(black_box(&miss), |_, _| false)))
        });
    }
    group.finish();
}

fn bench_traversal(c: &mut Criterion) {
    // Algorithm 1 on a deep plan: containment test cost by plan depth.
    let mut group = c.benchmark_group("pairwise_traversal");
    group.sample_size(30);
    for &depth in &[4usize, 16, 64] {
        let mut plan = PhysicalPlan::new();
        let mut cur = plan.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        for i in 0..depth {
            cur = plan.add(PhysicalOp::Filter { pred: Expr::col_eq(0, i as i64) }, vec![cur]);
        }
        plan.add(PhysicalOp::Store { path: "/o".into() }, vec![cur]);
        group.bench_with_input(BenchmarkId::new("self_match", depth), &depth, |b, _| {
            b.iter(|| {
                black_box(restore_core::matcher::pairwise_plan_traversal(
                    black_box(&plan),
                    black_box(&plan),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching, bench_traversal);
criterion_main!(benches);
