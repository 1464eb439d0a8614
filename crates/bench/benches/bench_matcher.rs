//! Plan-matching micro-benchmark: the cost of the §3 pairwise
//! traversal (Algorithm 1) by plan depth.
//!
//! (The scan-vs-index ablation that used to live here is
//! `restore_bench::figures::matcher_ablation`, run by `experiments
//! ablation` with an agreement column and checked in tier-1 by
//! `ablation_strategies_agree`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use std::hint::black_box;

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

criterion_group!(benches, bench_traversal);
criterion_main!(benches);
