//! MapReduce engine throughput: records/second through a full
//! map-shuffle-reduce cycle at varying input sizes and thread counts,
//! over narrow rows and over PigMix-shaped wide rows of which the plan
//! reads two columns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use restore_bench::env::pigmix_env;
use restore_common::{codec, tuple, Tuple};
use restore_dataflow::exec::job_spec_for_plan;
use restore_dataflow::expr::{AggFunc, Expr};
use restore_dataflow::physical::{AggItem, PhysicalOp, PhysicalPlan};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::datagen::PAGE_VIEWS;
use restore_pigmix::DataScale;
use std::hint::black_box;

fn setup(rows: usize, threads: usize) -> (Engine, restore_mapreduce::JobSpec) {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 16 << 10, replication: 1, node_capacity: None });
    let data: Vec<Tuple> =
        (0..rows).map(|i| tuple![format!("k{}", i % 97), i as i64, (i % 1000) as f64]).collect();
    dfs.write_all("/in", &codec::encode_all(&data)).unwrap();
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: threads, default_reduce_tasks: 4 },
    );
    // Filter -> Group -> Aggregate: a representative shuffle job.
    let mut plan = PhysicalPlan::new();
    let l = plan.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
    let f = plan.add(
        PhysicalOp::Filter {
            pred: Expr::Cmp(
                Box::new(Expr::Col(1)),
                restore_dataflow::expr::CmpOp::Ge,
                Box::new(Expr::Lit(0i64.into())),
            ),
        },
        vec![l],
    );
    let g = plan.add(PhysicalOp::Group { keys: vec![0] }, vec![f]);
    let a = plan.add(
        PhysicalOp::Aggregate {
            items: vec![
                AggItem::Key(0),
                AggItem::Agg { func: AggFunc::Sum, bag_col: 1, field: Some(2) },
            ],
        },
        vec![g],
    );
    plan.add(PhysicalOp::Store { path: "/out".into() }, vec![a]);
    let spec = job_spec_for_plan(&plan, "bench").unwrap();
    (engine, spec)
}

fn bench_job_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_group_sum");
    group.sample_size(10);
    for &rows in &[1_000usize, 10_000] {
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("rows", rows), &rows, |b, &rows| {
            let (engine, spec) = setup(rows, 4);
            b.iter(|| black_box(engine.run(black_box(&spec)).unwrap()));
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_threads");
    group.sample_size(10);
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            let (engine, spec) = setup(10_000, threads);
            b.iter(|| black_box(engine.run(black_box(&spec)).unwrap()));
        });
    }
    group.finish();
}

/// `page_views` (six columns, ≈ 600 B rows, ≈ 52 KB splits) through
/// Project(user, est_revenue) → Group → SUM: the shape of L3/L7/L8's
/// first job. `scan_only` stops at the Project (map-only), so the pair
/// separates the scan from the shuffle and reduce.
fn setup_pigmix(threads: usize, group: bool) -> (Engine, restore_mapreduce::JobSpec, u64) {
    let env = pigmix_env(DataScale::gb15());
    let engine = Engine::new(
        env.engine.dfs().clone(),
        ClusterConfig::default(),
        EngineConfig { worker_threads: threads, default_reduce_tasks: 28 },
    );
    let mut plan = PhysicalPlan::new();
    let l = plan.add(PhysicalOp::Load { path: PAGE_VIEWS.into() }, vec![]);
    let mut tip = plan.add(PhysicalOp::Project { cols: vec![0, 3] }, vec![l]);
    if group {
        let g = plan.add(PhysicalOp::Group { keys: vec![0] }, vec![tip]);
        tip = plan.add(
            PhysicalOp::Aggregate {
                items: vec![
                    AggItem::Key(0),
                    AggItem::Agg { func: AggFunc::Sum, bag_col: 1, field: Some(1) },
                ],
            },
            vec![g],
        );
    }
    plan.add(PhysicalOp::Store { path: "/out".into() }, vec![tip]);
    (engine, job_spec_for_plan(&plan, "bench").unwrap(), env.scale.page_views_rows as u64)
}

fn bench_pigmix_shape(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_pigmix");
    group.sample_size(10);
    for (arm, with_group) in [("scan_only", false), ("project_group_sum", true)] {
        for &threads in &[1usize, 2] {
            let (engine, spec, rows) = setup_pigmix(threads, with_group);
            group.throughput(Throughput::Elements(rows));
            group.bench_with_input(BenchmarkId::new(arm, threads), &threads, |b, _| {
                b.iter(|| black_box(engine.run(black_box(&spec)).unwrap()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_job_throughput, bench_thread_scaling, bench_pigmix_shape);
criterion_main!(benches);
