//! DFS micro-benchmarks: write path (block placement + replication),
//! read path (block fetch + range assembly), split planning, and the map
//! task's record-aligned split read over a PigMix-shaped file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use restore_bench::env::pigmix_env;
use restore_common::codec::ColumnSet;
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::split_reader::{read_split, InputFile};
use restore_pigmix::datagen::PAGE_VIEWS;
use restore_pigmix::DataScale;
use std::hint::black_box;

fn cluster() -> Dfs {
    Dfs::new(DfsConfig { nodes: 14, block_size: 64 << 10, replication: 3, node_capacity: None })
}

fn bench_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfs_write");
    group.sample_size(20);
    for &kb in &[64usize, 1024] {
        let data = vec![0xabu8; kb << 10];
        group.throughput(Throughput::Bytes((kb << 10) as u64));
        group.bench_with_input(BenchmarkId::new("kb", kb), &kb, |b, _| {
            let dfs = cluster();
            let mut i = 0;
            b.iter(|| {
                i += 1;
                dfs.write_all(&format!("/w{i}"), black_box(&data)).unwrap();
            });
        });
    }
    group.finish();
}

fn bench_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("dfs_read");
    group.sample_size(20);
    for &kb in &[64usize, 1024] {
        let dfs = cluster();
        dfs.write_all("/r", &vec![0xcdu8; kb << 10]).unwrap();
        group.throughput(Throughput::Bytes((kb << 10) as u64));
        group.bench_with_input(BenchmarkId::new("kb", kb), &kb, |b, _| {
            b.iter(|| black_box(dfs.read_all("/r").unwrap()));
        });
    }
    group.finish();
}

fn bench_splits(c: &mut Criterion) {
    let dfs = cluster();
    dfs.write_all("/s", &vec![1u8; 4 << 20]).unwrap(); // 64 blocks
    c.bench_function("dfs_split_planning_64_blocks", |b| {
        b.iter(|| black_box(dfs.splits("/s").unwrap()));
    });
}

/// One full scan of `page_views` (six columns, ≈ 600 B rows, ≈ 240 splits
/// of ≈ 52 KB, like `restore-e2e`) through `read_split`: every column,
/// and the two of six that L2/L3/L7/L8 read.
fn bench_read_split(c: &mut Criterion) {
    let env = pigmix_env(DataScale::gb15());
    let (dfs, pv_bytes) = (env.engine.dfs(), env.data.page_views_bytes);
    let splits = dfs.splits(PAGE_VIEWS).unwrap();
    let file = InputFile::open(dfs, PAGE_VIEWS).unwrap();

    let mut group = c.benchmark_group("dfs_read_split");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(pv_bytes));
    for (arm, columns) in [("all_columns", None), ("columns_0_3", Some(ColumnSet::new([0, 3])))] {
        group.bench_function(arm, |b| {
            b.iter(|| {
                for split in &splits {
                    let row = |t| {
                        black_box(t);
                        Ok(())
                    };
                    black_box(read_split(dfs, split, &file, columns.as_ref(), row).unwrap());
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_write, bench_read, bench_splits, bench_read_split);
criterion_main!(benches);
