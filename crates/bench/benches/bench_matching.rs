//! Concurrent repository-matching throughput of the RCU snapshot
//! design, across repository sizes and submitting threads.
//!
//! `snapshot_indexed` — each match loads the RCU snapshot (a pointer
//! copy), filters candidates through the inverted tip-signature index,
//! and records the reuse through the entry's shared atomics. No writer
//! section is entered; the bench asserts the publish counter stays
//! frozen.
//! (The `locked_scan` arm it was first measured against — a
//! repository-wide `RwLock` around the paper's sequential scan — is
//! archived in `BENCH_matching.json`; the scan-vs-index ablation is
//! `restore_bench::figures::matcher_ablation`.)
//!
//! Repository sizes default to 10² / 10³ / 10⁴ entries and 1/2/4/8
//! threads; `MATCHING_SIZES` (comma-separated) trims the matrix — CI
//! smoke runs `MATCHING_SIZES=100`. Results archive as
//! `BENCH_matching.json` via `CRITERION_JSON`.
//!
//! `matching_bulk_indexed` pushes the snapshot design to 10⁵ entries
//! (override with `MATCHING_BULK_SIZES`): ordered insertion is O(n²) in
//! pairwise subsumption checks, so the corpus is built with
//! [`Repository::bulk_load`] — O(n log n) rule-2 ordering, valid
//! because the generated plans are pairwise incomparable.
//!
//! (The `matching_bulk_telemetry` arm — probed matcher plus recording
//! against a bare matcher — went when the probed matcher became the
//! only match entry point and left no bare side to compare; its
//! numbers are archived in `BENCH_matching.json`.)
//!
//! `insert_writers` prices the **write path**: 1/2/4/8 writer threads
//! registering disjoint plan corpora into one repository. Every insert
//! is a batch of one — a writer section, an O(n) §3 ordering scan, an
//! O(n) snapshot clone and a publish — so writers serialize and the
//! round grows with the square of the total inserted.
//!
//! `paraphrase_reuse` is the **analyzer** ablation:
//! each round drives the paraphrased-PigMix suite (every query plus
//! 3–5 semantically-equal rewrites) end-to-end through a fresh ReStore
//! session with `ReStoreConfig::canonicalize` on vs off, asserting the
//! warm-hit counts (on: every paraphrase served from the repository;
//! off: none). The timing delta is the work reuse saves; the hit rates
//! archive alongside in `BENCH_matching.json`.
//!
//! `canon_compile` prices the analyzer itself:
//! `compile` vs `compile_canonical` over all suite formulations — the
//! per-compile cost the canonical form adds to the submission path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use restore_core::{ReStore, ReStoreConfig, RepoStats, Repository};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::paraphrase::paraphrase_suite;
use restore_pigmix::{datagen, DataScale};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Queries per thread per measured round.
const QUERIES_PER_THREAD: usize = 20;

/// A distinct Load→Filter→Project→Store plan per index.
fn entry_plan(i: usize) -> PhysicalPlan {
    let mut p = PhysicalPlan::new();
    let l = p.add(PhysicalOp::Load { path: format!("/data/t{}", i % 7) }, vec![]);
    let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(i % 5, i as i64) }, vec![l]);
    let pr = p.add(PhysicalOp::Project { cols: vec![0, (i % 3) + 1] }, vec![f]);
    p.add(PhysicalOp::Store { path: format!("/repo/{i}") }, vec![pr]);
    p
}

/// A query whose prefix matches exactly repository entry `i`.
fn query_plan(i: usize) -> PhysicalPlan {
    let mut p = entry_plan(i);
    let tip = p.stores()[0];
    let before = p.inputs(tip)[0];
    let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
    p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
    p
}

/// Build an `n`-entry repository whose order equals insertion order
/// (decreasing reduction ratio and job time), so high-index queries are
/// the sequential scan's worst case.
fn repo_of(n: usize) -> Repository {
    let repo = Repository::new();
    repo.batch(|b| {
        for i in 0..n {
            b.insert(
                entry_plan(i),
                format!("/repo/{i}"),
                RepoStats {
                    input_bytes: 10 * n as u64 - i as u64,
                    output_bytes: 100,
                    job_time_s: (n - i) as f64,
                    ..Default::default()
                },
            );
        }
    });
    repo
}

/// The query mix of one thread: hits spread over the last quarter of
/// the repository (the scan's expensive region) plus one guaranteed
/// miss, cycled `QUERIES_PER_THREAD` times.
fn thread_queries(n: usize, t: usize) -> Vec<PhysicalPlan> {
    let mut qs = Vec::with_capacity(QUERIES_PER_THREAD);
    for k in 0..QUERIES_PER_THREAD {
        if k % 5 == 4 {
            // A miss: load path outside the repository's universe.
            let mut p = PhysicalPlan::new();
            let l = p.add(PhysicalOp::Load { path: "/data/miss".into() }, vec![]);
            let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![l]);
            p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
            qs.push(p);
        } else {
            let back = (t * 13 + k * 7) % (n / 4).max(1);
            qs.push(query_plan(n - 1 - back));
        }
    }
    qs
}

fn sizes() -> Vec<usize> {
    match std::env::var("MATCHING_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![100, 1_000, 10_000],
    }
}

fn bulk_sizes() -> Vec<usize> {
    match std::env::var("MATCHING_BULK_SIZES") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => vec![100_000],
    }
}

/// Inserts per writer thread per measured round. Small enough that a
/// round stays in milliseconds, large enough that the O(len) ordering
/// scan inside each insert dominates the fixed per-insert overhead.
const INSERTS_PER_WRITER: usize = 64;

/// Write path: concurrent writers registering disjoint corpora into one
/// repository. Each timed round builds a fresh repository (construction
/// is one empty `Rcu` — noise next to the inserts) so every round
/// performs identical work.
fn bench_insert_writers(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_writers");
    for &threads in &[1usize, 2, 4, 8] {
        let corpus: Vec<Vec<(PhysicalPlan, String, RepoStats)>> = (0..threads)
            .map(|t| {
                (0..INSERTS_PER_WRITER)
                    .map(|k| {
                        let i = t * INSERTS_PER_WRITER + k;
                        (
                            entry_plan(i),
                            format!("/repo/{i}"),
                            RepoStats {
                                input_bytes: 10_000 - i as u64,
                                output_bytes: 100,
                                job_time_s: (1_000 - i) as f64,
                                ..Default::default()
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        group.throughput(Throughput::Elements((threads * INSERTS_PER_WRITER) as u64));
        group.bench_with_input(BenchmarkId::new("writers", threads), &threads, |b, &threads| {
            b.iter(|| {
                let repo = Repository::new();
                std::thread::scope(|scope| {
                    for slice in corpus.iter().take(threads) {
                        let repo = &repo;
                        scope.spawn(move || {
                            for (p, path, s) in slice {
                                black_box(repo.insert(p.clone(), path.clone(), s.clone()));
                            }
                        });
                    }
                });
                assert_eq!(repo.len(), threads * INSERTS_PER_WRITER);
                black_box(repo.publish_count())
            });
        });
    }
    group.finish();
}

/// One group of the concurrent match arms: `threads` submitters each
/// match their query mix against a fresh snapshot per query and
/// record every hit through the entry's shared atomics. Asserts the
/// path stayed write-free — matching and reuse accounting published no
/// snapshot.
fn bench_concurrent_matches(
    c: &mut Criterion,
    group: &str,
    repo: &Repository,
    n: usize,
    thread_counts: &[usize],
) {
    let tick = std::sync::atomic::AtomicU64::new(1);
    let publishes_before = repo.publish_count();
    let mut group = c.benchmark_group(format!("{group}/n{n}"));
    for &threads in thread_counts {
        group.throughput(Throughput::Elements((threads * QUERIES_PER_THREAD) as u64));
        let queries: Vec<Vec<PhysicalPlan>> = (0..threads).map(|t| thread_queries(n, t)).collect();
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for qs in &queries {
                        let tick = &tick;
                        scope.spawn(move || {
                            for q in qs {
                                let hit = black_box(repo.snapshot().find_first_match(q));
                                if let Some((id, _)) = hit {
                                    let t = tick.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    repo.note_use(id, t);
                                }
                            }
                        });
                    }
                });
            });
        });
    }
    group.finish();
    assert_eq!(repo.publish_count(), publishes_before, "the match path must be write-free");
}

/// 10⁵-entry arm: bulk-loaded corpus, snapshot + inverted index only.
fn bench_matching_bulk(c: &mut Criterion) {
    for &n in &bulk_sizes() {
        let items: Vec<_> = (0..n)
            .map(|i| {
                (
                    entry_plan(i),
                    format!("/repo/{i}"),
                    RepoStats {
                        input_bytes: 10 * n as u64 - i as u64,
                        output_bytes: 100,
                        job_time_s: (n - i) as f64,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let repo = Repository::bulk_load(items);
        assert_eq!(repo.len(), n, "generated plans must be signature-distinct");
        bench_concurrent_matches(c, "matching_bulk_indexed", &repo, n, &[1, 8]);
    }
}

fn bench_matching(c: &mut Criterion) {
    for &n in &sizes() {
        bench_concurrent_matches(c, "matching_snapshot_indexed", &repo_of(n), n, &[1, 2, 4, 8]);
    }
}

/// Analyzer ablation: the paraphrased-PigMix suite end-to-end, one
/// fresh session per round, `canonicalize` on vs off. Both arms pay
/// for the cold originals; the delta is the 13 paraphrase executions
/// the canonical form turns into repository hits. The arm *asserts*
/// the hit counts it claims (on: all paraphrases; off: none), so the
/// archived timings always describe the stated hit rates.
fn bench_paraphrase_reuse(c: &mut Criterion) {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0xF00D).expect("data generation");
    let round = AtomicUsize::new(0);
    let mut group = c.benchmark_group("paraphrase_reuse");
    for (label, canonicalize) in [("analyzer_on", true), ("analyzer_off", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                // Fresh session (empty repository) per round; the shared
                // DFS is read-only input data, outputs are round-unique.
                let r = round.fetch_add(1, Ordering::Relaxed);
                let engine = Engine::new(
                    dfs.clone(),
                    ClusterConfig::default(),
                    EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
                );
                let restore =
                    ReStore::new(engine, ReStoreConfig { canonicalize, ..Default::default() });
                let mut hits = 0usize;
                let mut total = 0usize;
                for (ci, case) in paraphrase_suite(&format!("/out/pp/{r}")).iter().enumerate() {
                    restore
                        .execute_query(&case.original, &format!("/wf/pp/{r}/{ci}/o"))
                        .expect("original runs");
                    for (i, p) in case.paraphrases.iter().enumerate() {
                        let e = restore
                            .execute_query(p, &format!("/wf/pp/{r}/{ci}/p{i}"))
                            .expect("paraphrase runs");
                        total += 1;
                        hits += (e.jobs_skipped > 0) as usize;
                    }
                }
                assert_eq!(
                    hits,
                    if canonicalize { total } else { 0 },
                    "paraphrase hit count must match the analyzer mode"
                );
                black_box(hits)
            });
        });
    }
    group.finish();
}

/// The analyzer's own price: `compile` vs `compile_canonical` over
/// every formulation in the paraphrase suite — the added per-compile
/// cost of buying the reuse measured by `paraphrase_reuse`.
fn bench_canon_compile(c: &mut Criterion) {
    let queries: Vec<String> = paraphrase_suite("/out/cc")
        .into_iter()
        .flat_map(|case| std::iter::once(case.original).chain(case.paraphrases))
        .collect();
    let mut group = c.benchmark_group("canon_compile");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.bench_function("plain", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(restore_dataflow::compile(q, "/wf").expect("compiles"));
            }
        });
    });
    group.bench_function("canonical", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(restore_dataflow::compile_canonical(q, "/wf").expect("compiles"));
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matching,
    bench_matching_bulk,
    bench_insert_writers,
    bench_paraphrase_reuse,
    bench_canon_compile
);
criterion_main!(benches);
