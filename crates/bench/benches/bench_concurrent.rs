//! Shared-session throughput: queries/second through one warmed `ReStore`
//! instance as the number of submitting threads grows (1/2/4/8).
//!
//! Two regimes:
//! * `warm` — every query is answered from the repository (whole-job
//!   reuse), so the benchmark isolates the match-loop and lock-contention
//!   cost of the shared session;
//! * `mixed` — each round uses fresh output paths, so jobs with reusable
//!   prefixes still execute, exercising wave-parallel execution plus
//!   concurrent registration on the write path.
//!
//! Each arm also reports the repository's write-side counters as
//! per-round deltas (`publishes/round`, `writer_sections/round`, from
//! [`ReStore::write_counters_as`]): warm rounds must show ~0 — serving
//! is read-only — while mixed rounds expose the registration churn.
//! The numbers are printed after each group and archived with the
//! entries in `BENCH_concurrent.json`.
//!
//! The warm arm also reports what one wave of the §3 loop costs —
//! `prepare` µs, probe iterations and applied rewrites per wave, µs per
//! probe — and asserts the budget: one probe and one rewrite per warm
//! job at every thread count, and `prepare` within [`PREPARE_FACTOR`]
//! (2×) of the same run's one-thread arm wherever the threads fit the
//! host's cores (past that the number measures the scheduler's time
//! slices, not the loop). Sharing the session must not slow the loop
//! down; an absolute budget measured the host instead, which reads
//! 8–19 µs/wave for the same code from one run to the next. The factor
//! comes from ten runs on a 2-core VM: the two-thread arm read 0.56–1.16×
//! the one-thread arm (7.7–14.9 µs against 9.6–14.2 µs). The budget is
//! held against the count-weighted median of the per-round means, not
//! the overall mean: one round that loses its core mid-`prepare` moves a
//! mean by more than the loop costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::{datagen, queries, DataScale};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 0xBE_2C_11;

/// How far `prepare` may rise above the one-thread arm's median at a
/// thread count the host's cores fit (see the module docs).
const PREPARE_FACTOR: f64 = 2.0;

fn shared_session() -> ReStore {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
    );
    ReStore::new(engine, ReStoreConfig::default())
}

/// The per-thread query mix: one multi-job workflow + two single-job ones.
fn mix(tag: &str) -> Vec<(String, String)> {
    vec![
        (queries::l3(&format!("/out/{tag}/l3")), format!("/wf/{tag}/l3")),
        (queries::l7(&format!("/out/{tag}/l7")), format!("/wf/{tag}/l7")),
        (queries::l8(&format!("/out/{tag}/l8")), format!("/wf/{tag}/l8")),
    ]
}

fn submit_round(rs: &ReStore, threads: usize, round: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rs = &*rs;
            scope.spawn(move || {
                for (q, prefix) in mix(&format!("r{round}-t{t}")) {
                    black_box(rs.execute_query(&q, &prefix).expect("query"));
                }
            });
        }
    });
}

/// Accumulates write-side counter deltas across measured rounds so the
/// archive can state how much write traffic each regime generated.
struct WriteCounterProbe<'a> {
    rs: &'a ReStore,
    rounds: AtomicU64,
    publishes: AtomicU64,
    sections: AtomicU64,
}

impl<'a> WriteCounterProbe<'a> {
    fn new(rs: &'a ReStore) -> Self {
        WriteCounterProbe {
            rs,
            rounds: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            sections: AtomicU64::new(0),
        }
    }

    /// Run `round` bracketed by counter reads and bank the delta.
    fn observe(&self, round: impl FnOnce()) {
        let (p0, s0) = self.rs.write_counters_as(None);
        round();
        let (p1, s1) = self.rs.write_counters_as(None);
        self.rounds.fetch_add(1, Ordering::Relaxed);
        self.publishes.fetch_add(p1 - p0, Ordering::Relaxed);
        self.sections.fetch_add(s1 - s0, Ordering::Relaxed);
    }

    /// Mean per-round deltas (includes the untimed warm-up round).
    fn report(&self, label: &str) {
        let rounds = self.rounds.load(Ordering::Relaxed).max(1);
        println!(
            "{label:<48} counters: publishes/round={:.1} writer_sections/round={:.1}",
            self.publishes.load(Ordering::Relaxed) as f64 / rounds as f64,
            self.sections.load(Ordering::Relaxed) as f64 / rounds as f64,
        );
    }
}

/// `(waves, raw-ns sum)` of the `prepare` stage so far.
fn prepare_totals(rs: &ReStore) -> (u64, u64) {
    rs.registry()
        .histogram_stats("restore_stage_seconds")
        .into_iter()
        .find(|(labels, ..)| labels.contains("stage=\"prepare\""))
        .map_or((0, 0), |(_, count, sum_ns)| (count, sum_ns))
}

/// The median of per-round `prepare` means, each round weighted by the
/// waves it ran: the µs/wave at which half of all waves sit in rounds
/// no slower.
fn weighted_median_us(rounds: &mut [(u64, u64)]) -> f64 {
    let mean_us = |&(waves, sum_ns): &(u64, u64)| sum_ns as f64 / waves.max(1) as f64 / 1e3;
    rounds.sort_by(|a, b| mean_us(a).total_cmp(&mean_us(b)));
    let half = rounds.iter().map(|r| r.0).sum::<u64>().div_ceil(2);
    let mut seen = 0;
    rounds
        .iter()
        .find(|r| {
            seen += r.0;
            seen >= half
        })
        .map_or(0.0, mean_us)
}

/// `(family, labels, count, raw-ns sum)` for every pipeline stage and
/// match sub-stage series the session has recorded.
fn stage_rows(rs: &ReStore) -> Vec<(String, String, u64, u64)> {
    let mut rows = Vec::new();
    for family in ["restore_stage_seconds", "restore_match_stage_seconds"] {
        for (labels, count, sum_ns) in rs.registry().histogram_stats(family) {
            rows.push((family.to_string(), labels, count, sum_ns));
        }
    }
    rows
}

/// Prints per-stage telemetry as a **delta against `baseline`** (taken
/// after the cold warm-up round), heaviest first: observation count,
/// total time, and mean per observation. The delta isolates the
/// measured rounds — without it the cold round's real MR executions
/// would swamp the warm-regime numbers. This is the read path the
/// warm-round cost analysis in DESIGN.md comes from. Returns the delta
/// rows.
fn report_stages(
    rs: &ReStore,
    baseline: &[(String, String, u64, u64)],
    label: &str,
) -> Vec<(String, String, u64, u64)> {
    let mut rows = stage_rows(rs);
    for row in &mut rows {
        if let Some(b) = baseline.iter().find(|b| b.0 == row.0 && b.1 == row.1) {
            row.2 -= b.2;
            row.3 -= b.3;
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.3));
    for (family, labels, count, sum_ns) in &rows {
        if *count == 0 {
            continue;
        }
        println!(
            "{label:<48} {family}{labels} count={count} total_ms={:.2} mean_us={:.1}",
            *sum_ns as f64 / 1e6,
            *sum_ns as f64 / *count as f64 / 1e3,
        );
    }
    rows
}

/// What one warm wave of the §3 loop costs, from the stage deltas: the
/// loop must spend one probe and one rewrite per job it answers, and
/// `prepare` — `prepare_median_us`, see [`weighted_median_us`] — must
/// stay within [`PREPARE_FACTOR`] × `one_thread_us` (the loop measures
/// ≈ 9–14 µs/wave since matches that cannot change the plan are
/// skipped; 65.4 before) unless the arm oversubscribes the host.
fn report_wave_cost(
    rows: &[(String, String, u64, u64)],
    label: &str,
    threads: usize,
    prepare_median_us: f64,
    one_thread_us: f64,
) {
    let budget_us = PREPARE_FACTOR * one_thread_us;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stage = |name: &str| {
        let key = format!("stage=\"{name}\"");
        rows.iter().find(|r| r.1.contains(&key)).map_or((0, 0), |r| (r.2, r.3))
    };
    let (waves, prepare_ns) = stage("prepare");
    let (probes, probe_ns) = stage("index_probe");
    let (rewrites, _) = stage("rewrite");
    let prepare_us = prepare_ns as f64 / waves as f64 / 1e3;
    println!(
        "{label:<48} per wave ({cores} host cores): prepare_us={prepare_us:.1} \
         prepare_median_us={prepare_median_us:.1} probe_iterations={:.2} rewrites={:.2} \
         probe_us_per_iteration={:.1}",
        probes as f64 / waves as f64,
        rewrites as f64 / waves as f64,
        probe_ns as f64 / probes as f64 / 1e3,
    );
    assert_eq!(probes, waves, "{label}: a warm whole-job hit takes exactly one probe");
    assert_eq!(rewrites, waves, "{label}: a warm whole-job hit applies exactly one rewrite");
    assert!(
        threads > cores || prepare_median_us <= budget_us,
        "{label}: prepare {prepare_median_us:.1} us/wave (median) exceeds the \
         {budget_us:.1} us budget ({PREPARE_FACTOR} x the one-thread arm's {one_thread_us:.1})"
    );
}

fn bench_warm_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_warm");
    group.sample_size(10);
    // The first arm's `prepare` median: every arm's budget is a multiple
    // of it.
    let mut one_thread_us = None;
    for &threads in &[1usize, 2, 4, 8] {
        // Fresh warmed session per thread count; round 0 fills the
        // repository so measured rounds are pure repository serving.
        let rs = shared_session();
        submit_round(&rs, threads, 0);
        let baseline = stage_rows(&rs);
        let round = AtomicU64::new(1);
        let probe = WriteCounterProbe::new(&rs);
        let mut prepare_rounds = Vec::new();
        group.throughput(Throughput::Elements((threads * 3) as u64));
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            // The histogram reads bracket the round outside its timed
            // region: the criterion timing is the round's alone, as it
            // was before the per-round `prepare` samples were taken.
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let before = prepare_totals(&rs);
                    let t0 = Instant::now();
                    probe.observe(|| {
                        submit_round(&rs, threads, round.fetch_add(1, Ordering::Relaxed))
                    });
                    timed += t0.elapsed();
                    let after = prepare_totals(&rs);
                    prepare_rounds.push((after.0 - before.0, after.1 - before.1));
                }
                timed
            });
        });
        let label = format!("concurrent_warm/threads/{threads}");
        probe.report(&label);
        let prepare_median_us = weighted_median_us(&mut prepare_rounds);
        let one_thread_us = *one_thread_us.get_or_insert(prepare_median_us);
        report_wave_cost(
            &report_stages(&rs, &baseline, &label),
            &label,
            threads,
            prepare_median_us,
            one_thread_us,
        );
    }
    group.finish();
}

fn bench_mixed_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_mixed");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        let rs = shared_session();
        // Paper-experiment mode: final outputs are not registered, so
        // every round re-executes final jobs over reused prefixes.
        let mut cfg = rs.config();
        cfg.register_final_outputs = false;
        rs.set_config(cfg);
        submit_round(&rs, threads, 0);
        let baseline = stage_rows(&rs);
        let round = AtomicU64::new(1);
        let probe = WriteCounterProbe::new(&rs);
        group.throughput(Throughput::Elements((threads * 3) as u64));
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &threads| {
            b.iter(|| {
                probe.observe(|| submit_round(&rs, threads, round.fetch_add(1, Ordering::Relaxed)))
            });
        });
        probe.report(&format!("concurrent_mixed/threads/{threads}"));
        report_stages(&rs, &baseline, &format!("concurrent_mixed/threads/{threads}"));
    }
    group.finish();
}

criterion_group!(benches, bench_warm_serving, bench_mixed_workload);
criterion_main!(benches);
