//! The traced run: the same passes taken apart into the public calls
//! they are made of, a span around each, and below them a ladder of
//! rungs that time every crate's entry points directly. Together they
//! say which layer an end-to-end millisecond was spent in.
//!
//! The ladder nests: an operation (`compile_as` + `submit_workflow` +
//! `wait`) contains the driver's `execute_workflow_as`, which contains
//! the engine's `run` of each job, which contains the DFS reads and
//! writes the job's counters report. Each is measured on its own, from
//! outside, and a layer's self time is its rung minus the rung below.
//! Nothing inside the program is instrumented.

use crate::bench::{Bench, Measured, Submitter};
use crate::env::Env;
use crate::oracle::Verifier;
use crate::report::{self, Report};
use crate::spans::{self_time_ns, Recorder, SpanId};
use crate::stats;
use crate::workload::Workload;
use restore_common::codec;
use restore_core::{QueryExecution, ReStore, ReStoreConfig};
use restore_dataflow::{exec, logical::LogicalPlan, lower, mr_compiler, optimizer, parser};
use restore_dfs::MetricsSnapshot;
use restore_mapreduce::task::{IdentityMapper, Mapper};
use restore_mapreduce::{JobInput, JobSpec};
use restore_pigmix::datagen::PAGE_VIEWS;
use restore_pigmix::DataScale;
use restore_service::{RestoreService, ServiceError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scratch prefix of the rungs that write to the DFS.
const LADDER: &str = "/ladder";
/// Passes behind every per-query median of a rung.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 50;

pub struct Layered {
    pub report: Report,
    /// Every span of the run, for `trace-<workload>.json`.
    pub trace_json: String,
}

/// Per-query samples of one call, one inner vector per query of the mix.
#[derive(Default)]
struct PerQuery(Vec<Vec<f64>>);

impl PerQuery {
    fn new(queries: usize) -> Self {
        PerQuery(vec![Vec::new(); queries])
    }

    fn push(&mut self, q: usize, value: f64) {
        self.0[q].push(value);
    }

    /// Median per query; a query never sampled counts as zero.
    fn medians(&self) -> Vec<f64> {
        self.0.iter().map(|s| if s.is_empty() { 0.0 } else { stats::median(s) }).collect()
    }

    /// One pass's worth: the sum over queries of each query's median.
    fn pass_total(&self) -> f64 {
        self.medians().iter().sum()
    }

    fn median_of_all(&self) -> f64 {
        let all: Vec<f64> = self.0.iter().flatten().copied().collect();
        if all.is_empty() {
            0.0
        } else {
            stats::median(&all)
        }
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Sum of every series of one family in a Prometheus text exposition.
fn exposition_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The pass as the service's users run it, but with `submit` taken
/// apart: `compile_as`, `submit_workflow`, `wait`.
struct ServiceCalls<'r> {
    rec: &'r mut Recorder,
    out: ServiceSamples,
    before: (f64, f64),
}

/// What [`ServiceCalls`] measured.
#[derive(Default)]
struct ServiceSamples {
    ops: Vec<SpanId>,
    wall_ms: PerQuery,
    compile_ms: PerQuery,
    submit_ms: PerQuery,
    wait_ms: PerQuery,
    /// `service_queue_wait_seconds`: sum and count over the passes.
    queue_wait_s: f64,
    queue_waits: f64,
    rejected: u64,
}

impl<'r> ServiceCalls<'r> {
    fn new(rec: &'r mut Recorder, queries: usize) -> Self {
        ServiceCalls {
            rec,
            out: ServiceSamples {
                wall_ms: PerQuery::new(queries),
                compile_ms: PerQuery::new(queries),
                submit_ms: PerQuery::new(queries),
                wait_ms: PerQuery::new(queries),
                ..Default::default()
            },
            before: (0.0, 0.0),
        }
    }

    fn queue_wait(service: &RestoreService) -> (f64, f64) {
        let text = service.render_metrics();
        (
            exposition_sum(&text, "service_queue_wait_seconds_sum"),
            exposition_sum(&text, "service_queue_wait_seconds_count"),
        )
    }
}

impl Submitter for ServiceCalls<'_> {
    fn begin(&mut self, service: &RestoreService) {
        self.before = Self::queue_wait(service);
    }

    fn submit(
        &mut self,
        service: &RestoreService,
        q: usize,
        text: &str,
        wf_prefix: &str,
    ) -> Result<QueryExecution, ServiceError> {
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let op_no = out.ops.len() as u64;
        let op = rec.begin("op", None, op_no);
        let (wf, compile_ms) = rec.time("core.compile_as", Some(op), op_no, || {
            service.driver().compile_as(None, text, wf_prefix)
        });
        let result = wf.map_err(ServiceError::Query).and_then(|wf| {
            let (handle, submit_ms) = rec.time("service.submit_workflow", Some(op), op_no, || {
                service.submit_workflow(None, wf)
            });
            out.submit_ms.push(q, submit_ms);
            let handle = handle?;
            let (result, wait_ms) = rec.time("service.wait", Some(op), op_no, || handle.wait());
            out.wait_ms.push(q, wait_ms);
            result
        });
        rec.end(op);
        out.compile_ms.push(q, compile_ms);
        out.wall_ms.push(q, rec.spans()[op].duration_ns() as f64 / 1e6);
        out.ops.push(op);
        result
    }

    fn end(&mut self, service: &RestoreService) {
        let after = Self::queue_wait(service);
        self.out.queue_wait_s += after.0 - self.before.0;
        self.out.queue_waits += after.1 - self.before.1;
        self.out.rejected = service.stats().rejected;
    }
}

/// One executed job of a query, as its counters describe it.
#[derive(Clone)]
struct ExecutedJob {
    /// Index in the compiled workflow.
    idx: usize,
    map_input_bytes: u64,
    written_bytes: u64,
}

/// Counters of the driver and the DFS, read before and after a pass.
#[derive(Clone, Copy, Default)]
struct Counts {
    dfs: MetricsSnapshot,
    publishes: u64,
    writer_sections: u64,
    journal_seq: u64,
    match_hits: f64,
    match_misses: f64,
}

impl Counts {
    fn read(service: &RestoreService) -> Counts {
        let driver = service.driver();
        let (publishes, writer_sections) = driver.write_counters_as(None);
        let text = service.render_metrics();
        Counts {
            dfs: driver.engine().dfs().metrics(),
            publishes,
            writer_sections,
            journal_seq: driver.journal_stats().seq,
            match_hits: exposition_sum(&text, "restore_match_hits_total"),
            match_misses: exposition_sum(&text, "restore_match_misses_total"),
        }
    }
}

/// The same pass with the queue taken out: `compile_as`, then
/// `execute_workflow_as` on the session's driver, on this thread.
struct DriverCalls<'r> {
    rec: &'r mut Recorder,
    out: DriverSamples,
    before: Counts,
}

/// What [`DriverCalls`] measured.
#[derive(Default)]
struct DriverSamples {
    ops: u64,
    compile_ms: PerQuery,
    execute_ms: PerQuery,
    /// The jobs each query last executed (the same in every pass).
    executed: Vec<Vec<ExecutedJob>>,
    /// Sums over every operation of every pass.
    delta: Counts,
    jobs: u64,
    jobs_skipped: u64,
    rewrites: u64,
    candidates_stored: u64,
    candidate_bytes: u64,
    modeled_s: f64,
    map_input_bytes: u64,
    shuffle_bytes: u64,
    tasks: u64,
    /// Read when the last pass's clock stopped.
    repo_entries: usize,
    never_used: usize,
    dfs_used_bytes: u64,
}

impl DriverSamples {
    fn new(queries: usize) -> Self {
        DriverSamples {
            compile_ms: PerQuery::new(queries),
            execute_ms: PerQuery::new(queries),
            executed: vec![Vec::new(); queries],
            ..Default::default()
        }
    }

    fn note(&mut self, q: usize, exec: &QueryExecution) {
        self.jobs_skipped += exec.jobs_skipped as u64;
        self.rewrites += exec.rewrites.len() as u64;
        self.candidates_stored += exec.candidates_stored as u64;
        self.candidate_bytes += exec.stored_candidate_bytes;
        self.modeled_s += exec.total_s;
        self.executed[q].clear();
        for job in &exec.job_results {
            let c = &job.counters;
            self.map_input_bytes += c.map_input_bytes;
            self.shuffle_bytes += c.map_output_bytes;
            self.tasks += c.map_tasks + c.reduce_tasks;
            // The driver names a job `q<tick>-job<index>`.
            let idx = job.job_name.rsplit("-job").next().and_then(|i| i.parse().ok());
            self.executed[q].push(ExecutedJob {
                idx: idx.unwrap_or(usize::MAX),
                map_input_bytes: c.map_input_bytes,
                written_bytes: c.output_bytes + c.side_bytes_total(),
            });
        }
    }
}

impl Submitter for DriverCalls<'_> {
    fn begin(&mut self, service: &RestoreService) {
        self.before = Counts::read(service);
    }

    fn submit(
        &mut self,
        service: &RestoreService,
        q: usize,
        text: &str,
        wf_prefix: &str,
    ) -> Result<QueryExecution, ServiceError> {
        let driver = service.driver();
        let (rec, out) = (&mut *self.rec, &mut self.out);
        let op_no = out.ops;
        out.ops += 1;
        let op = rec.begin("op.direct", None, op_no);
        let (wf, compile_ms) = rec
            .time("core.compile_as", Some(op), op_no, || driver.compile_as(None, text, wf_prefix));
        let result = wf.and_then(|wf| {
            out.jobs += wf.jobs.len() as u64;
            let (result, execute_ms) =
                rec.time("core.execute_workflow_as", Some(op), op_no, || {
                    driver.execute_workflow_as(None, wf)
                });
            out.execute_ms.push(q, execute_ms);
            result
        });
        rec.end(op);
        out.compile_ms.push(q, compile_ms);
        if let Ok(exec) = &result {
            out.note(q, exec);
        }
        result.map_err(ServiceError::Query)
    }

    fn end(&mut self, service: &RestoreService) {
        let after = Counts::read(service);
        let (b, out) = (self.before, &mut self.out);
        let d = &mut out.delta;
        d.dfs.bytes_read += after.dfs.bytes_read - b.dfs.bytes_read;
        d.dfs.bytes_written += after.dfs.bytes_written - b.dfs.bytes_written;
        d.dfs.logical_bytes_written +=
            after.dfs.logical_bytes_written - b.dfs.logical_bytes_written;
        d.dfs.files_created += after.dfs.files_created - b.dfs.files_created;
        d.dfs.files_deleted += after.dfs.files_deleted - b.dfs.files_deleted;
        d.publishes += after.publishes - b.publishes;
        d.writer_sections += after.writer_sections - b.writer_sections;
        d.journal_seq += after.journal_seq - b.journal_seq;
        d.match_hits += after.match_hits - b.match_hits;
        d.match_misses += after.match_misses - b.match_misses;
        let stats = service.driver().stats_as(None);
        out.repo_entries = stats.repository_entries;
        out.never_used = stats.never_used;
        out.dfs_used_bytes = service.driver().engine().dfs().used_bytes();
    }
}

/// Run traced passes of client 0 until `window` has passed, at least
/// [`MIN_REPS`] and at most [`MAX_REPS`] of them. Returns
/// `(attempted, failed, timed seconds)`.
fn traced_passes(
    bench: &Bench,
    via: &mut dyn Submitter,
    next_pass: &mut u64,
    window: Duration,
) -> (u64, u64, f64) {
    let mut verifier = Verifier::default();
    let (mut attempted, mut failed, mut timed_s) = (0, 0, 0.0);
    let started = Instant::now();
    for rep in 0..MAX_REPS {
        if rep >= MIN_REPS && started.elapsed() >= window {
            break;
        }
        let pass = bench.pass_with(0, *next_pass, &mut verifier, via);
        *next_pass += 1;
        attempted += pass.wall_ms.len() as u64;
        failed += pass.failed;
        timed_s += pass.timed_s;
    }
    (attempted, failed, timed_s)
}

/// `execute_workflow_as` of every query on a no-reuse driver: what the
/// same queries cost with ReStore out of the way.
fn baseline_execute_ms(env: &Env, workload: Workload, rec: &mut Recorder) -> Vec<f64> {
    let driver = ReStore::new(env.engine.clone(), ReStoreConfig::baseline());
    let queries = workload.mix(LADDER).len();
    let mut execute_ms = PerQuery::new(queries);
    for rep in 0..MIN_REPS {
        let out = format!("{LADDER}/baseline/{rep}");
        for (q, (label, text)) in workload.mix(&out).iter().enumerate() {
            let op_no = (rep * queries + q) as u64;
            let op = rec.begin("op.baseline", None, op_no);
            let wf = driver
                .compile_as(None, text, &format!("{out}/wf/{label}"))
                .expect("baseline compile");
            let (result, ms) = rec.time("core.execute_workflow_as", Some(op), op_no, || {
                driver.execute_workflow_as(None, wf)
            });
            rec.end(op);
            result.expect("baseline execution");
            execute_ms.push(q, ms);
        }
        env.dfs().delete_prefix(&out);
    }
    execute_ms.medians()
}

/// The compiler's stages, per query, microseconds.
struct DataflowRung {
    compile_us: f64,
    compile_canonical_us: f64,
    analyzer_us: f64,
    parse_us: f64,
    plan_us: f64,
    segment_us: f64,
    jobs_per_query: f64,
    plan_nodes_per_query: f64,
}

fn dataflow_rung(workload: Workload, rec: &mut Recorder) -> DataflowRung {
    const REPS: usize = 15;
    let mix = workload.mix(LADDER);
    let n = mix.len();
    let mut stage: [PerQuery; 6] = std::array::from_fn(|_| PerQuery::new(n));
    let (mut jobs, mut nodes) = (0usize, 0usize);
    for rep in 0..REPS {
        for (q, (label, text)) in mix.iter().enumerate() {
            let op_no = (rep * n + q) as u64;
            let wf_prefix = format!("{LADDER}/wf/{label}");
            let op = rec.begin("op.compile", None, op_no);
            let (wf, ms) = rec.time("dataflow.compile", Some(op), op_no, || {
                restore_dataflow::compile(text, &wf_prefix).expect("compile")
            });
            stage[0].push(q, ms * 1e3);
            let ((_, timings), ms) =
                rec.time("dataflow.compile_canonical", Some(op), op_no, || {
                    restore_dataflow::compile_canonical(text, &wf_prefix).expect("compile")
                });
            stage[1].push(q, ms * 1e3);
            stage[2].push(q, timings.iter().map(|(_, d)| d.as_secs_f64() * 1e6).sum());
            let (program, ms) =
                rec.time("dataflow.parse", Some(op), op_no, || parser::parse(text).expect("parse"));
            stage[3].push(q, ms * 1e3);
            let (physical, ms) = rec.time("dataflow.plan", Some(op), op_no, || {
                let logical = optimizer::optimize(LogicalPlan::from_ast(&program).expect("plan"));
                lower::lower(&logical).expect("lower")
            });
            stage[4].push(q, ms * 1e3);
            let (segmented, ms) = rec.time("dataflow.segment", Some(op), op_no, || {
                mr_compiler::compile_plan(&physical, &wf_prefix).expect("segment")
            });
            stage[5].push(q, ms * 1e3);
            rec.end(op);
            assert_eq!(segmented.jobs.len(), wf.jobs.len(), "stages and compile agree");
            if rep == 0 {
                jobs += wf.jobs.len();
                nodes += wf.jobs.iter().map(|j| j.plan.len()).sum::<usize>();
            }
        }
    }
    let per_query = |s: &PerQuery| s.pass_total() / n as f64;
    DataflowRung {
        compile_us: per_query(&stage[0]),
        compile_canonical_us: per_query(&stage[1]),
        analyzer_us: per_query(&stage[2]),
        parse_us: per_query(&stage[3]),
        plan_us: per_query(&stage[4]),
        segment_us: per_query(&stage[5]),
        jobs_per_query: jobs as f64 / n as f64,
        plan_nodes_per_query: nodes as f64 / n as f64,
    }
}

/// `Engine::run` of every compiled job of every query, unrewritten, into
/// a scratch prefix.
struct MapReduceRung {
    /// Median run time of job `idx` of query `q`, ms, with the input
    /// bytes its map tasks counted.
    jobs: Vec<Vec<(f64, u64)>>,
    job_spec_us_per_query: f64,
    records_per_s: f64,
    identity_scan_mb_s: f64,
}

fn mapreduce_rung(env: &Env, workload: Workload, rec: &mut Recorder) -> MapReduceRung {
    let canonical = workload.config().canonicalize;
    let mix = workload.mix(&format!("{LADDER}/out"));
    let mut run_ms: Vec<Vec<Vec<f64>>> = vec![Vec::new(); mix.len()];
    let mut input_bytes: Vec<Vec<u64>> = vec![Vec::new(); mix.len()];
    let mut spec_us = PerQuery::new(mix.len());
    let (mut records, mut run_s) = (0u64, 0.0);
    for rep in 0..MIN_REPS {
        for (q, (label, text)) in mix.iter().enumerate() {
            let op_no = (rep * mix.len() + q) as u64;
            let wf_prefix = format!("{LADDER}/wf/{label}");
            let wf = if canonical {
                restore_dataflow::compile_canonical(text, &wf_prefix).expect("compile").0
            } else {
                restore_dataflow::compile(text, &wf_prefix).expect("compile")
            };
            run_ms[q].resize(wf.jobs.len(), Vec::new());
            input_bytes[q].resize(wf.jobs.len(), 0);
            let op = rec.begin("op.replay", None, op_no);
            let mut query_spec_us = 0.0;
            for idx in wf.topo_order().expect("acyclic workflow") {
                let (spec, ms) = rec.time("dataflow.job_spec", Some(op), op_no, || {
                    exec::job_spec(&wf.jobs[idx], &format!("ladder-job{idx}")).expect("job spec")
                });
                query_spec_us += ms * 1e3;
                let (result, ms) = rec.time("mapreduce.run", Some(op), op_no, || {
                    env.engine.run(&spec).expect("job run")
                });
                run_ms[q][idx].push(ms);
                input_bytes[q][idx] = result.counters.map_input_bytes;
                records += result.counters.map_input_records;
                run_s += ms / 1e3;
            }
            rec.end(op);
            spec_us.push(q, query_spec_us);
            env.dfs().delete_prefix(LADDER);
        }
    }

    // The framework's own cost: a map-only job that forwards each record.
    let mapper = Arc::new(|| Box::new(IdentityMapper) as Box<dyn Mapper>);
    let spec = JobSpec::new(
        "ladder-identity",
        vec![JobInput::new(PAGE_VIEWS)],
        format!("{LADDER}/identity"),
        mapper,
        None,
    );
    let mut scan_s = Vec::new();
    for rep in 0..MIN_REPS {
        let (result, ms) = rec.time("mapreduce.run", None, rep as u64, || env.engine.run(&spec));
        result.expect("identity scan");
        scan_s.push(ms / 1e3);
        env.dfs().delete_prefix(LADDER);
    }

    MapReduceRung {
        jobs: run_ms
            .iter()
            .zip(&input_bytes)
            .map(|(jobs, bytes)| {
                jobs.iter().map(|s| stats::median(s)).zip(bytes.iter().copied()).collect()
            })
            .collect(),
        job_spec_us_per_query: spec_us.pass_total() / mix.len() as f64,
        records_per_s: ratio(records as f64, run_s),
        identity_scan_mb_s: ratio(env.data.page_views_bytes as f64 / 1e6, stats::median(&scan_s)),
    }
}

/// Whole-file read, split-by-split read and replicated write of the
/// fact table, MB/s, and the codec over the same bytes.
struct IoRung {
    read_mb_s: f64,
    split_read_mb_s: f64,
    write_mb_s: f64,
    decode_mb_s: f64,
    encode_mb_s: f64,
}

fn io_rung(env: &Env, rec: &mut Recorder) -> IoRung {
    let dfs = env.dfs();
    let mb = env.data.page_views_bytes as f64 / 1e6;
    let mut s: [Vec<f64>; 5] = Default::default();
    for rep in 0..MIN_REPS as u64 {
        let (bytes, ms) =
            rec.time("dfs.read_all", None, rep, || dfs.read_all(PAGE_VIEWS).expect("read"));
        s[0].push(ms);
        let (_, ms) = rec.time("dfs.splits+read_range", None, rep, || {
            for split in dfs.splits(PAGE_VIEWS).expect("splits") {
                std::hint::black_box(
                    dfs.read_range(PAGE_VIEWS, split.offset, split.len).expect("read"),
                );
            }
        });
        s[1].push(ms);
        let path = format!("{LADDER}/write");
        let (written, ms) = rec.time("dfs.write_all", None, rep, || dfs.write_all(&path, &bytes));
        written.expect("write");
        s[2].push(ms);
        dfs.delete_prefix(LADDER);
        let (rows, ms) =
            rec.time("common.decode_all", None, rep, || codec::decode_all(&bytes).expect("decode"));
        s[3].push(ms);
        let (encoded, ms) = rec.time("common.encode_all", None, rep, || codec::encode_all(&rows));
        s[4].push(ms);
        assert_eq!(encoded.len(), bytes.len(), "codec round trip");
    }
    let mb_s = |ms: &[f64]| ratio(mb, stats::median(ms) / 1e3);
    IoRung {
        read_mb_s: mb_s(&s[0]),
        split_read_mb_s: mb_s(&s[1]),
        write_mb_s: mb_s(&s[2]),
        decode_mb_s: mb_s(&s[3]),
        encode_mb_s: mb_s(&s[4]),
    }
}

/// Each executed job's counted input and output bytes, replayed as bare
/// `read_range` and `write_all` calls: the DFS time inside a query. Per
/// query, ms.
fn replayed_io_ms(env: &Env, executed: &[Vec<ExecutedJob>], rec: &mut Recorder) -> Vec<f64> {
    let dfs = env.dfs();
    let block = dfs.config().block_size;
    let file_len = env.data.page_views_bytes;
    let payload = dfs.read_all(PAGE_VIEWS).expect("read");
    let mut io_ms = PerQuery::new(executed.len());
    for rep in 0..MIN_REPS {
        for (q, jobs) in executed.iter().enumerate() {
            let op_no = (rep * executed.len() + q) as u64;
            let (_, ms) = rec.time("dfs.replay", None, op_no, || {
                let mut offset = 0u64;
                for (k, job) in jobs.iter().enumerate() {
                    let mut left = job.map_input_bytes;
                    while left > 0 {
                        let len = left.min(block).min(file_len - offset);
                        std::hint::black_box(
                            dfs.read_range(PAGE_VIEWS, offset, len).expect("read"),
                        );
                        left -= len;
                        offset = (offset + len) % file_len;
                    }
                    let mut to_write = job.written_bytes as usize;
                    let mut part = 0;
                    while to_write > 0 {
                        let len = to_write.min(payload.len());
                        dfs.write_all(&format!("{LADDER}/io/{k}-{part}"), &payload[..len])
                            .expect("write");
                        to_write -= len;
                        part += 1;
                    }
                }
            });
            io_ms.push(q, ms);
            dfs.delete_prefix(LADDER);
        }
    }
    io_ms.medians()
}

/// The traced run of one workload: one untraced and one traced round for
/// the tracing overhead, the pass with the queue taken out, the no-reuse
/// baseline, then the rungs below.
pub fn run(workload: Workload, scale: DataScale, seed: u64, seconds: f64) -> Layered {
    let bench = Bench::set_up(workload, scale, seed);
    let env = &bench.env;
    let queries = workload.mix(LADDER).len();
    let n = queries as f64;
    let window = Duration::from_secs_f64(seconds / 5.0);
    let mut rec = Recorder::new();
    let (mut attempted, mut failed) = (0, bench.setup_failed);

    // Tracing overhead: the same single client, spans off, then on.
    let mut next = [1u64];
    let untraced = bench.round(window, &mut next);
    attempted += untraced.attempted;
    failed += untraced.failed;
    let [mut next_pass] = next;
    let mut served = ServiceCalls::new(&mut rec, queries);
    let (ops, bad, timed_s) = traced_passes(&bench, &mut served, &mut next_pass, window);
    attempted += ops;
    failed += bad;
    let traced_qps = ratio((ops - bad) as f64, timed_s);
    let ServiceSamples {
        ops,
        wall_ms,
        compile_ms,
        submit_ms,
        wait_ms,
        queue_wait_s,
        queue_waits,
        rejected,
    } = served.out;
    // What an operation spends outside its three calls: the client's own
    // loop, counted with the service's hand-off.
    let op_self_ms: Vec<f64> =
        ops.iter().map(|&op| self_time_ns(rec.spans(), op) as f64 / 1e6).collect();
    let op_self_ms = stats::median(&op_self_ms) * n;

    let mut direct =
        DriverCalls { rec: &mut rec, out: DriverSamples::new(queries), before: Counts::default() };
    let (ops, bad, _) = traced_passes(&bench, &mut direct, &mut next_pass, window);
    attempted += ops;
    failed += bad;
    let d = direct.out;
    let direct_ops = d.ops as f64;

    let baseline_ms = baseline_execute_ms(env, workload, &mut rec);
    let dataflow = dataflow_rung(workload, &mut rec);
    let mapreduce = mapreduce_rung(env, workload, &mut rec);
    let io = io_rung(env, &mut rec);
    let io_ms = replayed_io_ms(env, &d.executed, &mut rec);

    // Engine time inside each query: the replayed run time of the jobs
    // it executed. A job that ran rewritten (on stored inputs) is scaled
    // by the input bytes its map tasks counted, which is an estimate.
    let execute_ms = d.execute_ms.medians();
    let engine_ms: Vec<f64> = d
        .executed
        .iter()
        .enumerate()
        .map(|(q, jobs)| {
            jobs.iter()
                .filter_map(|job| {
                    let (ms, bytes) = *mapreduce.jobs[q].get(job.idx)?;
                    Some(ms * ratio(job.map_input_bytes as f64, bytes as f64).min(1.0))
                })
                .sum()
        })
        .collect();
    let vs_baseline: Vec<f64> = execute_ms.iter().zip(&baseline_ms).map(|(e, b)| e - b).collect();
    let replayed_jobs: Vec<f64> = mapreduce.jobs.iter().flatten().map(|(ms, _)| *ms).collect();

    // Pass totals (each query's median, summed over the mix), ms.
    let wall = wall_ms.pass_total();
    let served_ms = submit_ms.pass_total() + wait_ms.pass_total();
    let execute: f64 = execute_ms.iter().sum();
    let engine: f64 = engine_ms.iter().sum();
    let dfs_io: f64 = io_ms.iter().sum();
    let shares = [
        ratio(op_self_ms + served_ms - execute, wall),
        ratio(execute - engine, wall),
        ratio(compile_ms.pass_total(), wall),
        ratio(engine - dfs_io, wall),
        ratio(dfs_io, wall),
    ];
    let share_sum: f64 = shares.iter().sum();
    // The rungs were measured apart; where the shares are defined they
    // must still add up to the operation they divide.
    if matches!(workload, Workload::Plain | Workload::ServeWarm)
        && !(0.9..=1.1).contains(&share_sum)
    {
        eprintln!(
            "restore-e2e: layer shares of {} sum to {share_sum}, outside 0.9..1.1",
            workload.name()
        );
        failed += 1;
    }

    let all_compiles: Vec<f64> =
        compile_ms.0.iter().chain(&d.compile_ms.0).flatten().copied().collect();
    let values: HashMap<&str, f64> = HashMap::from([
        ("service.submit_us", submit_ms.median_of_all() * 1e3),
        ("service.handoff_us", (served_ms - execute) / n * 1e3),
        ("service.queue_wait_us_mean", ratio(queue_wait_s, queue_waits) * 1e6),
        ("service.rejected", rejected as f64),
        ("core.compile_as_us", stats::median(&all_compiles) * 1e3),
        ("core.execute_ms", execute / n),
        ("core.materialize_overhead_ms", stats::median(&vs_baseline)),
        ("core.reuse_saving_ms", -stats::median(&vs_baseline)),
        ("core.jobs_skipped_share", ratio(d.jobs_skipped as f64, d.jobs as f64)),
        ("core.rewrites_per_query", d.rewrites as f64 / direct_ops),
        (
            "core.match_hit_share",
            ratio(d.delta.match_hits, d.delta.match_hits + d.delta.match_misses),
        ),
        ("core.candidates_stored_per_query", d.candidates_stored as f64 / direct_ops),
        ("core.candidate_bytes_per_query", d.candidate_bytes as f64 / direct_ops),
        ("core.repo_entries", d.repo_entries as f64),
        ("core.never_used_share", ratio(d.never_used as f64, d.repo_entries as f64)),
        ("core.publishes_per_query", d.delta.publishes as f64 / direct_ops),
        ("core.writer_sections_per_query", d.delta.writer_sections as f64 / direct_ops),
        ("core.journal_records_per_query", d.delta.journal_seq as f64 / direct_ops),
        ("core.modeled_s_timed_per_query", d.modeled_s / direct_ops),
        ("dataflow.compile_us", dataflow.compile_us),
        ("dataflow.compile_canonical_us", dataflow.compile_canonical_us),
        ("dataflow.analyzer_us", dataflow.analyzer_us),
        ("dataflow.parse_us", dataflow.parse_us),
        ("dataflow.plan_us", dataflow.plan_us),
        ("dataflow.segment_us", dataflow.segment_us),
        ("dataflow.job_spec_us", mapreduce.job_spec_us_per_query),
        ("dataflow.jobs_per_query", dataflow.jobs_per_query),
        ("dataflow.plan_nodes_per_query", dataflow.plan_nodes_per_query),
        ("mapreduce.run_ms_per_job", stats::mean(&replayed_jobs)),
        ("mapreduce.identity_scan_mb_s", mapreduce.identity_scan_mb_s),
        ("mapreduce.records_per_s", mapreduce.records_per_s),
        ("mapreduce.map_input_mb_per_query", d.map_input_bytes as f64 / 1e6 / direct_ops),
        ("mapreduce.shuffle_mb_per_query", d.shuffle_bytes as f64 / 1e6 / direct_ops),
        ("mapreduce.tasks_per_query", d.tasks as f64 / direct_ops),
        ("dfs.read_mb_s", io.read_mb_s),
        ("dfs.split_read_mb_s", io.split_read_mb_s),
        ("dfs.write_mb_s", io.write_mb_s),
        ("dfs.bytes_read_per_query", d.delta.dfs.bytes_read as f64 / direct_ops),
        ("dfs.bytes_written_per_query", d.delta.dfs.bytes_written as f64 / direct_ops),
        (
            "dfs.logical_bytes_written_per_query",
            d.delta.dfs.logical_bytes_written as f64 / direct_ops,
        ),
        ("dfs.files_created_per_query", d.delta.dfs.files_created as f64 / direct_ops),
        ("dfs.files_deleted_per_query", d.delta.dfs.files_deleted as f64 / direct_ops),
        ("dfs.replayed_io_ms_per_query", dfs_io / n),
        ("dfs.used_mb_end", d.dfs_used_bytes as f64 / 1e6),
        ("common.decode_mb_s", io.decode_mb_s),
        ("common.encode_mb_s", io.encode_mb_s),
        ("share.service", shares[0]),
        ("share.core", shares[1]),
        ("share.dataflow_compile", shares[2]),
        ("share.mapreduce_exec", shares[3]),
        ("share.dfs_replayed", shares[4]),
        ("share.sum", share_sum),
        ("trace.overhead_share", 1.0 - ratio(traced_qps, untraced.qps)),
    ]);

    let metrics = report::PER_LAYER
        .iter()
        .map(|def| {
            let value =
                *values.get(def.name).unwrap_or_else(|| panic!("{} not measured", def.name));
            (def, Measured::exact(if value.is_finite() { value } else { 0.0 }))
        })
        .collect();
    Layered {
        report: Report { workload: workload.name(), attempted, failed, metrics },
        trace_json: rec.to_json(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_sum_adds_the_series_of_one_family_only() {
        let text = "# HELP restore_match_hits_total hits\n\
                    restore_match_hits_total{tenant=\"\",shard=\"0\"} 3\n\
                    restore_match_hits_total{tenant=\"a\",shard=\"0\"} 4\n\
                    restore_match_hits_total_extra 100\n\
                    service_queue_wait_seconds_sum 0.25\n\
                    service_queue_wait_seconds_count 5\n";
        assert_eq!(exposition_sum(text, "restore_match_hits_total"), 7.0);
        assert_eq!(exposition_sum(text, "service_queue_wait_seconds_sum"), 0.25);
        assert_eq!(exposition_sum(text, "absent_family"), 0.0);
    }

    #[test]
    fn the_traced_run_reports_every_layer_metric_and_the_shares_add_up() {
        let layered = run(Workload::Plain, DataScale::tiny(), 11, 0.25);
        assert_eq!(layered.report.failed, 0);
        assert_eq!(layered.report.metrics.len(), report::PER_LAYER.len());
        let value = |name: &str| {
            layered
                .report
                .metrics
                .iter()
                .find(|(d, _)| d.name == name)
                .map(|(_, m)| m.value)
                .unwrap()
        };
        assert!((0.9..=1.1).contains(&value("share.sum")));
        assert!(value("share.mapreduce_exec") > 0.5, "plain is execution bound");
        assert_eq!(value("core.publishes_per_query"), 0.0, "no repository without reuse");
        assert!(layered.trace_json.contains("\"name\": \"mapreduce.run\""));
    }

    #[test]
    fn per_query_totals_sum_the_medians() {
        let mut s = PerQuery::new(3);
        for v in [1.0, 9.0, 2.0] {
            s.push(0, v);
        }
        s.push(1, 10.0);
        assert_eq!(s.medians(), vec![2.0, 10.0, 0.0]);
        assert_eq!(s.pass_total(), 12.0);
        assert_eq!(s.median_of_all(), 5.5);
    }
}
