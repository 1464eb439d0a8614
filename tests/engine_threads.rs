//! What a job writes and what it is charged for do not depend on how many
//! worker threads ran it.
//!
//! The engine's ordering argument — map outputs are consumed in task
//! order, reduce outputs committed in partition order, the shuffle sort is
//! stable — is checked here on every job of the eight PigMix queries and
//! of one map-only projection, plain and instrumented with sub-job Stores
//! (so map-side and reduce-side side outputs are covered), at 1, 2 and 8
//! worker threads: every main and side output byte-identical, `Counters`
//! and `JobTimes` equal. CI runs this file in both profiles, since thread
//! interleavings differ between them.
//!
//! `tests/golden/engine_counters.txt` holds the same runs' `Counters` as
//! captured from the object-graph shuffle (the commit before map output
//! crossed threads as encoded runs), so "the cost model saw the same
//! numbers" is checked against that engine rather than against itself. On
//! a deliberate change to what is counted, the failing assertion prints
//! the new text to paste in.
//!
//! `tests/golden/engine_outputs.txt` pins the *content* the counters only
//! measure: a 64-bit digest and the length of every job's main and side
//! outputs, captured from the engine as it stood before map tasks decoded
//! narrow rows and encoded at emission. `restore-e2e`'s oracle compares a
//! build only with itself; this file is what makes "every committed byte
//! unchanged" a check across commits.
//!
//! As in the driver, the compiler's temporaries and the injected Stores'
//! candidates are written in the typed stored format, and a user's Stores
//! as text. The lines of the jobs that write or read typed files were
//! regenerated when those files became typed; every user-facing output
//! kept its digest. Each typed file is checked to be no larger than the
//! text its records would have been.

use restore_suite::common::{codec, typed};
use restore_suite::core::enumerator::{inject_subjob_stores, Heuristic};
use restore_suite::dataflow::compile_canonical;
use restore_suite::dataflow::exec::job_spec_for_plan;
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Counters, Engine, EngineConfig, JobTimes};
use restore_suite::pigmix::datagen::{self, PAGE_VIEWS};
use restore_suite::pigmix::{queries, DataScale};

struct JobRun {
    /// `"<mode> <query> job<i>"`.
    label: String,
    /// Main output first, then the side outputs in channel order.
    files: Vec<Vec<u8>>,
    counters: Counters,
    times: JobTimes,
}

/// FNV-1a, 64 bits: spelled out here so the digest cannot change with the
/// toolchain's hashers.
fn digest(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A typed file's records are no larger than their text, and its trailer
/// costs at most seven bytes per group beyond the footer. (The trailer is
/// what can make a whole file larger: one whose records are all a short
/// string is as long as its text, byte for byte.)
fn check_typed_size(path: &str, file: &[u8]) {
    let text = codec::encode_all(&typed::decode_any(file).unwrap()).len();
    let (index_len, footer_len) = typed::footer(file).unwrap();
    let data_len = file.len() - footer_len - index_len as usize;
    let index = typed::Index::parse(&file[data_len..file.len() - footer_len], data_len as u64);
    let groups = index.unwrap().groups().len() as u64;
    assert!(data_len <= text, "{path}: typed records {data_len} B, text {text} B");
    assert!(index_len <= 7 * groups, "{path}: {index_len} B of index for {groups} groups");
}

/// The standard workload has no map-only job; the direct-output commit
/// path gets one (`bench_engine`'s `scan_only` shape).
fn workload() -> Vec<(String, String)> {
    let mut queries = queries::standard_workload("/out");
    let scan = format!(
        "A = load '{PAGE_VIEWS}' as (user, action:int, timestamp:int, est_revenue:double, page_info, page_links);
         B = foreach A generate user, est_revenue;
         store B into '/out/scan';"
    );
    queries.push(("scan".to_string(), scan));
    queries
}

/// Run every job of the workload, in dependency order, on a fresh DFS with
/// `threads` engine workers.
fn run_workload(threads: usize, instrumented: bool) -> Vec<JobRun> {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 4 << 10, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0x5E570E).unwrap();
    let engine = Engine::new(
        dfs.clone(),
        ClusterConfig::default(),
        EngineConfig { worker_threads: threads, default_reduce_tasks: 7 },
    );
    let mode = if instrumented { "stores" } else { "plain" };
    let mut runs = Vec::new();
    for (query, text) in workload() {
        let (wf, _) = compile_canonical(&text, &format!("/wf/{query}")).unwrap();
        for idx in wf.topo_order().unwrap() {
            let mut plan = wf.jobs[idx].plan.clone();
            let mut typed_outputs = wf.jobs[idx].typed_outputs.clone();
            if instrumented {
                let mut n = 0;
                let mint = || {
                    n += 1;
                    format!("/restore/{query}/j{idx}c{n}")
                };
                let candidates =
                    inject_subjob_stores(&mut plan, Heuristic::Aggressive, mint, |_| false);
                typed_outputs.extend(
                    candidates.into_iter().filter(|c| !c.already_stored).map(|c| c.store_path),
                );
            }
            let label = format!("{mode} {query} job{idx}");
            let mut spec = job_spec_for_plan(&plan, &label).unwrap();
            spec.typed_outputs = typed_outputs;
            let result = engine.run(&spec).unwrap();
            let files: Vec<Vec<u8>> = std::iter::once(&spec.output)
                .chain(&spec.side_outputs)
                .map(|p| dfs.read_all(p).unwrap())
                .collect();
            for (path, file) in std::iter::once(&spec.output).chain(&spec.side_outputs).zip(&files)
            {
                let is_typed = spec.typed_outputs.contains(path);
                assert_eq!(typed::is_typed(file), is_typed && !file.is_empty(), "{path}");
                if is_typed && !file.is_empty() {
                    check_typed_size(path, file);
                }
            }
            runs.push(JobRun { label, files, counters: result.counters, times: result.times });
        }
    }
    runs
}

#[test]
fn outputs_counters_and_times_are_identical_at_1_2_and_8_threads() {
    let mut golden = String::new();
    let mut outputs = String::new();
    for instrumented in [false, true] {
        let base = run_workload(1, instrumented);
        assert!(base.iter().any(|r| r.counters.reduce_tasks > 0 && r.counters.output_bytes > 0));
        assert!(base.iter().any(|r| r.counters.is_map_only() && r.counters.output_bytes > 0));
        if instrumented {
            assert!(base.iter().any(|r| r.counters.map_side_bytes > 0), "a map-side Store");
            assert!(base.iter().any(|r| r.counters.reduce_side_bytes > 0), "a reduce-side Store");
        }
        for threads in [2, 8] {
            let other = run_workload(threads, instrumented);
            assert_eq!(base.len(), other.len());
            for (a, b) in base.iter().zip(&other) {
                assert_eq!(a.label, b.label);
                assert!(a.files == b.files, "{}: bytes differ at {threads} threads", a.label);
                assert_eq!(a.counters, b.counters, "{} at {threads} threads", a.label);
                assert_eq!(a.times, b.times, "{} at {threads} threads", a.label);
            }
        }
        for run in &base {
            golden.push_str(&format!("{} {:?}\n", run.label, run.counters));
            outputs.push_str(&run.label);
            for file in &run.files {
                outputs.push_str(&format!(" {:016x}/{}", digest(file), file.len()));
            }
            outputs.push('\n');
        }
    }
    let want = include_str!("golden/engine_counters.txt");
    assert!(golden == want, "engine counters changed; new text:\n{golden}");
    let want = include_str!("golden/engine_outputs.txt");
    assert!(outputs == want, "engine output bytes changed; new text:\n{outputs}");
}
