//! The shared-session guarantees of the wave-parallel driver:
//!
//! 1. wave-parallel execution is **byte-identical** to strict sequential
//!    execution (the paper's Algorithm 1) on multi-job PigMix workflows;
//! 2. one `ReStore` instance serves **concurrent query submissions** from
//!    many threads against a single shared repository, without changing
//!    any query's answer;
//! 3. the repository stays consistent under that concurrency: every
//!    entry's output exists in the DFS, usage accounting adds up, and the
//!    session state still round-trips through save/load.

use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::DfsConfig;
use restore_suite::mapreduce::{Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_testkit::{check_repository, engine_over, read_lines_sorted, small_dfs, Oracle};

const SEED: u64 = 0xC0FFEE;

fn engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }))
}

/// The workload of one session: multi-job L11 (3 jobs, 2 of them in one
/// wave) plus single-job queries that exercise sub-job reuse.
fn session_queries(tag: &str) -> Vec<(String, String)> {
    vec![
        (queries::l11(&format!("/out/{tag}/l11")), format!("/wf/{tag}/l11")),
        (queries::l3(&format!("/out/{tag}/l3")), format!("/wf/{tag}/l3")),
        (queries::l7(&format!("/out/{tag}/l7")), format!("/wf/{tag}/l7")),
        (queries::l8(&format!("/out/{tag}/l8")), format!("/wf/{tag}/l8")),
    ]
}

/// Wave-parallel execution must be byte-identical to sequential: same
/// final bytes, same rewrites, same repository evolution.
#[test]
fn wave_parallel_output_matches_sequential() {
    let run = |wave_parallel: bool| {
        let rs = ReStore::new(engine(), ReStoreConfig { wave_parallel, ..Default::default() });
        let mut outputs: Vec<(Vec<u8>, usize, usize, usize)> = Vec::new();
        // Two rounds: cold execution, then warm (reuse-heavy) execution.
        for round in 0..2 {
            for (q, prefix) in session_queries(&format!("r{round}")) {
                let e = rs.execute_query(&q, &prefix).unwrap();
                let bytes = rs.engine().dfs().read_all(&e.final_output).unwrap();
                outputs.push((bytes, e.job_results.len(), e.jobs_skipped, e.rewrites.len()));
            }
        }
        let repo_len = rs.repository_as(None).len();
        (outputs, repo_len)
    };
    let parallel = run(true);
    let sequential = run(false);
    assert_eq!(parallel, sequential);
    // L11's first wave really does hold two independent jobs.
    let wf = restore_suite::dataflow::compile(&queries::l11("/out/x"), "/wf/x").unwrap();
    let waves = wf.waves().unwrap();
    assert_eq!(waves[0].len(), 2, "L11 must open with a two-job wave: {waves:?}");
}

/// N threads hammer one shared `ReStore` session; every query's answer
/// must equal the plain-Pig baseline, and the repository must stay
/// consistent.
#[test]
fn concurrent_sessions_preserve_answers() {
    const THREADS: usize = 8;

    // Shared session: all threads submit against one repository, and
    // each checks its sequence against a no-reuse session of its own.
    let shared = ReStore::new(engine(), ReStoreConfig::default());
    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    session_queries(&format!("t{t}")).into_iter().try_for_each(|(q, _)| {
                        Oracle::check(shared, &[q])?;
                        // Interleave stats polling with registration in
                        // other threads: guards lock ordering (a
                        // repo-then-prov inversion deadlocks here).
                        let _ = shared.stats_as(None);
                        Ok::<(), String>(())
                    })
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            if let Err(e) = h.join().expect("session thread") {
                panic!("thread {t} diverged from baseline: {e}");
            }
        }
    });

    // Repository consistency after the storm.
    let stats = shared.stats_as(None);
    assert_eq!(stats.queries_executed, (THREADS * 4) as u64);
    assert!(stats.repository_entries > 0);
    check_repository(&shared).unwrap();
    assert_eq!(
        stats.total_uses,
        shared.repository_as(None).entries().iter().map(|e| e.stats().use_count).sum::<u64>()
    );

    // The session state survives a save/load round trip.
    let state = shared.save_state();
    let resumed = ReStore::new(shared.engine().clone(), ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert_eq!(resumed.stats_as(None), stats);
}

/// Racing identical cold queries: whoever registers first wins, everyone
/// answers correctly, and a warm rerun is served from the repository.
#[test]
fn racing_identical_queries_converge() {
    const THREADS: usize = 6;
    let shared = ReStore::new(engine(), ReStoreConfig::default());

    let outputs: Vec<Vec<String>> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let q = queries::l3(&format!("/out/race/{t}"));
                    let e = shared.execute_query(&q, &format!("/wf/race/{t}")).unwrap();
                    read_lines_sorted(shared.engine().dfs(), &e.final_output)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("race thread")).collect()
    });
    for (t, got) in outputs.iter().enumerate() {
        assert_eq!(got, &outputs[0], "racer {t} diverged");
    }

    // Warm rerun: both of L3's jobs are answered from the repository.
    let warm = shared.execute_query(&queries::l3("/out/race/warm"), "/wf/race/warm").unwrap();
    assert_eq!(warm.jobs_skipped, 2);
    assert!(warm.job_results.is_empty());
}
