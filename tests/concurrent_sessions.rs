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

use restore_suite::common::codec;
use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};

const SEED: u64 = 0xC0FFEE;

fn engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 1024, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    )
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

fn read_sorted(dfs: &Dfs, path: &str) -> Vec<restore_suite::common::Tuple> {
    let mut t = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
    t.sort();
    t
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
        let repo_len = rs.repository().len();
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

    // Baseline answers on an isolated engine (no reuse at all).
    let baseline_engine = engine();
    let baseline = ReStore::new(baseline_engine, ReStoreConfig::baseline());
    let mut expected = Vec::new();
    for (q, prefix) in session_queries("base") {
        let e = baseline.execute_query(&q, &prefix).unwrap();
        expected.push(read_sorted(baseline.engine().dfs(), &e.final_output));
    }

    // Shared session: all threads submit against one repository.
    let shared = ReStore::new(engine(), ReStoreConfig::default());
    let results: Vec<Vec<Vec<restore_suite::common::Tuple>>> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    session_queries(&format!("t{t}"))
                        .into_iter()
                        .map(|(q, prefix)| {
                            let e = shared.execute_query(&q, &prefix).unwrap();
                            // Interleave stats polling with registration in
                            // other threads: guards lock ordering (a
                            // repo-then-prov inversion deadlocks here).
                            let _ = shared.stats();
                            read_sorted(shared.engine().dfs(), &e.final_output)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });
    for (t, per_thread) in results.iter().enumerate() {
        for (i, got) in per_thread.iter().enumerate() {
            assert_eq!(got, &expected[i], "thread {t}, query {i} diverged from baseline");
        }
    }

    // Repository consistency after the storm.
    let stats = shared.stats();
    assert_eq!(stats.queries_executed, (THREADS * 4) as u64);
    assert!(stats.repository_entries > 0);
    {
        let repo = shared.repository();
        for entry in repo.entries() {
            assert!(
                shared.engine().dfs().exists(&entry.output_path),
                "repository entry {} points at missing file {}",
                entry.id,
                entry.output_path
            );
        }
        assert_eq!(
            stats.total_uses,
            repo.entries().iter().map(|e| e.stats().use_count).sum::<u64>()
        );
    }

    // The session state survives a save/load round trip.
    let state = shared.save_state();
    let resumed = ReStore::new(shared.engine().clone(), ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert_eq!(resumed.stats(), stats);
}

/// Racing identical cold queries: whoever registers first wins, everyone
/// answers correctly, and a warm rerun is served from the repository.
#[test]
fn racing_identical_queries_converge() {
    const THREADS: usize = 6;
    let shared = ReStore::new(engine(), ReStoreConfig::default());

    let outputs: Vec<Vec<restore_suite::common::Tuple>> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let q = queries::l3(&format!("/out/race/{t}"));
                    let e = shared.execute_query(&q, &format!("/wf/race/{t}")).unwrap();
                    read_sorted(shared.engine().dfs(), &e.final_output)
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
