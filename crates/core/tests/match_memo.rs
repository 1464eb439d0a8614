//! The match step's memo: a snapshot keeps what the §3 loop computed
//! against it, per plan, and a job whose plan it has matched replays
//! that outcome instead of running the loop again.
//!
//! 1. *Differential.* Every query of the PigMix suites — the standard
//!    workload, the paraphrase suite (originals and paraphrases) and the
//!    whole-job workload — submitted twice over a populated repository
//!    with the snapshot unchanged: the second submission replays every
//!    job's outcome, and agrees with the first in its executed jobs,
//!    rewrites, trace decisions, skipped jobs, final output and output
//!    bytes, and both agree with a no-reuse run. Once with every job
//!    answered whole from the repository, once with the final jobs
//!    re-executing over rewritten plans (final outputs unregistered).
//! 2. *Invalidation.* Each kind of publish — a registration, a sweep's
//!    eviction by window or by an input overwritten out of band, an
//!    overwrite of a recorded path by another namespace's job, a
//!    recovery — makes the next submission a miss, with the no-reuse
//!    answer.

use restore_core::{
    Heuristic, JournalConfig, QueryExecution, ReStore, ReStoreConfig, SelectionPolicy,
};
use restore_dfs::DfsConfig;
use restore_mapreduce::{Engine, EngineConfig};
use restore_pigmix::{datagen, paraphrase, queries, DataScale};
use restore_testkit::{engine_over, join_query, overwrite, pv_users, small_dfs, sum_query, Oracle};

const SEED: u64 = 0x3E30;

fn pigmix_engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 2 }))
}

/// `(hits, misses)` of the memo so far (`restore_match_memo_total`).
fn memo(rs: &ReStore) -> (u64, u64) {
    let count = |outcome| {
        rs.registry().counter("restore_match_memo_total", "", &[("outcome", outcome)]).get()
    };
    (count("hit"), count("miss"))
}

/// Every query of the three suites, each storing under `prefix`, in a
/// fixed order.
fn suites(prefix: &str) -> Vec<String> {
    let mut all: Vec<String> =
        queries::standard_workload(&format!("{prefix}/std")).into_iter().map(|(_, q)| q).collect();
    for case in paraphrase::paraphrase_suite(&format!("{prefix}/para")) {
        all.push(case.original);
        all.extend(case.paraphrases);
    }
    all.extend(queries::whole_job_workload(&format!("{prefix}/whole")).into_iter().map(|(_, q)| q));
    all
}

/// One query's run against the no-reuse oracle, with the memo's moves
/// over it.
fn checked(rs: &ReStore, query: &str) -> (QueryExecution, (u64, u64)) {
    let (h0, m0) = memo(rs);
    let run = Oracle::check(rs, &[query]).unwrap_or_else(|e| panic!("{e}")).remove(0);
    let (h1, m1) = memo(rs);
    (run, (h1 - h0, m1 - m0))
}

/// What a run did that the memo must reproduce, with `prefix` — where
/// the run stored — written as `<out>`, and the tick left out.
fn observed(rs: &ReStore, run: &QueryExecution, prefix: &str) -> String {
    let jobs: Vec<_> = run
        .job_results
        .iter()
        .map(|r| {
            let job = r.job_name.rsplit('-').next().unwrap_or_default();
            (job.to_string(), r.counters.clone(), &r.output, &r.side_outputs)
        })
        .collect();
    let trace: Vec<_> =
        rs.trace_for(None, run.tick).into_iter().map(|e| (e.job, e.decision)).collect();
    let text = format!(
        "jobs {jobs:?}\nrewrites {:?}\ntrace {trace:?}\nskipped {}\nfinal {}",
        run.rewrites, run.jobs_skipped, run.final_output,
    );
    text.replace(prefix, "<out>")
}

/// Submit each query twice more over a populated `rs`: the second
/// submission of each must replay all its jobs. Returns the second
/// submissions.
fn second_submissions_replay(rs: &ReStore) -> Vec<QueryExecution> {
    let (first, second) = (suites("/run/1"), suites("/run/2"));
    let mut seconds = Vec::new();
    for (i, (q1, q2)) in first.iter().zip(&second).enumerate() {
        let publishes = rs.write_counters_as(None).0;
        let (run1, _) = checked(rs, q1);
        assert_eq!(rs.write_counters_as(None).0, publishes, "query {i}'s first run published");
        let (run2, (hits, misses)) = checked(rs, q2);
        assert_eq!(misses, 0, "query {i}'s second run ran the loop");
        assert!(hits > 0, "query {i}'s second run looked nothing up");
        assert_eq!(observed(rs, &run2, "/run/2"), observed(rs, &run1, "/run/1"), "query {i}");
        let dfs = rs.engine().dfs();
        assert_eq!(
            dfs.read_all(&run2.final_output).unwrap(),
            dfs.read_all(&run1.final_output).unwrap(),
            "query {i}'s output bytes"
        );
        seconds.push(run2);
    }
    seconds
}

/// Run the suites twice over `rs`.
fn populate(rs: &ReStore) {
    for round in ["/pop/a", "/pop/b"] {
        for q in suites(round) {
            rs.execute_query(&q, &format!("/wf{round}/{}", rs.stats_as(None).queries_executed))
                .unwrap();
        }
    }
}

#[test]
fn a_second_whole_job_answer_replays_the_first() {
    let rs = ReStore::new(pigmix_engine(), ReStoreConfig::default());
    populate(&rs);
    let seconds = second_submissions_replay(&rs);
    assert!(seconds.iter().all(|run| run.job_results.is_empty() && run.jobs_skipped > 0));
}

/// Final outputs unregistered and nothing injected: each final job
/// re-executes over a plan rewritten to Load stored results, so a
/// replay must give it its own Store paths.
#[test]
fn a_second_rewritten_job_replays_the_first_into_its_own_outputs() {
    let rs = ReStore::new(
        pigmix_engine(),
        ReStoreConfig { register_final_outputs: false, ..Default::default() },
    );
    populate(&rs);
    rs.set_config_as(None, ReStoreConfig { heuristic: Heuristic::None, ..rs.config_as(None) });
    let seconds = second_submissions_replay(&rs);
    let rewritten = |run: &QueryExecution| {
        let skipped = run.rewrites.iter().filter(|r| r.whole_job).count();
        !run.job_results.is_empty() && run.rewrites.len() > skipped
    };
    assert!(
        seconds.iter().filter(|run| rewritten(run)).count() >= seconds.len() / 2,
        "most final jobs run over a rewritten plan"
    );
}

/// A session over the two small tables, with `sum_query` warm: its
/// last run replayed the outcome the run before it memoized.
fn warm(config: ReStoreConfig) -> ReStore {
    let rs = ReStore::new(engine_over(pv_users(), None), config);
    Oracle::check(&rs, &[sum_query("/out/cold")]).unwrap();
    assert_eq!(checked(&rs, &sum_query("/out/miss")).1, (0, 1));
    assert_eq!(checked(&rs, &sum_query("/out/hit")).1, (1, 0));
    rs
}

/// The next `sum_query` runs the loop and answers as no reuse would.
fn next_is_a_miss(rs: &ReStore, out: &str) {
    assert_eq!(checked(rs, &sum_query(out)).1, (0, 1), "{out} replayed a superseded outcome");
}

fn evicted(rs: &ReStore, reason: &str) -> u64 {
    rs.registry().counter("restore_entries_evicted_total", "", &[("reason", reason)]).get()
}

#[test]
fn a_registration_makes_the_next_submission_a_miss() {
    let rs = warm(ReStoreConfig::default());
    let publishes = rs.write_counters_as(None).0;
    Oracle::check(&rs, &[join_query("/out/join")]).unwrap();
    assert!(rs.write_counters_as(None).0 > publishes);
    next_is_a_miss(&rs, "/out/after");
}

/// Window 3: the join registered at tick 1 expires at tick 5, which is
/// the fifth submission's sweep.
#[test]
fn a_window_eviction_makes_the_next_submission_a_miss() {
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(3), ..Default::default() },
        ..Default::default()
    };
    let rs = ReStore::new(engine_over(pv_users(), None), config);
    Oracle::check(&rs, &[join_query("/out/join")]).unwrap();
    Oracle::check(&rs, &[sum_query("/out/cold")]).unwrap();
    assert_eq!(checked(&rs, &sum_query("/out/miss")).1, (0, 1));
    assert_eq!(checked(&rs, &sum_query("/out/hit")).1, (1, 0));
    let windowed = evicted(&rs, "window");
    next_is_a_miss(&rs, "/out/after");
    assert!(evicted(&rs, "window") > windowed, "the join's entries went by window");
}

#[test]
fn an_input_overwritten_out_of_band_makes_the_next_submission_a_miss() {
    let rs = warm(ReStoreConfig::default());
    overwrite(rs.engine().dfs(), "/data/pv", b"alice\t40\ndave\t2\n");
    let moved = evicted(&rs, "inputs_changed");
    next_is_a_miss(&rs, "/out/after");
    assert!(evicted(&rs, "inputs_changed") > moved);
}

/// Another namespace's job writes over the default namespace's recorded
/// final output: the wave forgets the record (`invalidate_overwritten`),
/// publishing there, before any sweep of the default namespace runs.
#[test]
fn an_overwrite_by_another_namespace_makes_the_next_submission_a_miss() {
    let rs = warm(ReStoreConfig::default());
    let publishes = rs.write_counters_as(None).0;
    rs.execute_query_as(Some("other"), &join_query("/out/cold"), "/wf/other").unwrap();
    assert!(rs.write_counters_as(None).0 > publishes, "the overwrite published nothing");
    next_is_a_miss(&rs, "/out/after");
}

/// Recovery from a base and its deltas replaces every namespace: the
/// restored snapshot has matched nothing.
#[test]
fn a_recovery_makes_the_next_submission_a_miss() {
    let rs = ReStore::new(engine_over(pv_users(), None), ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());
    let base = rs.save_state();
    Oracle::check(&rs, &[sum_query("/out/cold")]).unwrap();
    assert_eq!(checked(&rs, &sum_query("/out/miss")).1, (0, 1));
    assert_eq!(checked(&rs, &sum_query("/out/hit")).1, (1, 0));
    let deltas = rs.save_state_delta().unwrap();
    rs.recover(&base, &deltas).unwrap();
    next_is_a_miss(&rs, "/out/after");
}
