//! Tests of the introspection surface: dry-run explain, driver stats,
//! and their consistency with actual execution.

use restore_common::{codec, tuple, Tuple};
use restore_core::{JournalConfig, ReStore, ReStoreConfig};
use restore_dfs::DfsConfig;
use restore_mapreduce::{Engine, EngineConfig};
use restore_pigmix::{datagen, paraphrase, queries, DataScale};
use restore_testkit::{engine_over, overwrite, pv_users, small_dfs};

fn engine() -> Engine {
    let rows: Vec<Tuple> =
        (0..120).map(|i| tuple![format!("u{}", i % 7), i as i64, (i % 31) as f64]).collect();
    let names: Vec<Tuple> =
        (0..7).map(|i| tuple![format!("u{i}"), format!("c{}", i % 3)]).collect();
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None }),
        &[("/data/d", &codec::encode_all(&rows)), ("/data/names", &codec::encode_all(&names))],
    );
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }))
}

const Q: &str = "
    A = load '/data/d' as (u, n:int, v:double);
    B = foreach A generate u, v;
    G = group B by u;
    R = foreach G generate group, SUM(B.v);
    store R into '/out/q';
";

/// Two jobs: a join, then a group over its temporary.
const JOIN_GROUP: &str = "
    A = load '/data/d' as (u, n:int, v:double);
    N = load '/data/names' as (name, city);
    J = join N by name, A by u;
    G = group J by $1;
    R = foreach G generate group, SUM(J.v);
    store R into '/out/jg';
";

/// What a dry run must leave as it found it: every entry's use count,
/// the repository's publishes and writer sections, the journal's
/// sequence, and the newest trace.
#[derive(Debug, PartialEq)]
struct Footprint {
    uses: Vec<(u64, u64)>,
    counters: (u64, u64),
    seq: u64,
    trace: Option<String>,
}

fn footprint(rs: &ReStore) -> Footprint {
    Footprint {
        uses: rs.repository_as(None).entries().iter().map(|e| (e.id, e.use_count())).collect(),
        counters: rs.write_counters_as(None),
        seq: rs.journal_stats().seq,
        trace: rs.explain_last_as(None),
    }
}

/// One job's verdict as `explain_query_as` words it.
#[derive(Debug)]
struct Verdict {
    entries: Vec<u64>,
    skipped: bool,
    /// False for a job that waits on one that executes.
    decided: bool,
    text: String,
}

/// The verdicts of a report, by job index (the report lists jobs in
/// wave order).
fn verdicts(report: &str) -> Vec<Verdict> {
    let mut jobs: Vec<(usize, Verdict)> = Vec::new();
    for line in report.lines() {
        if let Some(rest) = line.strip_prefix("job ") {
            let idx = rest.split(' ').next().unwrap().parse().unwrap();
            let v =
                Verdict { entries: Vec::new(), skipped: false, decided: true, text: String::new() };
            jobs.push((idx, v));
            continue;
        }
        let Some((_, job)) = jobs.last_mut() else { continue };
        if let Some(rest) = line.strip_prefix("  would reuse entry #") {
            job.entries.push(rest.split(' ').next().unwrap().parse().unwrap());
        }
        job.skipped |= line.ends_with("job would be skipped");
        job.decided &= !line.ends_with("decided only once they have run");
        job.text.push_str(line.trim());
        job.text.push('\n');
    }
    jobs.sort_by_key(|(idx, _)| *idx);
    jobs.into_iter().map(|(_, v)| v).collect()
}

/// The entries execution reused for `job`, in the order it applied them.
fn reused(e: &restore_core::QueryExecution, job: usize) -> Vec<u64> {
    e.rewrites.iter().filter(|r| r.job == job).map(|r| r.entry_id).collect()
}

#[test]
fn explain_predicts_execution() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());

    // Cold: explain predicts no matches.
    let cold = rs.explain_query_as(None, Q, "/wf/x").unwrap();
    assert!(cold.contains("no matches"), "{cold}");
    assert!(cold.contains("repository: 0 entries"), "{cold}");

    // Warm the repository, then explain again.
    rs.execute_query(Q, "/wf/warm").unwrap();
    assert!(rs.serves_path("/restore/sub-1") && rs.serves_path("/restore/sub-2"));
    assert!(!rs.serves_path("/restore/sub-3"));
    let before = footprint(&rs);
    let warm = rs.explain_query_as(None, Q, "/wf/x2").unwrap();
    assert!(warm.contains("would reuse entry"), "{warm}");
    assert!(warm.contains("job would be skipped"), "{warm}");
    let partial = rs.explain_query_as(None, JOIN_GROUP, "/wf/x3").unwrap();
    assert!(partial.contains("no matches"), "{partial}");
    assert!(partial.contains("job(s) [0], not predicted skipped"), "{partial}");

    // Dry runs mutated nothing.
    assert_eq!(footprint(&rs), before);
    assert_eq!(rs.stats_as(None).total_uses, 0);

    // And the prediction comes true.
    let e = rs.execute_query(Q, "/wf/real").unwrap();
    assert_eq!(e.jobs_skipped, 1);
    assert_eq!(verdicts(&warm)[0].entries, reused(&e, 0));
    // The dry runs took no candidate path: the next one stored is `sub-3`.
    assert!(rs.execute_query(JOIN_GROUP, "/wf/jg").unwrap().candidates_stored > 0);
    assert!(rs.serves_path("/restore/sub-3"));
}

/// The dry run reads the staleness pass without running it: once the
/// stored answer is overwritten out of band, explain predicts the job
/// executes (on the sub-jobs still stored), execution agrees, and the
/// dry run evicted nothing.
#[test]
fn explain_sees_a_stored_output_overwritten_out_of_band() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    rs.execute_query(Q, "/wf/warm").unwrap();
    overwrite(rs.engine().dfs(), "/out/q", b"mallory\t1\n");

    let before = (footprint(&rs), rs.repository_as(None).len());
    let report = rs.explain_query_as(None, Q, "/wf/x").unwrap();
    assert_eq!((footprint(&rs), rs.repository_as(None).len()), before, "{report}");
    let jobs = verdicts(&report);
    assert!(!jobs[0].skipped, "{report}");

    let e = rs.execute_query(Q, "/wf/real").unwrap();
    assert_eq!((e.jobs_skipped, e.job_results.len()), (0, 1));
    assert!(!reused(&e, 0).is_empty(), "the job reuses a stored sub-job");
    assert_eq!(jobs[0].entries, reused(&e, 0), "{report}");
}

/// A job that Loads a skipped job's output is matched through the alias
/// execution gives that output: once warm, both jobs are skipped.
#[test]
fn explain_follows_a_skipped_job_into_its_consumer() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    let first = rs.execute_query(JOIN_GROUP, "/wf/1").unwrap();
    assert_eq!(first.job_results.len(), 2);
    let report = rs.explain_query_as(None, JOIN_GROUP, "/wf/2").unwrap();
    let jobs = verdicts(&report);
    assert_eq!(jobs.len(), 2, "{report}");
    assert!(jobs.iter().all(|j| j.skipped), "{report}");
    let e = rs.execute_query(JOIN_GROUP, "/wf/2").unwrap();
    assert_eq!(e.jobs_skipped, 2);
    for (job, v) in jobs.iter().enumerate() {
        assert_eq!(v.entries, reused(&e, job), "job {job}: {report}");
    }
}

/// With final outputs unregistered, the consumer of a skipped job still
/// runs — on a stored sub-job of itself, which explain names.
#[test]
fn explain_names_the_sub_job_a_consumer_reuses() {
    let config = ReStoreConfig { register_final_outputs: false, ..Default::default() };
    let rs = ReStore::new(engine(), config);
    rs.execute_query(JOIN_GROUP, "/wf/1").unwrap();
    let report = rs.explain_query_as(None, JOIN_GROUP, "/wf/2").unwrap();
    let jobs = verdicts(&report);
    let e = rs.execute_query(JOIN_GROUP, "/wf/2").unwrap();
    assert_eq!(e.jobs_skipped, 1);
    assert!(jobs[0].skipped && !jobs[1].skipped, "{report}");
    assert!(!reused(&e, 1).is_empty(), "the group job reuses a sub-job");
    assert_eq!(jobs[1].entries, reused(&e, 1), "{report}");
    for id in reused(&e, 1) {
        let path = rs.repository_as(None).get(id).unwrap().file.path.clone();
        assert!(path.starts_with("/restore/sub-"), "{path}");
        assert!(report.contains(&format!("entry #{id} -> {path}")), "{report}");
    }
}

/// A typed sub-job that answers a whole job with a text output is copied
/// by a job, not aliased: explain says so instead of predicting a skip.
#[test]
fn explain_predicts_a_typed_copy_runs() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    let filtered = "A = load '/data/d' as (u, n:int, v:double);
                    B = filter A by n > 50;";
    rs.execute_query(
        &format!("{filtered} C = foreach B generate u, v; store C into '/out/a';"),
        "/wf/a",
    )
    .unwrap();
    let b = format!("{filtered} store B into '/out/b';");
    let report = rs.explain_query_as(None, &b, "/wf/b").unwrap();
    let e = rs.execute_query(&b, "/wf/b").unwrap();
    assert_eq!((e.jobs_skipped, e.job_results.len()), (0, 1));
    let src = &e.rewrites[0].reused_path;
    assert!(src.starts_with("/restore/sub-"), "{src}");
    let jobs = verdicts(&report);
    assert!(!jobs[0].skipped, "{report}");
    assert_eq!(jobs[0].entries, reused(&e, 0));
    assert!(jobs[0].text.contains(&format!("copy of typed {src}")), "{report}");
    assert!(jobs[0].text.contains("job runs as a copy"), "{report}");
}

#[test]
fn stats_track_activity() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    let s0 = rs.stats_as(None);
    assert_eq!(s0.repository_entries, 0);
    assert_eq!(s0.queries_executed, 0);

    rs.execute_query(Q, "/wf/1").unwrap();
    let s1 = rs.stats_as(None);
    assert!(s1.repository_entries > 0);
    assert!(s1.stored_bytes > 0);
    assert_eq!(s1.queries_executed, 1);
    assert_eq!(s1.total_uses, 0);
    assert_eq!(s1.never_used, s1.repository_entries);
    assert_eq!(s1.stored_files, s1.repository_entries);

    rs.execute_query(Q, "/wf/2").unwrap();
    let s2 = rs.stats_as(None);
    assert!(s2.total_uses > 0, "rerun must register reuse");
    assert!(s2.never_used < s2.repository_entries);
    assert_eq!(s2.queries_executed, 2);
}

#[test]
fn explain_reports_errors_for_bad_queries() {
    let rs = ReStore::new(engine(), ReStoreConfig::default());
    assert!(rs.explain_query_as(None, "not a query", "/wf").is_err());
    assert!(rs.explain_query_as(None, "A = load '/data/d' as (x);", "/wf").is_err());
    // no STORE
}

#[test]
fn dot_export_of_compiled_workflow() {
    // The dataflow dot renderer integrates with driver-visible queries.
    let wf = restore_dataflow::compile(Q, "/wf").unwrap();
    let dot = restore_dataflow::dot::workflow_to_dot(&wf, "q");
    assert!(dot.contains("digraph q {"));
    assert!(dot.contains("Group"));
}

fn pigmix_engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 6, block_size: 4 << 10, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), 1234).unwrap();
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 4 }))
}

/// Populate a session with `warm`, then explain each query of `mix`
/// right before executing it. Every job explain decides must be decided
/// the same way by execution: skipped or not, and the same entries
/// reused in the same order. Every query has a decided job (its first
/// wave). Returns the mismatches.
fn mispredictions(
    config: ReStoreConfig,
    warm: Vec<(String, String)>,
    mix: Vec<(String, String)>,
) -> Vec<String> {
    let rs = ReStore::new(pigmix_engine(), config);
    for (label, q) in warm {
        rs.execute_query(&q, &format!("/wf/warm-{label}")).unwrap();
    }
    let mut wrong = Vec::new();
    for (label, q) in mix {
        let wf = format!("/wf/mix-{label}");
        let report = rs.explain_query_as(None, &q, &wf).unwrap();
        let e = rs.execute_query(&q, &wf).unwrap();
        let jobs = verdicts(&report);
        assert!(jobs.iter().any(|v| v.decided), "{label}: {report}");
        for (job, v) in jobs.iter().enumerate().filter(|(_, v)| v.decided) {
            let skipped = e.rewrites.iter().any(|r| r.job == job && r.whole_job);
            if v.skipped != skipped || v.entries != reused(&e, job) {
                wrong.push(format!("{label} job {job}:\n{report}{:?}", e.rewrites));
            }
        }
    }
    wrong
}

/// The `serve_warm` benchmark workload: a repository populated with the
/// PigMix queries and the paraphrase suite's originals, then the 21-query
/// mix of the queries and their paraphrases.
#[test]
fn explain_predicts_the_serve_warm_mix() {
    let mut warm = queries::standard_workload("/out/warm");
    let mut mix = queries::standard_workload("/out/mix");
    for case in paraphrase::paraphrase_suite("/out/warm") {
        warm.push((format!("{}-o", case.label), case.original));
    }
    for case in paraphrase::paraphrase_suite("/out/mix") {
        for (i, text) in case.paraphrases.into_iter().enumerate() {
            mix.push((format!("{}-p{}", case.label, i + 1), text));
        }
    }
    assert_eq!(mix.len(), 21);
    let wrong = mispredictions(ReStoreConfig::default(), warm, mix);
    assert!(wrong.is_empty(), "{} mispredicted:\n{}", wrong.len(), wrong.join("\n"));
}

/// The `pigmix_reuse` benchmark workload: final outputs unregistered, so
/// a rerun's final job executes on stored inputs.
#[test]
fn explain_predicts_the_pigmix_reuse_sequence() {
    let config = ReStoreConfig { register_final_outputs: false, ..Default::default() };
    let warm = queries::standard_workload("/out/warm");
    let mix = queries::standard_workload("/out/mix");
    assert_eq!(mix.len(), 8);
    let wrong = mispredictions(config, warm, mix);
    assert!(wrong.is_empty(), "{} mispredicted:\n{}", wrong.len(), wrong.join("\n"));
}

/// A final output whose plan duplicates a stored candidate's is a record
/// without an entry. Once it is overwritten out of band, the dry run
/// reads the pass as execution does: a job that Loads it reads the file,
/// with no rewrite.
#[test]
fn explain_does_not_expand_a_final_output_overwritten_out_of_band() {
    let rs = ReStore::new(engine_over(pv_users(), None), ReStoreConfig::default());
    let filter = "A = load '/data/pv' as (user, n:int); B = filter A by n > 0;";
    let sums = "G = group B by user; R = foreach G generate group, SUM(B.n);";
    rs.execute_query(&format!("{filter} {sums} store R into '/out/a';"), "/wf/a").unwrap();
    rs.execute_query(&format!("{filter} store B into '/out/b';"), "/wf/b").unwrap();
    overwrite(rs.engine().dfs(), "/out/b", b"zed\t3\n");

    let q3 = "A = load '/out/b' as (user, n:int); B = filter A by n > 0;
              C = foreach B generate user; store C into '/out/c';";
    let report = rs.explain_query_as(None, q3, "/wf/x").unwrap();
    let jobs = verdicts(&report);
    assert!(jobs.len() == 1 && jobs[0].entries.is_empty(), "{report}");
    assert!(jobs[0].text.contains("no matches; job executes in full"), "{report}");

    let e = rs.execute_query(q3, "/wf/c").unwrap();
    assert!(e.rewrites.is_empty() && e.job_results.len() == 1, "{:?}", e.rewrites);
    assert_eq!(rs.engine().dfs().read_all("/out/c").unwrap(), b"zed\n");
}
