//! The snapshot journal end to end: incremental deltas replayed over a
//! base checkpoint reproduce the session **byte-identically** (checked
//! against the live session after every step of a generated workload), a
//! literal base composes with today's journal, a base and a segment
//! captured at an earlier commit of this format epoch still recover,
//! sequence anchoring skips covered records, segments handed over out of
//! order are sorted, and malformed, duplicated or truncated segments fail
//! naming the offending record.

use proptest::prelude::*;
use restore_common::Error;
use restore_core::{
    FailureDisposition, FailurePolicy, JournalConfig, ReStore, ReStoreConfig, SelectionPolicy,
    EPOCH,
};
use restore_dfs::Dfs;
use restore_mapreduce::EngineConfig;
use restore_testkit::{join_query, overwrite, pv_users, session_over, sum_query, Journaled};

/// One step of the generated workload: cold queries in two namespaces,
/// warm reruns (note-use records), config changes.
fn run_op(rs: &ReStore, op: u8, i: usize) {
    match op % 4 {
        0 => {
            rs.execute_query(&sum_query(&format!("/out/p{i}")), &format!("/wf/p{i}")).unwrap();
        }
        1 => {
            rs.execute_query_as(Some("ana"), &join_query(&format!("/out/t{i}")), "/wf/t").unwrap();
        }
        2 => {
            rs.execute_query(&sum_query(&format!("/out/w{i}")), "/wf/warm").unwrap();
        }
        _ => {
            rs.set_config_as(
                Some("tuned"),
                ReStoreConfig { register_final_outputs: i.is_multiple_of(2), ..Default::default() },
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The lockstep oracle: run an arbitrary workload on a journaling
    /// session, capture a delta after every step, and a fresh session
    /// recovered from the base plus the deltas so far is byte-identical
    /// to the *live* session at every step. Small segments make a delta
    /// span several.
    #[test]
    fn recovery_matches_the_live_session_after_every_delta(
        ops in proptest::collection::vec(0u8..4, 1..6),
    ) {
        let shared = pv_users();
        let mut live = Journaled::start(&shared, None, JournalConfig { segment_bytes: 1024 }, None);
        for (i, &op) in ops.iter().enumerate() {
            run_op(&live.session, op, i);
            live.seal();
            let recovered = session_over(&shared, ReStoreConfig::default());
            recovered.recover(&live.base, &live.segments).unwrap();
            prop_assert_eq!(
                recovered.save_state(),
                live.session.save_state(),
                "recovery diverged after op {} (kind {})", i, op % 4
            );
        }
    }
}

/// A literal base checkpoint: one default-namespace entry over
/// `/data/pv` at the version `pv_users` writes it at (the DFS clock's first
/// tick), and a tenant carrying only a policy override, anchored at
/// sequence 0. Its config sections leave keys out, which read as their
/// defaults.
const BASE_FIXTURE: &str = r#"restore-state v6
tick 7
cand 3
seq 0
--config--
reuse_enabled true
heuristic aggressive
repo_prefix "/restore"
register_final_outputs true
wave_parallel true
require_size_reduction false
require_time_benefit false
reload_read_bps 83886080
eviction_window none
--space ""--
--provenance--
path "/repo/b"
  0 load "/data/pv"
  1 project 0,2 <- 0
  2 store "/repo/b" <- 1
end
--repository--
entry 0 "/repo/b" 100 10 5 1.5 2.5 3 6 1
input "/data/pv" 1
plan
  0 load "/data/pv"
  1 project 0,2 <- 0
  2 store "/repo/b" <- 1
end
--space "tuned"--
--config--
reuse_enabled true
heuristic conservative
repo_prefix "/restore"
register_final_outputs true
wave_parallel true
require_size_reduction false
require_time_benefit false
reload_read_bps 83886080
eviction_window none
--provenance--
--repository--
"#;

/// Run a mixed workload on a journaling session loaded from the literal
/// base, capturing deltas along the way. Returns the shared DFS,
/// the captured segments, and the reference full dump.
fn journaled_scenario() -> (Dfs, Vec<String>, String) {
    let shared = pv_users();
    shared.write_all("/repo/b", b"stored bytes").unwrap();
    let mut journaled =
        Journaled::start(&shared, None, JournalConfig::default(), Some(BASE_FIXTURE));
    let live = &journaled.session;

    // Cold queries register entries in two namespaces…
    live.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    live.execute_query_as(Some("ana"), &join_query("/out/j"), "/wf/j").unwrap();
    journaled.seal();
    // …a warm rerun dirties reuse counters (note-use records)…
    let live = &journaled.session;
    let warm = live.execute_query(&sum_query("/out/a2"), "/wf/a2").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "rerun must be a warm hit");
    // …and config/tenant changes ride along as their own records.
    live.set_config_as(
        Some("tuned"),
        ReStoreConfig { register_final_outputs: false, ..Default::default() },
    );
    live.set_config_as(Some("fresh-tenant"), ReStoreConfig::default());
    live.clear_config_as("fresh-tenant");
    journaled.seal();

    let reference = journaled.session.save_state();
    (shared, journaled.segments, reference)
}

#[test]
fn base_fixture_plus_journal_equals_a_fresh_dump_byte_identically() {
    let (shared, segments, reference) = journaled_scenario();
    assert!(reference.starts_with(&format!("restore-state v{EPOCH}\n")));
    assert!(!segments.is_empty());

    let recovered = session_over(&shared, ReStoreConfig::default());
    let report = recovered.recover(BASE_FIXTURE, &segments).unwrap();
    assert_eq!(report.base_seq, 0, "the fixture anchors at sequence 0");
    assert!(report.records_applied > 0);
    assert_eq!(report.records_skipped, 0);
    assert!(report.torn_tail.is_none());
    assert_eq!(
        recovered.save_state(),
        reference,
        "base + journal must reproduce the live session byte for byte"
    );
}

#[test]
fn recovered_session_serves_warm_hits() {
    let (shared, segments, _) = journaled_scenario();
    let recovered = session_over(&shared, ReStoreConfig::default());
    recovered.recover(BASE_FIXTURE, &segments).unwrap();
    let warm = recovered.execute_query(&sum_query("/out/again"), "/wf/again").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "recovered repository must keep serving reuse");
    let warm_t = recovered.execute_query_as(Some("ana"), &join_query("/out/j2"), "/wf/j2").unwrap();
    assert!(
        warm_t.jobs_skipped > 0 || !warm_t.rewrites.is_empty(),
        "tenant namespaces recover too"
    );
}

#[test]
fn a_covering_base_skips_records_it_already_covers() {
    let (shared, segments, reference) = journaled_scenario();
    // The reference dump is itself a base anchored past every
    // record; replaying the full journal over it must skip everything
    // and land on the same bytes.
    let recovered = session_over(&shared, ReStoreConfig::default());
    let report = recovered.recover(&reference, &segments).unwrap();
    assert!(report.base_seq > 0);
    assert_eq!(report.records_applied, 0, "a covering base leaves nothing to replay");
    assert!(report.records_skipped > 0);
    assert_eq!(recovered.save_state(), reference);
}

#[test]
fn torn_final_segment_recovers_a_consistent_prefix() {
    let (shared, mut segments, _) = journaled_scenario();
    let last = segments.pop().unwrap();
    // Cut the final segment mid-record (three bytes short of the end is
    // always inside the last frame's payload).
    let cut = last.len() - 3;
    segments.push(last[..cut].to_string());

    let recovered = session_over(&shared, ReStoreConfig::default());
    let report = recovered.recover(BASE_FIXTURE, &segments).unwrap();
    let torn = report.torn_tail.expect("the cut must be reported");
    assert_eq!(torn.segment, segments.len() - 1);
    // The prefix is a real state: it re-saves cleanly and still loads.
    let state = recovered.save_state();
    let reload = session_over(&shared, ReStoreConfig::default());
    reload.recover(&state, &[]).unwrap();
    assert_eq!(reload.save_state(), state);
}

#[test]
fn torn_non_final_segment_names_the_record() {
    let (shared, mut segments, _) = journaled_scenario();
    assert!(segments.len() >= 2, "scenario must span segments");
    let cut = segments[0].len() - 3;
    segments[0].truncate(cut);
    let recovered = session_over(&shared, ReStoreConfig::default());
    match recovered.recover(BASE_FIXTURE, &segments) {
        Err(Error::Journal { segment: 0, record, msg }) => {
            assert!(record >= 1, "the torn record is named");
            assert!(msg.contains("non-final"), "{msg}");
        }
        other => panic!("expected a journal error, got {other:?}"),
    }
}

#[test]
fn corrupted_record_names_segment_and_record() {
    let (shared, mut segments, _) = journaled_scenario();
    // Flip a payload byte in the middle of the first segment.
    let seg = &segments[0];
    let pos = seg.len() / 2;
    let mut bytes = seg.clone().into_bytes();
    bytes[pos] ^= 0x20;
    segments[0] = String::from_utf8(bytes).unwrap();
    let recovered = session_over(&shared, ReStoreConfig::default());
    match recovered.recover(BASE_FIXTURE, &segments) {
        Err(Error::Journal { segment: 0, record, msg }) => {
            assert!(record >= 1);
            assert!(
                msg.contains("checksum") || msg.contains("bad frame header"),
                "corruption must be diagnosed, got: {msg}"
            );
        }
        other => panic!("expected a journal error, got {other:?}"),
    }
}

#[test]
fn delta_capture_requires_the_journal() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    assert!(rs.save_state_delta().is_err(), "deltas need enable_journal first");
    rs.enable_journal(JournalConfig::default());
    assert_eq!(rs.save_state_delta().unwrap(), Vec::<String>::new(), "idle session, empty delta");
}

#[test]
fn eviction_sweeps_journal_their_evictions() {
    let shared = pv_users();
    let live = session_over(
        &shared,
        ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        },
    );
    live.enable_journal(JournalConfig::default());
    let base = live.save_state();
    live.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    // Push the clock far past the window: the next query's sweep evicts
    // the stale entries before matching.
    for i in 0..4 {
        live.execute_query(&join_query(&format!("/out/j{i}")), "/wf/j").unwrap();
    }
    let segments = live.save_state_delta().unwrap();
    let reference = live.save_state();

    let recovered = session_over(&shared, ReStoreConfig::default());
    recovered.recover(&base, &segments).unwrap();
    assert_eq!(recovered.save_state(), reference, "evictions replay like any other batch");
}

/// The journal writes segments and frames in seq order, so recovery's
/// sort and duplicate check only ever see disorder in what they are
/// *handed*: segment files listed in the wrong order, a file listed
/// twice.
#[test]
fn swapped_segments_replay_in_seq_order_and_a_repeated_frame_is_refused() {
    let (shared, mut segments, reference) = journaled_scenario();
    assert!(segments.len() >= 2, "scenario must span segments");
    segments.swap(0, 1);
    let recovered = session_over(&shared, ReStoreConfig::default());
    let report = recovered.recover(BASE_FIXTURE, &segments).unwrap();
    assert!(report.records_applied > 0);
    assert_eq!(recovered.save_state(), reference, "replay order is seq order, not file order");

    // The first file again, as a third: its first frame repeats a seq.
    segments.push(segments[0].clone());
    let again = session_over(&shared, ReStoreConfig::default());
    match again.recover(BASE_FIXTURE, &segments) {
        Err(Error::Journal { segment: 2, record: 1, msg }) => {
            assert!(msg.contains("duplicate record seq"), "{msg}");
        }
        other => panic!("expected the later copy to be named, got {other:?}"),
    }
}

/// A batch that inserts nothing and evicts nothing is a writer section
/// and nothing else: no snapshot is published and no record journaled
/// (a wave that registers nothing — every `pigmix_reuse` query whose
/// candidates are all stored already — takes this path). So is a batch
/// that inserts an entry again with the statistics it is stored with,
/// or forgets a path with no provenance: it changes nothing.
#[test]
fn an_empty_batch_publishes_and_journals_nothing() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());
    rs.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    let (publishes, sections) = rs.write_counters_as(None);
    let seq = rs.journal_stats().seq;
    rs.with_repository_mut_as(None, |repo| {
        repo.batch(|b| assert!(b.evict(u64::MAX).is_none(), "no such entry"));
    });
    assert_eq!(rs.write_counters_as(None), (publishes, sections + 1));
    assert_eq!(rs.journal_stats().seq, seq);
    let stored = rs.repository_as(None).entries()[0].clone();
    rs.with_repository_mut_as(None, |repo| {
        repo.batch(|b| {
            let again = b.insert(stored.plan.clone(), &stored.output_path, stored.stats());
            assert_eq!(again, restore_core::repository::InsertOutcome::Duplicate(stored.id));
            assert!(!b.forget("/no/such/path"), "no provenance to forget");
        })
    });
    assert_eq!(rs.write_counters_as(None), (publishes, sections + 2));
    assert_eq!(rs.journal_stats().seq, seq);
}

/// What a recovered session holds, in the form the `*_expect.txt`
/// fixtures list it: tick and cand, then per namespace the entry ids
/// and paths in repository order with their reuse counters, and the
/// sorted provenance paths.
fn recovered_summary(rs: &ReStore) -> String {
    let state = rs.save_state();
    let cand = state.lines().nth(2).unwrap();
    let mut got = format!("tick {}\n{cand}\n", rs.stats_as(None).queries_executed);
    for (name, _) in rs.stats_all() {
        let tenant = Some(name.as_str());
        got += &format!("space {name:?}\n");
        for e in rs.repository_as(tenant).entries() {
            got += &format!(
                "entry {} {:?} uses {} last {}\n",
                e.id,
                e.output_path,
                e.use_count(),
                e.last_used()
            );
        }
        rs.with_provenance_as(tenant, |prov| {
            let mut paths: Vec<&str> = prov.iter_paths().collect();
            paths.sort_unstable();
            for p in paths {
                got += &format!("prov {p:?}\n");
            }
        });
    }
    got
}

/// One base and one journal segment captured at the commit that began
/// format epoch 6, with the state that commit recovered them to. The
/// segment holds every record kind the journal writes (`repo-batch`
/// with entries, provenance, evictions and forgets from a window sweep,
/// `tenant-create`, `tenant-config`, `tenant-config-clear`,
/// `global-config`, `note-use`, `counters`), and four of its records
/// are covered by the base. A later format change either keeps this
/// set recovering or bumps the epoch, and then replaces this triple.
#[test]
fn base_and_segment_captured_at_the_parent_commit_still_recover() {
    let base = include_str!("fixtures/parent_v6_base.txt");
    let segment = include_str!("fixtures/parent_v6_segment.txt");
    for kind in [
        "repo-batch",
        "tenant-create",
        "tenant-config",
        "tenant-config-clear",
        "global-config",
        "note-use",
        "counters",
        "evict",
        "forget",
    ] {
        let held = segment.lines().any(|l| l.split(' ').next() == Some(kind));
        assert!(held, "the fixture holds a {kind} line");
    }
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    let report = rs.recover(base, &[segment.to_string()]).unwrap();
    assert_eq!((report.base_seq, report.records_skipped, report.records_applied), (4, 4, 12));

    assert_eq!(recovered_summary(&rs), include_str!("fixtures/parent_v6_expect.txt"));
    let ana = rs.config_as(Some("ana"));
    assert!(!ana.register_final_outputs, "the tenant-config record applied");
    assert_eq!(ana.selection.eviction_window, Some(1));
    assert!(!rs.config_as(None).wave_parallel, "and the global-config record");
    assert_eq!(rs.config_as(Some("scratch")), rs.config_as(None), "and the clear");
}

/// Regression: `recover` advances the journal's allocation cursor to
/// the last replayed seq but previously left the capture cursor at
/// zero, so a freshly recovered session reported every replayed record
/// as "uncaptured" — a phantom lag that never drained, because those
/// records were never in the live buffer to begin with. Both cursors
/// must land together.
#[test]
fn recover_leaves_no_phantom_seq_lag() {
    let (shared, segments, _) = journaled_scenario();
    let recovered = session_over(&shared, ReStoreConfig::default());
    let report = recovered.recover(BASE_FIXTURE, &segments).unwrap();
    assert!(report.records_applied > 0);
    assert_eq!(
        recovered.journal_stats().seq_lag,
        0,
        "replayed records were never buffered; recovery must not report them as lag"
    );
    // Resuming continuous checkpointing confirms it: the first delta
    // after recovery is empty, not a ghost of the replayed stream.
    recovered.enable_journal(JournalConfig::default());
    assert_eq!(recovered.save_state_delta().unwrap(), Vec::<String>::new());
    assert_eq!(recovered.journal_stats().seq_lag, 0);
}

#[test]
fn journal_stats_track_recording() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    assert!(!rs.journal_stats().enabled);
    rs.enable_journal(JournalConfig { segment_bytes: 256 });
    assert!(rs.journal_stats().enabled);
    rs.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    let stats = rs.journal_stats();
    assert!(stats.seq > 0, "mutations must have been recorded");
    assert!(stats.live_bytes > 0 || stats.sealed_segments > 0);
    // Tiny segment bound: the workload must have rolled segments.
    let segments = rs.save_state_delta().unwrap();
    assert!(segments.len() > 1, "256-byte segments must roll over, got {}", segments.len());
}

/// One journaled workload in a fresh session over fresh data: the base,
/// every delta segment, and the final document. An input overwrite stales
/// entries in two namespaces, so the next run in each deletes several
/// stored files at once (their provenance forgotten in one batch); and a
/// job of the default namespace overwrites a final output of `ana` and one
/// of `bo` in one wave. Then two job-free warm reruns with a stored file
/// deleted behind the session's back between them (the second forgets
/// it), a strict policy with a one-query eviction window and a retry
/// policy for `bo`, and that override cleared again. Last, the dry runs of
/// a query the repository answers whole and of one it answers in part,
/// and the session's metrics with every timing family masked. The engine
/// runs its tasks on `threads` worker threads.
fn journaled_run(threads: usize) -> (String, Vec<String>, String, [String; 3]) {
    let shared = pv_users();
    let engine = EngineConfig { worker_threads: threads, ..Default::default() };
    let mut journaled =
        Journaled::start(&shared, Some(engine), JournalConfig { segment_bytes: 1024 }, None);
    let rs = &journaled.session;
    rs.execute_query(&join_query("/out/j"), "/wf/j").unwrap();
    rs.execute_query(&sum_query("/out/s"), "/wf/s").unwrap();
    rs.execute_query_as(Some("ana"), &join_query("/out/ana"), "/wf/ana").unwrap();
    rs.execute_query_as(Some("bo"), &sum_query("/out/bo"), "/wf/bo").unwrap();
    journaled.seal();

    let rs = &journaled.session;
    overwrite(&shared, "/data/pv", b"alice\t5\nbob\t7\ndave\t2\n");
    rs.execute_query(&sum_query("/out/s2"), "/wf/s2").unwrap();
    rs.execute_query(
        "A = load '/data/users' as (name, city);
         B = filter A by city != 'x';
         store A into '/out/ana';
         store B into '/out/bo';",
        "/wf/both",
    )
    .unwrap();
    rs.execute_query_as(Some("ana"), &sum_query("/out/ana2"), "/wf/ana2").unwrap();
    journaled.seal();

    // The first rerun finds every stored file and forgets nothing. The
    // second may skip that check only while nothing was deleted since,
    // and something was.
    let rs = &journaled.session;
    let rerun = rs.execute_query(&sum_query("/out/s3"), "/wf/s3").unwrap();
    assert!(rerun.job_results.is_empty(), "the rerun is answered from the repository");
    let first = journaled.seal();
    assert!(!first.iter().any(|s| s.contains("\nforget ")), "nothing to forget: {first:?}");
    let rs = &journaled.session;
    let victim = rs
        .repository_as(None)
        .entries()
        .iter()
        .map(|e| e.output_path.clone())
        .find(|p| *p != rerun.final_output)
        .expect("a second stored file");
    assert!(shared.delete(&victim));
    let rerun = rs.execute_query(&sum_query("/out/s4"), "/wf/s4").unwrap();
    assert!(rerun.job_results.is_empty(), "the rerun is answered from the repository");
    let second = journaled.seal();
    let forget = format!("\nforget {victim:?}\n");
    assert!(second.iter().any(|s| s.contains(&forget)), "{victim} forgotten: {second:?}");

    // A base input overwritten behind the session's back between two
    // reruns: the second evicts every entry that read it, and journals
    // the evictions and the forgets.
    overwrite(&shared, "/data/pv", b"alice\t6\nbob\t7\n");
    let rerun = journaled.session.execute_query(&sum_query("/out/s5"), "/wf/s5").unwrap();
    assert_eq!(rerun.jobs_skipped, 0, "the changed input is a miss");
    let third = journaled.seal();
    assert!(third.iter().any(|s| s.contains("\nevict ")), "evictions journaled: {third:?}");
    assert!(forget_batches(&third).iter().any(|b| b.0 == "\"\"" && b.1 > 0), "{third:?}");

    let strict = ReStoreConfig {
        selection: SelectionPolicy::strict(1),
        failure: FailurePolicy {
            on_failure: FailureDisposition::Retry,
            max_retries: 2,
            ..Default::default()
        },
        ..Default::default()
    };
    let rs = &journaled.session;
    rs.set_config_as(Some("bo"), strict);
    rs.execute_query_as(Some("bo"), &join_query("/out/bo2"), "/wf/bo2").unwrap();
    rs.execute_query(&join_query("/out/j2"), "/wf/j2").unwrap();
    rs.execute_query_as(Some("bo"), &sum_query("/out/bo3"), "/wf/bo3").unwrap();
    rs.clear_config_as("bo");
    rs.execute_query_as(Some("bo"), &join_query("/out/bo4"), "/wf/bo4").unwrap();
    let last = journaled.seal();
    let evicted: usize =
        forget_batches(&last).iter().filter(|(s, _)| s == "\"bo\"").map(|b| b.1).sum();
    assert!(evicted > 0, "the window evicts in bo: {last:?}");
    assert!(last.concat().contains("\ntenant-config-clear \"bo\"\n"));
    let Journaled { session: rs, base, segments } = journaled;
    let warm = rs.explain_query_as(None, &join_query("/out/j3"), "/wf/j3").unwrap();
    assert_eq!(warm.matches("job would be skipped").count(), 2, "{warm}");
    let by_city = join_query("/out/c").replace("group C by $0", "group C by $1");
    let partly = rs.explain_query_as(None, &by_city, "/wf/c").unwrap();
    assert_eq!(partly.matches("job would be skipped").count(), 1, "{partly}");
    let metrics: String = rs
        .registry()
        .render()
        .lines()
        .filter(|l| !l.contains("_seconds"))
        .flat_map(|l| [l, "\n"])
        .collect();
    (base, segments, rs.save_state(), [warm, partly, metrics])
}

/// Each `repo-batch` record's namespace and how many paths it forgets.
fn forget_batches(segments: &[String]) -> Vec<(String, usize)> {
    let mut batches: Vec<(String, usize)> = Vec::new();
    for line in segments.iter().flat_map(|s| s.lines()) {
        if let Some(space) = line.strip_prefix("repo-batch ") {
            batches.push((space.to_string(), 0));
        } else if line.starts_with("forget ") {
            batches.last_mut().expect("a forget inside a repo-batch").1 += 1;
        }
    }
    batches
}

/// Same inputs, same bytes: the workload run twice in fresh sessions, at
/// one and at two engine threads, journals byte-identical segments, ends
/// in a byte-identical document, explains the same and renders the same
/// metrics but for their timings. The provenance
/// table and the namespace map are hash maps, so this holds only because
/// the paths forgotten together and the namespaces an overwrite reaches
/// are journaled in sorted order.
#[test]
fn one_workload_journals_the_same_bytes_every_run() {
    let (base, segments, state, explained) = journaled_run(1);
    let batches = forget_batches(&segments);
    assert!(batches.iter().any(|(_, n)| *n >= 2), "several paths forgotten at once: {batches:?}");
    for space in ["\"ana\"", "\"bo\""] {
        assert!(batches.iter().any(|(s, n)| s == space && *n > 0), "{space} forgets: {batches:?}");
    }
    let all = segments.concat();
    assert!(all.contains("\ntenant-config \"bo\"\n"), "the override is journaled");
    assert!(all.contains("eviction_window 1\n") && all.contains("on_failure retry\n"));
    let (base2, segments2, state2, explained2) = journaled_run(2);
    assert_eq!(base, base2);
    assert_eq!(segments.len(), segments2.len());
    for (i, (a, b)) in segments.iter().zip(&segments2).enumerate() {
        assert_eq!(a, b, "segment {i}");
    }
    assert_eq!(state, state2);
    assert_eq!(explained, explained2);
}
