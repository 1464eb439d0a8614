//! The snapshot journal end to end: incremental deltas replayed over a
//! base checkpoint reproduce the session **byte-identically**, the
//! previous wire version composes with today's journal (a committed v4
//! base + segments), bases and segments captured at earlier commits
//! still recover (one of them carrying a `replace` record, which is
//! read but no longer written), sequence anchoring skips covered
//! records, segments handed over out of order are sorted, and
//! malformed, duplicated or truncated segments fail naming the
//! offending record.

use restore_common::Error;
use restore_core::{JournalConfig, ReStore, ReStoreConfig, SelectionPolicy};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn dfs() -> Dfs {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
    dfs
}

fn engine_over(dfs: Dfs) -> Engine {
    Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
}

fn sum_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    )
}

fn join_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, revenue:int);
         B = load '/data/users' as (name, city);
         C = join B by name, A by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.revenue);
         store E into '{out}';"
    )
}

/// A literal base checkpoint in the **v4** wire format (the version
/// before the current one, from a release that still wrote
/// `repo_shards`): one default-namespace entry and a tenant carrying
/// only a policy override, anchored at sequence 0.
const V4_FIXTURE: &str = r#"restore-state v4
tick 7
cand 3
seq 0
--config--
reuse_enabled true
heuristic aggressive
repo_prefix "/restore"
delete_tmp false
register_final_outputs true
wave_parallel true
store_all true
require_size_reduction false
require_time_benefit false
reload_read_bps 83886080
eviction_window none
check_input_versions false
repo_shards 1
--space ""--
--provenance--
path "/repo/b"
  0 load "/data/pv"
  1 project 0,2 <- 0
  2 store "/repo/b" <- 1
end
--repository--
entry 0 "/repo/b" 100 10 5 1.5 2.5 3 6 1
input "/data/pv" 0
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
delete_tmp false
register_final_outputs true
wave_parallel true
store_all true
require_size_reduction false
require_time_benefit false
reload_read_bps 83886080
eviction_window none
check_input_versions false
--provenance--
--repository--
"#;

/// Run a mixed workload on a journaling session loaded from the v4
/// fixture, capturing deltas along the way. Returns the shared DFS,
/// the captured segments, and the reference full dump.
fn journaled_scenario() -> (Dfs, Vec<String>, String) {
    let shared = dfs();
    shared.write_all("/repo/b", b"stored bytes").unwrap();
    let live = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    live.recover(V4_FIXTURE, &[]).unwrap();
    live.enable_journal(JournalConfig::default());

    let mut segments = Vec::new();
    // Cold queries register entries in two namespaces…
    live.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    live.execute_query_as(Some("ana"), &join_query("/out/j"), "/wf/j").unwrap();
    segments.extend(live.save_state_delta().unwrap());
    // …a warm rerun dirties reuse counters (note-use records)…
    let warm = live.execute_query(&sum_query("/out/a2"), "/wf/a2").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "rerun must be a warm hit");
    // …and config/tenant changes ride along as their own records.
    live.set_config_as(
        Some("tuned"),
        ReStoreConfig { register_final_outputs: false, ..Default::default() },
    );
    live.set_config_as(Some("fresh-tenant"), ReStoreConfig::default());
    live.clear_config_as("fresh-tenant");
    segments.extend(live.save_state_delta().unwrap());

    let reference = live.save_state();
    (shared, segments, reference)
}

#[test]
fn v4_fixture_plus_journal_equals_fresh_v5_dump_byte_identically() {
    let (shared, segments, reference) = journaled_scenario();
    assert!(reference.starts_with("restore-state v5\n"));
    assert!(!segments.is_empty());

    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
    let report = recovered.recover(V4_FIXTURE, &segments).unwrap();
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
    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
    recovered.recover(V4_FIXTURE, &segments).unwrap();
    let warm = recovered.execute_query(&sum_query("/out/again"), "/wf/again").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "recovered repository must keep serving reuse");
    let warm_t = recovered.execute_query_as(Some("ana"), &join_query("/out/j2"), "/wf/j2").unwrap();
    assert!(
        warm_t.jobs_skipped > 0 || !warm_t.rewrites.is_empty(),
        "tenant namespaces recover too"
    );
}

#[test]
fn v4_base_skips_records_it_already_covers() {
    let (shared, segments, reference) = journaled_scenario();
    // The reference dump is itself a base anchored past every
    // record; replaying the full journal over it must skip everything
    // and land on the same bytes.
    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
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

    let recovered = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    let report = recovered.recover(V4_FIXTURE, &segments).unwrap();
    let torn = report.torn_tail.expect("the cut must be reported");
    assert_eq!(torn.segment, segments.len() - 1);
    // The prefix is a real state: it re-saves cleanly and still loads.
    let state = recovered.save_state();
    let reload = ReStore::new(engine_over(shared), ReStoreConfig::default());
    reload.recover(&state, &[]).unwrap();
    assert_eq!(reload.save_state(), state);
}

#[test]
fn torn_non_final_segment_names_the_record() {
    let (shared, mut segments, _) = journaled_scenario();
    assert!(segments.len() >= 2, "scenario must span segments");
    let cut = segments[0].len() - 3;
    segments[0].truncate(cut);
    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
    match recovered.recover(V4_FIXTURE, &segments) {
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
    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
    match recovered.recover(V4_FIXTURE, &segments) {
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
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    assert!(rs.save_state_delta().is_err(), "deltas need enable_journal first");
    rs.enable_journal(JournalConfig::default());
    assert_eq!(rs.save_state_delta().unwrap(), Vec::<String>::new(), "idle session, empty delta");
}

#[test]
fn eviction_sweeps_journal_their_evictions() {
    let shared = dfs();
    let live = ReStore::new(
        engine_over(shared.clone()),
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

    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
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
    let recovered = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    let report = recovered.recover(V4_FIXTURE, &segments).unwrap();
    assert!(report.records_applied > 0);
    assert_eq!(recovered.save_state(), reference, "replay order is seq order, not file order");

    // The first file again, as a third: its first frame repeats a seq.
    segments.push(segments[0].clone());
    let again = ReStore::new(engine_over(shared), ReStoreConfig::default());
    match again.recover(V4_FIXTURE, &segments) {
        Err(Error::Journal { segment: 2, record: 1, msg }) => {
            assert!(msg.contains("duplicate record seq"), "{msg}");
        }
        other => panic!("expected the later copy to be named, got {other:?}"),
    }
}

/// A batch that inserts nothing and evicts nothing is a writer section
/// and nothing else: no snapshot is published and no record journaled
/// (a wave that registers nothing — every `pigmix_reuse` query whose
/// candidates are all stored already — takes this path).
#[test]
fn an_empty_batch_publishes_and_journals_nothing() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());
    rs.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    let (publishes, sections) = rs.write_counters_as(None);
    let seq = rs.journal_stats().seq;
    rs.with_repository_mut_as(None, |repo| {
        repo.batch(|b| assert!(b.evict(u64::MAX).is_none(), "no such entry"));
    });
    assert_eq!(rs.write_counters_as(None), (publishes, sections + 1));
    assert_eq!(rs.journal_stats().seq, seq);
}

/// What a recovered session holds, in the form the `*_expect.txt`
/// fixtures list it: tick and cand, then per namespace the entry ids
/// and paths in repository order with their reuse counters, and the
/// sorted provenance paths.
fn recovered_summary(rs: &ReStore) -> String {
    let state = rs.save_state();
    let cand = state.lines().nth(2).unwrap();
    let mut got = format!("tick {}\n{cand}\n", rs.stats().queries_executed);
    for name in std::iter::once(String::new()).chain(rs.tenant_ids()) {
        let tenant = Some(name.as_str()).filter(|n| !n.is_empty());
        got += &format!("space {name:?}\n");
        rs.with_repository_as(tenant, |repo| {
            for e in repo.entries() {
                got += &format!(
                    "entry {} {:?} uses {} last {}\n",
                    e.id,
                    e.output_path,
                    e.use_count(),
                    e.last_used()
                );
            }
        });
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

/// One v5 base and one journal segment captured at `8c52a92`, whose
/// repository could still be sharded, at its default configuration —
/// both carry `repo_shards 1`, the segment in a `tenant-config` record —
/// with the state that commit recovered them to.
#[test]
fn base_and_segment_captured_at_the_parent_commit_still_recover() {
    let base = include_str!("fixtures/parent_v5_base.txt");
    let segment = include_str!("fixtures/parent_v5_segment.txt");
    assert!(base.contains("repo_shards 1\n") && segment.contains("repo_shards 1\n"));
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    let report = rs.recover(base, &[segment.to_string()]).unwrap();
    assert_eq!((report.base_seq, report.records_skipped, report.records_applied), (7, 7, 9));

    assert_eq!(recovered_summary(&rs), include_str!("fixtures/parent_v5_expect.txt"));
    assert!(!rs.config_as(Some("ana")).register_final_outputs, "the tenant-config record applied");
    assert!(!rs.save_state().contains("repo_shards"), "read, never written back");
}

/// A journal segment holding a `replace` record — a whole-session
/// `load_state` in the middle of journaling — between ordinary records,
/// captured at `f967496`, the last commit that wrote the record, with
/// the state that commit recovered it to. The record is no longer
/// written, but a journal that holds one still replays: what came
/// before it is dropped, the document it carries takes over (a `/other`
/// repository prefix and an `ana` override), and what came after lands
/// on top.
#[test]
fn segment_with_a_replace_record_captured_at_the_parent_commit_still_recovers() {
    let base = include_str!("fixtures/parent_replace_base.txt");
    let segment = include_str!("fixtures/parent_replace_segment.txt");
    assert!(segment.contains("\nreplace\nrestore-state v5\n"));
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    let report = rs.recover(base, &[segment.to_string()]).unwrap();
    assert_eq!((report.base_seq, report.records_skipped, report.records_applied), (0, 0, 10));

    assert_eq!(recovered_summary(&rs), include_str!("fixtures/parent_replace_expect.txt"));
    assert_eq!(rs.config().repo_prefix, "/other", "the replacing document's global config");
    assert!(!rs.config_as(Some("ana")).register_final_outputs, "and its tenant override");
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
    let recovered = ReStore::new(engine_over(shared), ReStoreConfig::default());
    let report = recovered.recover(V4_FIXTURE, &segments).unwrap();
    assert!(report.records_applied > 0);
    assert_eq!(
        recovered.journal_seq_lag(),
        0,
        "replayed records were never buffered; recovery must not report them as lag"
    );
    // Resuming continuous checkpointing confirms it: the first delta
    // after recovery is empty, not a ghost of the replayed stream.
    recovered.enable_journal(JournalConfig::default());
    assert_eq!(recovered.save_state_delta().unwrap(), Vec::<String>::new());
    assert_eq!(recovered.journal_seq_lag(), 0);
}

#[test]
fn journal_stats_track_recording() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    assert!(!rs.journal_enabled());
    rs.enable_journal(JournalConfig { segment_bytes: 256 });
    assert!(rs.journal_enabled());
    rs.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    let stats = rs.journal_stats();
    assert!(stats.seq > 0, "mutations must have been recorded");
    assert!(stats.live_bytes > 0 || stats.sealed_segments > 0);
    // Tiny segment bound: the workload must have rolled segments.
    let segments = rs.save_state_delta().unwrap();
    assert!(segments.len() > 1, "256-byte segments must roll over, got {}", segments.len());
}
