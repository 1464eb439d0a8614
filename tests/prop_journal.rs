//! Property: truncating the snapshot journal at **any byte offset**
//! recovers to a state byte-identical to some prefix of committed
//! records — a torn tail is tolerated and truncated, never corrupting
//! recovery. This is the crash model: a process dying mid-append can
//! only shorten the segment being written.

use proptest::prelude::*;
use restore_suite::common::Error;
use restore_suite::core::journal::segment_boundaries;
use restore_suite::core::{JournalConfig, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use std::sync::OnceLock;

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

/// One journaled workload, built once: the shared DFS, the base
/// checkpoint, the earlier (intact) segments, the final segment the
/// property truncates, its record boundaries, and the expected
/// recovered state per boundary prefix.
struct Scenario {
    dfs: Dfs,
    base: String,
    prior: Vec<String>,
    last: String,
    boundaries: Vec<usize>,
    expected: Vec<String>,
}

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
        dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();

        let live = ReStore::new(engine_over(dfs.clone()), ReStoreConfig::default());
        live.enable_journal(JournalConfig::default());
        let base = live.save_state();

        // Earlier history, sealed into intact segments.
        live.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
        let prior = live.save_state_delta().unwrap();

        // The final segment mixes record types: registrations in two
        // namespaces, a warm hit (note-use), config changes, counters,
        // and dead-letter traffic.
        live.execute_query_as(Some("ana"), &join_query("/out/j"), "/wf/j").unwrap();
        let warm = live.execute_query(&sum_query("/out/a2"), "/wf/a2").unwrap();
        assert_eq!(warm.jobs_skipped, 1);
        live.set_config_as(
            Some("ana"),
            ReStoreConfig { register_final_outputs: false, ..Default::default() },
        );
        // Dead-letter puts in two namespaces plus an ack, so truncation
        // coverage includes `dlq-put`/`dlq-ack` records: a cut between
        // them must recover exactly the committed-prefix queue.
        let parked = restore_suite::dataflow::compile(&sum_query("/out/dead"), "/wf/dead").unwrap();
        live.dlq_put_as(Some("ana"), parked.clone(), "engine: node 3 failed", 2);
        let acked = live.dlq_put_as(None, parked.clone(), "boom", 1);
        live.dlq_put_as(None, parked, "still failing\nafter retries", 3);
        live.dlq_ack_as(None, &[acked.id]);
        let mut tail = live.save_state_delta().unwrap();
        assert_eq!(tail.len(), 1, "tail workload must fit one segment");
        let last = tail.pop().unwrap();

        let boundaries = segment_boundaries(&last);
        assert!(boundaries.len() > 3, "need several records to truncate between");

        // Reference state per clean prefix of the final segment.
        let expected = boundaries
            .iter()
            .map(|&b| {
                let mut segments = prior.clone();
                segments.push(last[..b].to_string());
                let rs = ReStore::new(engine_over(dfs.clone()), ReStoreConfig::default());
                rs.recover(&base, &segments).unwrap();
                rs.save_state()
            })
            .collect();
        Scenario { dfs, base, prior, last, boundaries, expected }
    })
}

/// Recovering from a base and **no segments at all** is how a plain
/// dump loads: nothing to replay, no torn tail, and the session re-saves
/// as the base byte for byte.
#[test]
fn recovery_with_no_segments_is_the_base() {
    let s = scenario();
    let rs = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
    let report = rs.recover(&s.base, &[]).unwrap();
    assert_eq!(report.records_applied, 0);
    assert_eq!(report.records_skipped, 0);
    assert!(report.torn_tail.is_none());
    assert_eq!(rs.save_state(), s.base);
}

/// Degenerate segment bodies a crashed or buggy checkpoint store could
/// hand back: empty, whitespace-only, prefixes of the segment header,
/// a header followed by a torn or over-long frame, arbitrary printable
/// junk.
fn degenerate_segment() -> impl Strategy<Value = String> {
    let header = "restore-journal v1";
    prop_oneof![
        Just(String::new()),
        "[ \t\n]{1,8}",
        (0..header.len() + 2).prop_map(move |n| format!("{header}\n")[..n].to_string()),
        Just(format!("{header}\nr 7 12")),
        Just(format!("{header}\nr 7 9999 0123456789abcdef\ntorn payload")),
        "[ -~]{0,32}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate the final segment at an arbitrary fraction of its
    /// length: recovery must succeed, report a torn tail exactly when
    /// the cut is mid-record, and land byte-identically on the state
    /// of the largest committed prefix at or below the cut.
    #[test]
    fn truncation_at_any_offset_recovers_a_committed_prefix(frac in 0.0f64..1.0) {
        let s = scenario();
        let cut = ((s.last.len() as f64) * frac) as usize;
        let mut segments = s.prior.clone();
        segments.push(s.last[..cut].to_string());

        let rs = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
        let report = rs.recover(&s.base, &segments).unwrap();

        // Largest committed prefix at or below the cut (cut below the
        // segment header = zero records, like boundary 0).
        let idx = s.boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
        prop_assert_eq!(&rs.save_state(), &s.expected[idx], "cut at byte {}", cut);

        let at_boundary = s.boundaries.contains(&cut) || cut == s.last.len();
        prop_assert_eq!(report.torn_tail.is_none(), at_boundary, "cut at byte {}", cut);
    }

    /// Cutting exactly at each record boundary is the clean-shutdown
    /// case: no torn tail and the exact prefix state.
    #[test]
    fn truncation_at_each_boundary_is_clean(idx in 0usize..64) {
        let s = scenario();
        let idx = idx % s.boundaries.len();
        let cut = s.boundaries[idx];
        let mut segments = s.prior.clone();
        segments.push(s.last[..cut].to_string());
        let rs = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
        let report = rs.recover(&s.base, &segments).unwrap();
        prop_assert!(report.torn_tail.is_none());
        prop_assert_eq!(&rs.save_state(), &s.expected[idx]);
    }

    /// A degenerate **final** segment — the only slot a crash can
    /// damage arbitrarily — either recovers (reporting a torn tail for
    /// any cut that isn't a clean header prefix) or fails with a typed
    /// journal error. Never a panic, and the session left behind always
    /// round-trips through save/load.
    #[test]
    fn degenerate_final_segment_reports_or_fails_typed(junk in degenerate_segment()) {
        let s = scenario();
        let mut segments = s.prior.clone();
        segments.push(junk.clone());
        let rs = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
        match rs.recover(&s.base, &segments) {
            Ok(report) => {
                // Nothing decodable in the junk: the state is exactly
                // the prior-segments prefix (boundary 0 of the final
                // segment), and any short cut is called out as torn.
                prop_assert_eq!(&rs.save_state(), &s.expected[0]);
                let clean = junk == format!("{}\n", "restore-journal v1");
                prop_assert_eq!(report.torn_tail.is_none(), clean, "junk {:?}", &junk);
            }
            Err(Error::Journal { segment, .. }) => {
                prop_assert_eq!(segment, segments.len() - 1, "the junk segment is named");
            }
            Err(other) => prop_assert!(false, "expected a typed journal error, got {other:?}"),
        }
        let state = rs.save_state();
        let reload = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
        reload.recover(&state, &[]).unwrap();
        prop_assert_eq!(reload.save_state(), state);
    }

    /// The same junk in a **non-final** slot is corruption, not a crash
    /// artifact: only a fully formed empty segment passes (holding zero
    /// records); everything else is a typed error naming segment 0 —
    /// never a torn-tail report, never a panic.
    #[test]
    fn degenerate_non_final_segment_fails_typed(junk in degenerate_segment()) {
        let s = scenario();
        let mut segments = vec![junk.clone()];
        segments.extend(s.prior.iter().cloned());
        segments.push(s.last.clone());
        let rs = ReStore::new(engine_over(s.dfs.clone()), ReStoreConfig::default());
        match rs.recover(&s.base, &segments) {
            Ok(report) => {
                prop_assert_eq!(&junk, &format!("{}\n", "restore-journal v1"));
                prop_assert!(report.torn_tail.is_none());
                prop_assert_eq!(&rs.save_state(), s.expected.last().unwrap());
            }
            Err(Error::Journal { segment, .. }) => prop_assert_eq!(segment, 0),
            Err(other) => prop_assert!(false, "expected a typed journal error, got {other:?}"),
        }
    }
}
