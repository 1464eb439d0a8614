//! Property: truncating the snapshot journal at **any byte offset**
//! recovers to a state byte-identical to some prefix of committed
//! records — a torn tail is tolerated and truncated, never corrupting
//! recovery. This is the crash model: a process dying mid-append can
//! only shorten the segment being written.

use proptest::prelude::*;
use restore_suite::common::Error;
use restore_suite::core::journal::{segment_boundaries, SEGMENT_HEADER};
use restore_suite::core::{JournalConfig, ReStoreConfig};
use restore_suite::dfs::Dfs;
use restore_testkit::{join_query, pv_users, session_over, sum_query, Journaled};
use std::sync::OnceLock;

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
        let dfs = pv_users();
        let mut journaled = Journaled::start(&dfs, None, JournalConfig::default(), None);
        let live = &journaled.session;

        // Earlier history, sealed into intact segments.
        live.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
        let prior = journaled.seal();

        // The final segment mixes record types: registrations in three
        // namespaces (two of them created here), a warm hit (note-use),
        // a config set and its clear, counters.
        let live = &journaled.session;
        live.execute_query_as(Some("ana"), &join_query("/out/j"), "/wf/j").unwrap();
        let warm = live.execute_query(&sum_query("/out/a2"), "/wf/a2").unwrap();
        assert_eq!(warm.jobs_skipped, 1);
        live.set_config_as(
            Some("ana"),
            ReStoreConfig { register_final_outputs: false, ..Default::default() },
        );
        // A second tenant's cold run after the config set, then the
        // clear: a cut between them must recover the committed prefix's
        // override, and the override's absence after it.
        live.execute_query_as(Some("bo"), &sum_query("/out/b"), "/wf/b").unwrap();
        live.clear_config_as("ana");
        let mut tail = journaled.seal();
        assert_eq!(tail.len(), 1, "tail workload must fit one segment");
        let last = tail.pop().unwrap();
        let base = journaled.base;

        let boundaries = segment_boundaries(&last);
        assert!(boundaries.len() > 3, "need several records to truncate between");

        // Reference state per clean prefix of the final segment.
        let expected = boundaries
            .iter()
            .map(|&b| {
                let mut segments = prior.clone();
                segments.push(last[..b].to_string());
                let rs = session_over(&dfs, ReStoreConfig::default());
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
    let rs = session_over(&s.dfs, ReStoreConfig::default());
    let report = rs.recover(&s.base, &[]).unwrap();
    assert_eq!(report.records_applied, 0);
    assert_eq!(report.records_skipped, 0);
    assert!(report.torn_tail.is_none());
    assert_eq!(rs.save_state(), s.base);
}

/// A wave's entries and their provenance are one replay unit: at every
/// clean prefix of the final segment, every recovered entry's stored
/// path has the plan that produced it, in every namespace — lineage
/// expansion never stops at a path the repository serves.
#[test]
fn every_clean_prefix_keeps_each_entry_with_its_provenance() {
    let s = scenario();
    let mut orphans = Vec::new();
    for &cut in &s.boundaries {
        let mut segments = s.prior.clone();
        segments.push(s.last[..cut].to_string());
        let rs = session_over(&s.dfs, ReStoreConfig::default());
        rs.recover(&s.base, &segments).unwrap();
        for tenant in [None, Some("ana"), Some("bo")] {
            for e in rs.repository_as(tenant).entries() {
                if !rs.with_provenance_as(tenant, |p| p.contains(&e.output_path)) {
                    orphans.push((cut, tenant, e.output_path.clone()));
                }
            }
        }
    }
    assert!(orphans.is_empty(), "entries without provenance (cut, tenant, path): {orphans:?}");
}

/// Degenerate segment bodies a crashed or buggy checkpoint store could
/// hand back: empty, whitespace-only, prefixes of the segment header,
/// a header followed by a torn or over-long frame, arbitrary printable
/// junk.
fn degenerate_segment() -> impl Strategy<Value = String> {
    let header = SEGMENT_HEADER;
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

        let rs = session_over(&s.dfs, ReStoreConfig::default());
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
        let rs = session_over(&s.dfs, ReStoreConfig::default());
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
        let rs = session_over(&s.dfs, ReStoreConfig::default());
        match rs.recover(&s.base, &segments) {
            Ok(report) => {
                // Nothing decodable in the junk: the state is exactly
                // the prior-segments prefix (boundary 0 of the final
                // segment), and any short cut is called out as torn.
                prop_assert_eq!(&rs.save_state(), &s.expected[0]);
                let clean = junk == format!("{SEGMENT_HEADER}\n");
                prop_assert_eq!(report.torn_tail.is_none(), clean, "junk {:?}", &junk);
            }
            Err(Error::Journal { segment, .. }) => {
                prop_assert_eq!(segment, segments.len() - 1, "the junk segment is named");
            }
            Err(other) => prop_assert!(false, "expected a typed journal error, got {other:?}"),
        }
        let state = rs.save_state();
        let reload = session_over(&s.dfs, ReStoreConfig::default());
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
        let rs = session_over(&s.dfs, ReStoreConfig::default());
        match rs.recover(&s.base, &segments) {
            Ok(report) => {
                prop_assert_eq!(&junk, &format!("{SEGMENT_HEADER}\n"));
                prop_assert!(report.torn_tail.is_none());
                prop_assert_eq!(&rs.save_state(), s.expected.last().unwrap());
            }
            Err(Error::Journal { segment, .. }) => prop_assert_eq!(segment, 0),
            Err(other) => prop_assert!(false, "expected a typed journal error, got {other:?}"),
        }
    }
}
