//! Durable sessions: the `restore-state` format, typed parse errors, the
//! refusal of a document or segment of another format epoch and of a
//! key an earlier epoch wrote, and per-tenant policy overrides.

use restore_common::Error;
use restore_core::{Heuristic, JournalConfig, ReStoreConfig, SelectionPolicy, EPOCH};
use restore_testkit::{join_query, pv_users, session_over, sum_query, Journaled};

// ---- round trip and restart parity ----

#[test]
fn v2_save_load_save_is_byte_identical() {
    let shared = pv_users();
    let rs = session_over(&shared, ReStoreConfig::default());
    rs.set_config_as(
        Some("tuned"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query(&sum_query("/out/d"), "/wf/d").unwrap();
    rs.execute_query_as(Some("tuned"), &join_query("/out/t"), "/wf/t").unwrap();
    rs.execute_query_as(Some("plain"), &sum_query("/out/p"), "/wf/p").unwrap();

    let s1 = rs.save_state();
    let resumed = session_over(&shared, ReStoreConfig::default());
    resumed.recover(&s1, &[]).unwrap();
    let s2 = resumed.save_state();
    assert_eq!(s1, s2, "save -> load -> save must be byte-identical");

    // And a second generation, for good measure.
    let third = session_over(&shared, ReStoreConfig::default());
    third.recover(&s2, &[]).unwrap();
    assert_eq!(third.save_state(), s2);
}

#[test]
fn v2_restores_tenant_namespaces_configs_and_counters() {
    let shared = pv_users();
    let rs = session_over(&shared, ReStoreConfig::default());
    let tuned = ReStoreConfig {
        heuristic: Heuristic::Conservative,
        selection: SelectionPolicy { eviction_window: Some(50), ..Default::default() },
        ..Default::default()
    };
    rs.set_config_as(Some("tuned"), tuned.clone());
    rs.execute_query_as(Some("tuned"), &sum_query("/out/t"), "/wf/t").unwrap();
    rs.execute_query_as(Some("other"), &join_query("/out/o"), "/wf/o").unwrap();
    rs.execute_query(&sum_query("/out/d"), "/wf/d").unwrap();
    let state = rs.save_state();
    let want_tuned = rs.stats_as(Some("tuned"));
    let want_other = rs.stats_as(Some("other"));
    let want_default = rs.stats_as(None);
    drop(rs);

    let resumed = session_over(&shared, ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert_eq!(resumed.stats_as(Some("tuned")), want_tuned);
    assert_eq!(resumed.stats_as(Some("other")), want_other);
    assert_eq!(resumed.stats_as(None), want_default);
    assert_eq!(resumed.tenant_ids(), vec!["other".to_string(), "tuned".to_string()]);
    assert_eq!(resumed.config_as(Some("tuned")), tuned, "policy override survives the restart");
    assert_eq!(
        resumed.config_as(Some("other")),
        resumed.config_as(None),
        "tenants without an override follow the global default"
    );

    // Warm-hit parity: each tenant's rerun is answered from its own
    // restored repository.
    let t = resumed.execute_query_as(Some("tuned"), &sum_query("/out/t2"), "/wf/t2").unwrap();
    assert_eq!(t.jobs_skipped, 1);
    let o = resumed.execute_query_as(Some("other"), &join_query("/out/o2"), "/wf/o2").unwrap();
    assert!(o.jobs_skipped > 0 || !o.rewrites.is_empty());
    let d = resumed.execute_query(&sum_query("/out/d2"), "/wf/d2").unwrap();
    assert_eq!(d.jobs_skipped, 1);
}

#[test]
fn v2_load_replaces_preexisting_tenants() {
    let shared = pv_users();
    let rs = session_over(&shared, ReStoreConfig::default());
    rs.execute_query_as(Some("keeper"), &sum_query("/out/k"), "/wf/k").unwrap();
    let state = rs.save_state();

    let other = session_over(&shared, ReStoreConfig::default());
    other.execute_query_as(Some("stray"), &sum_query("/out/s"), "/wf/s").unwrap();
    other.recover(&state, &[]).unwrap();
    // A restore is a full-session replacement: tenants not in the
    // snapshot are gone.
    assert_eq!(other.tenant_ids(), vec!["keeper".to_string()]);
}

#[test]
fn v2_load_without_default_section_still_resets_default_namespace() {
    // Hand-prune the default `--space ""--` section out of a valid
    // document: a restore is a *full* session replacement, so the
    // default namespace must come back empty, not keep stale state.
    let shared = pv_users();
    let src = session_over(&shared, ReStoreConfig::default());
    src.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let doc = src.save_state();
    let start = doc.find("--space \"\"--").unwrap();
    let end = doc.find("--space \"ana\"--").unwrap();
    let pruned = format!("{}{}", &doc[..start], &doc[end..]);

    let rs = session_over(&shared, ReStoreConfig::default());
    rs.execute_query(&sum_query("/out/stale"), "/wf/stale").unwrap();
    assert!(rs.stats_as(None).repository_entries > 0);
    rs.recover(&pruned, &[]).unwrap();
    assert_eq!(rs.stats_as(None).repository_entries, 0, "default namespace fully replaced");
    assert_eq!(rs.stats_as(None).stored_files, 0);
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string()]);
    let names: Vec<String> = rs.stats_all().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["", "ana"], "the default namespace exists, once");
    // The source's default section was empty, so the recovered session
    // saves back as the unpruned document, byte for byte.
    assert_eq!(rs.save_state(), doc);
}

// ---- per-tenant policy overrides govern execution ----

#[test]
fn tenant_config_override_governs_execution() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    // "frugal" stores nothing: no candidate heuristic, no whole-job
    // registration.
    rs.set_config_as(
        Some("frugal"),
        ReStoreConfig {
            heuristic: Heuristic::None,
            register_final_outputs: false,
            ..Default::default()
        },
    );

    rs.execute_query_as(Some("frugal"), &sum_query("/out/f"), "/wf/f").unwrap();
    rs.execute_query_as(Some("packrat"), &sum_query("/out/p"), "/wf/p").unwrap();

    assert_eq!(rs.stats_as(Some("frugal")).repository_entries, 0, "frugal's policy stores nothing");
    assert!(
        rs.stats_as(Some("packrat")).repository_entries > 0,
        "packrat follows the global store-everything default"
    );

    // The override is visible, and clearing it falls back to the global.
    assert_eq!(rs.config_as(Some("frugal")).heuristic, Heuristic::None);
    rs.clear_config_as("frugal");
    assert_eq!(rs.config_as(Some("frugal")), rs.config_as(None));
    let f2 = rs.execute_query_as(Some("frugal"), &sum_query("/out/f2"), "/wf/f2").unwrap();
    assert!(f2.candidates_stored > 0 || rs.stats_as(Some("frugal")).repository_entries > 0);
}

#[test]
fn tenant_eviction_policy_sweeps_only_its_own_space() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    // "spartan" evicts anything unused for one tick; the global default
    // (and thus "packrat") never evicts.
    rs.set_config_as(
        Some("spartan"),
        ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        },
    );

    // Tick 1-2: both tenants store entries.
    rs.execute_query_as(Some("spartan"), &sum_query("/out/s1"), "/wf/s1").unwrap();
    rs.execute_query_as(Some("packrat"), &sum_query("/out/p1"), "/wf/p1").unwrap();
    let packrat_before = rs.stats_as(Some("packrat")).repository_entries;

    // Ticks 3..: spartan submits a *different* query well past the
    // window; its sweep (run with spartan's policy) evicts spartan's
    // stale entries. Packrat's space is untouched.
    for i in 0..4 {
        rs.execute_query_as(Some("spartan"), &join_query(&format!("/out/s{i}j")), "/wf/sj")
            .unwrap();
    }
    assert!(
        rs.repository_as(Some("spartan"))
            .entries()
            .iter()
            .all(|e| !e.file.path.contains("/out/s1")),
        "spartan's one-tick window evicted its stale entries"
    );
    assert_eq!(
        rs.stats_as(Some("packrat")).repository_entries,
        packrat_before,
        "spartan's aggressive policy never touches packrat's space"
    );
}

// ---- typed parse errors ----

fn expect_state_err(doc: &str, want_line: usize, needle: &str) {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    match rs.recover(doc, &[]) {
        Err(Error::State { line, msg }) => {
            assert_eq!(line, want_line, "error should point at line {want_line}: {msg}");
            assert!(
                msg.contains(needle),
                "error at line {line} should mention {needle:?}, got: {msg}"
            );
        }
        Err(other) => panic!("expected Error::State, got {other:?}"),
        Ok(_) => panic!("malformed document must not load"),
    }
}

/// A small valid document to corrupt per test.
fn valid_doc() -> String {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    rs.save_state()
}

/// The first line of a document of this epoch.
fn header() -> String {
    format!("restore-state v{EPOCH}")
}

#[test]
fn malformed_version_header() {
    expect_state_err("restore-state\ntick 0\ncand 0\n", 1, "restore-state");
    expect_state_err("restore-state vx\ntick 0\ncand 0\n", 1, "restore-state");
    expect_state_err("", 1, "empty document");
    expect_state_err("tick 0\n", 1, &format!("expected {:?}", header()));
}

#[test]
fn malformed_tick_line() {
    expect_state_err(&format!("{}\ntick x\ncand 0\n", header()), 2, "tick");
    expect_state_err(&format!("{}\n", header()), 2, "tick");
}

#[test]
fn malformed_cand_line() {
    expect_state_err(&format!("{}\ntick 3\ncand\n", header()), 3, "cand");
    expect_state_err(&format!("{}\ntick 3\ncand 1\nseq\n", header()), 4, "seq");
}

#[test]
fn missing_config_section() {
    let doc = format!("{}\ntick 3\ncand 1\nseq 0\n--repository--\n", header());
    expect_state_err(&doc, 5, "--config--");
}

#[test]
fn unknown_config_key_is_located() {
    let doc = valid_doc().replace("reuse_enabled true", "frobnicate 9");
    let line = 1 + doc.lines().position(|l| l == "frobnicate 9").unwrap();
    expect_state_err(&doc, line, "frobnicate");
}

#[test]
fn bad_config_value_is_located() {
    let doc = valid_doc().replace("wave_parallel true", "wave_parallel maybe");
    let line = 1 + doc.lines().position(|l| l == "wave_parallel maybe").unwrap();
    expect_state_err(&doc, line, "wave_parallel");
}

#[test]
fn malformed_space_header() {
    let doc = valid_doc().replace("--space \"ana\"--", "--space ana--");
    let line = 1 + doc.lines().position(|l| l == "--space ana--").unwrap();
    expect_state_err(&doc, line, "--space");
}

#[test]
fn unknown_section_header() {
    let doc = valid_doc().replace("--space \"ana\"--", "--tenant \"ana\"--");
    let line = 1 + doc.lines().position(|l| l == "--tenant \"ana\"--").unwrap();
    expect_state_err(&doc, line, "--space");
}

#[test]
fn duplicate_space_section_is_rejected() {
    let base = valid_doc();
    let tail = base[base.find("--space \"ana\"--").unwrap()..].to_string();
    let doc = format!("{base}{tail}");
    let line = doc
        .lines()
        .enumerate()
        .filter(|(_, l)| *l == "--space \"ana\"--")
        .nth(1)
        .map(|(i, _)| i + 1)
        .unwrap();
    expect_state_err(&doc, line, "duplicate");
}

/// The section epoch 7 kept provenance in is not read: records are
/// `file …` blocks of the repository.
#[test]
fn a_provenance_section_is_refused() {
    let doc = valid_doc().replacen("--repository--", "--provenance--\n--repository--", 1);
    let line = 1 + doc.lines().position(|l| l == "--provenance--").unwrap();
    expect_state_err(&doc, line, "expected --repository--, got \"--provenance--\"");
}

#[test]
fn missing_repository_section() {
    let doc = valid_doc().replacen("--repository--", "--repo--", 1);
    let line = 1 + doc.lines().position(|l| l == "--repo--").unwrap();
    expect_state_err(&doc, line, "--repository--");
}

#[test]
fn corrupt_file_block_names_the_section() {
    let doc = valid_doc().replacen(" text\n", " txt\n", 1);
    match session_over(&pv_users(), ReStoreConfig::default()).recover(&doc, &[]) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--repository--") && msg.contains("\"txt\""), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

#[test]
fn corrupt_repository_body_names_the_section() {
    let doc = valid_doc().replacen("entry ", "entryx ", 1);
    match session_over(&pv_users(), ReStoreConfig::default()).recover(&doc, &[]) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--repository--"), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

// ---- other epochs, and documents from sharded repositories ----

/// A document or a journal segment whose first line names another epoch
/// is refused whole with one typed error: the line, the epoch it names
/// and the one this build reads. The readers read only this epoch: a v5
/// document's input versions counted writes per path, and a count can
/// equal a later commit tick; a v6 document's entries do not say which
/// version of their own file they stored, or in which format; a v7
/// document's provenance records say neither that nor what they read.
#[test]
fn an_earlier_epoch_is_refused_naming_both_epochs() {
    let mut journaled = Journaled::start(&pv_users(), None, JournalConfig::default(), None);
    let rs = &journaled.session;
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    journaled.seal();
    let Journaled { session: rs, base, segments } = journaled;
    let doc = rs.save_state();
    assert!(doc.starts_with(&format!("{}\n", header())));
    let segment_header = restore_core::journal::SEGMENT_HEADER;
    assert_eq!(segment_header, format!("restore-journal v{EPOCH}"));

    // Refused on a session that holds `doc`, and refused whole: the
    // session still holds `doc` after the error.
    let refused = |base: &str, segments: &[String], line: &str, found: u64| {
        match rs.recover(base, segments) {
            Err(e @ Error::Epoch { .. }) => {
                assert_eq!(e, Error::Epoch { line: line.into(), found, reads: EPOCH });
                let text = e.to_string();
                assert!(text.contains(line) && text.contains(&format!("epoch {EPOCH}")), "{text}");
            }
            other => panic!("{line}: expected Error::Epoch, got {other:?}"),
        }
        assert_eq!(rs.save_state(), doc, "{line}: the refused recovery changed the session");
    };
    for found in [4, 5, 6, 7, EPOCH + 1] {
        let old = format!("restore-state v{found}");
        refused(&doc.replacen(&header(), &old, 1), &[], &old, found);
    }
    // A v7 document's layout: a `--provenance--` section before each
    // namespace's repository.
    let v7 = doc
        .replacen(&header(), "restore-state v7", 1)
        .replace("--repository--\n", "--provenance--\n--repository--\n");
    assert!(v7.len() > doc.len(), "the document holds namespaces");
    refused(&v7, &[], "restore-state v7", 7);
    // `v1` is the segment header this journal wrote before the epoch.
    // In the final slot a torn header is forgiven, so check it there and
    // before it.
    for found in [1, 5, 6, 7, EPOCH + 1] {
        let old = format!("restore-journal v{found}");
        let stale: Vec<String> =
            segments.iter().map(|s| s.replacen(segment_header, &old, 1)).collect();
        refused(&base, &stale, &old, found);
        let mut mixed = stale.clone();
        mixed.extend(segments.iter().cloned());
        refused(&base, &mixed, &old, found);
    }

    // The same base and segments at this epoch recover.
    let fresh = session_over(rs.engine().dfs(), ReStoreConfig::default());
    fresh.recover(&base, &segments).unwrap();
    assert_eq!(fresh.save_state(), doc);
}

/// Insert a `repo_shards <n>` line after the `nth` `eviction_window`
/// line, where the releases that wrote the key put it (0 = the global
/// config, 1 = the first tenant override).
fn with_repo_shards(doc: &str, nth: usize, n: usize) -> String {
    let key = "eviction_window none\n";
    let at = doc.match_indices(key).nth(nth).expect("config section").0 + key.len();
    format!("{}repo_shards {n}\n{}", &doc[..at], &doc[at..])
}

/// A sharded repository's document lists its entries in
/// shard-concatenation order, not §3 order. Its `repo_shards` key is
/// unknown to this epoch, so it is refused at that line, whatever its
/// value, rather than loaded misordered.
#[test]
fn sharded_document_is_refused_not_misordered() {
    let shared = pv_users();
    let rs = session_over(&shared, ReStoreConfig::default());
    rs.set_config_as(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query(&join_query("/out/d"), "/wf/d").unwrap();
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let doc = rs.save_state();
    assert!(!doc.contains("repo_shards"), "the key is not written");
    for nth in [0, 1] {
        for n in [1, 8] {
            let bad = with_repo_shards(&doc, nth, n);
            let line = 1 + bad.lines().position(|l| l.starts_with("repo_shards")).unwrap();
            expect_state_err(&bad, line, "unknown config key \"repo_shards\"");
        }
    }
}
