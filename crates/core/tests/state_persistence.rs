//! Durable sessions: a base checkpoint round trips byte for byte, a base
//! that is cut, changed or malformed is refused whole with a typed error
//! naming its record, a base or segment of another format epoch (or a
//! `restore-state` document) and a key an earlier epoch wrote are
//! refused, and per-tenant policy overrides govern execution.

use restore_common::Error;
use restore_core::journal::{segment_boundaries, SEGMENT_HEADER};
use restore_core::{Heuristic, JournalConfig, ReStore, ReStoreConfig, SelectionPolicy, EPOCH};
use restore_testkit::{join_query, pv_users, session_over, sum_query, Journaled, Oracle};

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
    // Drop the default namespace's `repository ""` record out of a valid
    // base: a restore is a *full* session replacement, so the default
    // namespace must come back empty, not keep stale state.
    let shared = pv_users();
    let src = session_over(&shared, ReStoreConfig::default());
    src.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let base = src.save_state();
    let mut records = payloads(&base);
    records.retain(|p| p != "repository \"\"\n");
    let pruned = reframed(&base, &records);
    assert_eq!(payloads(&pruned).len() + 1, payloads(&base).len(), "one record dropped");

    let rs = session_over(&shared, ReStoreConfig::default());
    rs.execute_query(&sum_query("/out/stale"), "/wf/stale").unwrap();
    assert!(rs.stats_as(None).repository_entries > 0);
    rs.recover(&pruned, &[]).unwrap();
    assert_eq!(rs.stats_as(None).repository_entries, 0, "default namespace fully replaced");
    assert_eq!(rs.stats_as(None).stored_files, 0);
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string()]);
    let names: Vec<String> = rs.stats_all().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["", "ana"], "the default namespace exists, once");
    // The source's default namespace was empty, so the recovered session
    // saves back as the unpruned base, byte for byte.
    assert_eq!(rs.save_state(), base);
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

// ---- a base is whole, or it is refused ----

/// Group-free filter of `/data/pv` on `n > k` into `out`.
fn filter_query(k: i64, out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         B = filter A by n > {k};
         store B into '{out}';"
    )
}

/// One byte of a saved base changed: a stored plan's filter constant,
/// `3` to `5`. Recovered, the entry would answer `n > 5` with the bytes
/// of `n > 3`; it is refused, and the session keeps what it held.
#[test]
fn a_base_with_one_flipped_byte_is_refused() {
    let shared = pv_users();
    let src = session_over(&shared, ReStoreConfig::default());
    src.execute_query(&filter_query(3, "/out/f"), "/wf/f").unwrap();
    let base = src.save_state();
    let flipped = base.replacen("(l i 3)", "(l i 5)", 1);
    assert_eq!(flipped.len(), base.len());
    assert_ne!(flipped, base, "the base holds the plan");

    let rs = session_over(&shared, ReStoreConfig::default());
    rs.recover(&base, &[]).unwrap();
    match rs.recover(&flipped, &[]) {
        Ok(_) => {
            Oracle::check(&rs, &[filter_query(5, "/out/f5")]).unwrap();
            panic!("a base with a flipped byte recovered");
        }
        Err(Error::Base { msg, .. }) => assert!(msg.contains("checksum mismatch"), "{msg}"),
        Err(other) => panic!("expected Error::Base, got {other:?}"),
    }
    assert_eq!(rs.save_state(), base, "the refused recovery changed the session");
}

/// A base cut just after its first `repository` line — what a crash
/// mid-copy leaves — is refused, not recovered as an empty repository.
#[test]
fn a_cut_base_is_refused() {
    let shared = pv_users();
    let src = session_over(&shared, ReStoreConfig::default());
    src.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    let base = src.save_state();
    let at = base.find("repository").unwrap();
    let cut = &base[..at + base[at..].find('\n').unwrap() + 1];

    let rs = session_over(&shared, ReStoreConfig::default());
    rs.recover(&base, &[]).unwrap();
    assert!(rs.stats_as(None).repository_entries > 0);
    match rs.recover(cut, &[]) {
        Ok(report) => panic!(
            "a cut base recovered {report:?} with {} entries",
            rs.stats_as(None).repository_entries
        ),
        Err(Error::Base { msg, .. }) => assert!(msg.contains("non-final"), "{msg}"),
        Err(other) => panic!("expected Error::Base, got {other:?}"),
    }
    assert_eq!(rs.save_state(), base, "the refused recovery changed the session");
}

/// A small base: two namespaces, a tenant override, and a record
/// without an entry (a final output holding the plan of a stored
/// candidate), anchored past zero.
fn small_base() -> (ReStore, String) {
    let shared = pv_users();
    let rs = session_over(&shared, ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());
    let override_ = ReStoreConfig { register_final_outputs: false, ..Default::default() };
    rs.set_config_as(Some("ana"), override_);
    rs.execute_query(
        "A = load '/data/pv' as (user, n:int);
         B = filter A by n > 0;
         G = group B by user;
         R = foreach G generate group, SUM(B.n);
         store R into '/out/f';",
        "/wf/f",
    )
    .unwrap();
    rs.execute_query(&filter_query(0, "/out/fb"), "/wf/fb").unwrap();
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let repo = rs.repository_as(None);
    assert!(repo.files().len() > repo.len(), "a record without an entry");
    assert!(!rs.repository_as(Some("ana")).is_empty());
    let base = rs.save_state();
    assert!(base.is_ascii());
    assert!(rs.journal_stats().seq > 0);
    (rs, base)
}

/// Every cut of a small base, and every single-byte change of it (one
/// substitute per offset: the byte with its low bit flipped), is either
/// refused with a typed error that leaves the session as it was, or
/// recovers a session that saves back to the same base. A cut is always
/// refused.
#[test]
fn every_cut_or_changed_byte_of_a_base_is_refused_or_changes_nothing() {
    let (src, base) = small_base();
    let rs = session_over(src.engine().dfs(), ReStoreConfig::default());
    rs.recover(&base, &[]).unwrap();
    assert_eq!(rs.save_state(), base);
    let typed = |r: Result<_, Error>, what: &str| match r {
        Ok(_) => false,
        Err(Error::Base { .. } | Error::Epoch { .. }) => true,
        Err(other) => panic!("{what}: expected a typed refusal, got {other:?}"),
    };
    for cut in 0..base.len() {
        let what = format!("cut at byte {cut}");
        assert!(typed(rs.recover(&base[..cut], &[]), &what), "{what} recovered");
        assert_eq!(rs.save_state(), base, "{what}");
    }
    let mut refused = 0;
    for at in 0..base.len() {
        let mut bytes = base.clone().into_bytes();
        bytes[at] ^= 1;
        let changed = String::from_utf8(bytes).unwrap();
        let what = format!("byte {at} changed");
        refused += usize::from(typed(rs.recover(&changed, &[]), &what));
        assert_eq!(rs.save_state(), base, "{what}");
    }
    assert!(refused > 0);
}

/// Every frame of a base carries its anchor: a frame whose seq says
/// otherwise is refused, naming the record, whichever frame it is.
#[test]
fn a_base_frame_whose_seq_is_not_the_anchor_is_refused() {
    let (src, base) = small_base();
    let anchor = anchor_of(&base);
    let rs = session_over(src.engine().dfs(), ReStoreConfig::default());
    rs.recover(&base, &[]).unwrap();
    let bounds = segment_boundaries(&base);
    assert_eq!(bounds.last(), Some(&base.len()));
    for (i, &start) in bounds[..bounds.len() - 1].iter().enumerate() {
        let old = format!("r {anchor} ");
        assert!(base[start..].starts_with(&old));
        let moved = format!("{}r {} {}", &base[..start], anchor + 1, &base[start + old.len()..]);
        expect_base_err_on(&rs, &base, &moved, i + 1, "is not the base's anchor");
    }
}

/// Recovery into `rs`, which holds `held`, is refused with an
/// [`Error::Base`] naming `record` and mentioning `needle`, and `rs`
/// still holds `held`.
fn expect_base_err_on(rs: &ReStore, held: &str, bad: &str, record: usize, needle: &str) {
    match rs.recover(bad, &[]) {
        Err(Error::Base { record: got, msg }) => {
            assert_eq!(got, record, "the error names record {record}: {msg}");
            assert!(msg.contains(needle), "record {got}: expected {needle:?} in: {msg}");
        }
        Err(other) => panic!("expected Error::Base, got {other:?}"),
        Ok(_) => panic!("a malformed base must not load"),
    }
    assert_eq!(rs.save_state(), held, "the refused recovery changed the session");
}

/// [`expect_base_err_on`] on a session recovered from a valid base.
fn expect_base_err(bad: &str, record: usize, needle: &str) {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    rs.recover(&valid_base(), &[]).unwrap();
    let held = rs.save_state();
    assert!(held.contains("tenant-config \"ana\""));
    expect_base_err_on(&rs, &held, bad, record, needle);
}

/// A small valid base to corrupt per test.
fn valid_base() -> String {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    rs.set_config_as(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    rs.save_state()
}

/// The payloads of a base's records, in order.
fn payloads(base: &str) -> Vec<String> {
    let bounds = segment_boundaries(base);
    bounds
        .windows(2)
        .map(|w| {
            let frame = &base[w[0]..w[1]];
            frame[frame.find('\n').unwrap() + 1..].to_string()
        })
        .collect()
}

/// The anchor a base closes with.
fn anchor_of(base: &str) -> u64 {
    let last = payloads(base).pop().unwrap();
    last.strip_prefix("base-end ").unwrap().trim_end().parse().unwrap()
}

/// `records` framed as a base anchored where `base` is, every frame with
/// its correct length and checksum: what a test refuses is then the
/// content, not the frame.
fn reframed(base: &str, records: &[String]) -> String {
    let anchor = anchor_of(base);
    let mut out = format!("{SEGMENT_HEADER}\n");
    for p in records {
        out += &format!("r {anchor} {} {:016x}\n{p}", p.len(), frame_hash(p.as_bytes()));
    }
    out
}

/// The frame checksum (`journal::frame_hash`): FNV-1a's shape with the
/// multiplier 2^44 + 0x1b3, not FNV's prime 2^40 + 0x1b3.
fn frame_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

/// `valid_base()` with the record whose payload starts with `tag` passed
/// through `edit`; returns the base and that record's 1-based ordinal.
fn edited(tag: &str, edit: impl Fn(&str) -> String) -> (String, usize) {
    let base = valid_base();
    let mut records = payloads(&base);
    let i = records.iter().position(|p| p.starts_with(tag)).expect("the base holds the record");
    records[i] = edit(&records[i]);
    (reframed(&base, &records), i + 1)
}

#[test]
fn malformed_version_header() {
    let body = &valid_base()[SEGMENT_HEADER.len()..];
    for header in ["restore-journal", "restore-journal vx", "restore-state", ""] {
        expect_base_err(&format!("{header}{body}"), 0, "missing segment header");
    }
    expect_base_err("", 0, "missing segment header");
    expect_base_err(&format!("{SEGMENT_HEADER} {body}"), 0, "missing segment header");
}

#[test]
fn malformed_tick_line() {
    let (bad, record) = edited("counters ", |_| "counters x 1\n".into());
    expect_base_err(&bad, record, "bad tick value");
    let (bad, record) = edited("counters ", |_| "counters 3\n".into());
    expect_base_err(&bad, record, "counters record needs two values");
}

#[test]
fn malformed_cand_line() {
    let (bad, record) = edited("counters ", |_| "counters 3 x\n".into());
    expect_base_err(&bad, record, "bad cand value");
    let (bad, record) = edited("base-end ", |_| "base-end x\n".into());
    expect_base_err(&bad, record, "bad base-end seq");
}

/// A base opens with the global configuration it replaces the
/// session's with.
#[test]
fn missing_config_section() {
    let base = valid_base();
    let records = payloads(&base);
    assert!(records[0].starts_with("global-config\n"));
    expect_base_err(&reframed(&base, &records[1..]), 1, "global-config");
}

#[test]
fn unknown_config_key_is_located() {
    let (bad, record) =
        edited("global-config", |p| p.replace("reuse_enabled true", "frobnicate 9"));
    assert_eq!(record, 1);
    expect_base_err(&bad, record, "unknown config key \"frobnicate\"");
}

#[test]
fn bad_config_value_is_located() {
    let (bad, record) =
        edited("tenant-config \"ana\"", |p| p.replace("wave_parallel true", "wave_parallel maybe"));
    assert!(record > 1);
    expect_base_err(&bad, record, "wave_parallel");
}

#[test]
fn malformed_space_header() {
    let (bad, record) = edited("repository \"ana\"", |p| p.replacen("\"ana\"", "ana", 1));
    expect_base_err(&bad, record, "bad space name \"ana\"");
}

#[test]
fn unknown_section_header() {
    let (bad, record) =
        edited("tenant-create \"ana\"", |p| p.replacen("tenant-create", "tenant", 1));
    expect_base_err(&bad, record, "unknown record type \"tenant\"");
}

/// The record kind epoch 7 journaled provenance in is not read: records
/// are `file …` blocks of the repository.
#[test]
fn a_provenance_section_is_refused() {
    let base = valid_base();
    let mut records = payloads(&base);
    let i = records.iter().position(|p| p.starts_with("repository \"ana\"")).unwrap();
    records.insert(i, "prov-batch \"ana\"\n".into());
    expect_base_err(&reframed(&base, &records), i + 1, "unknown record type \"prov-batch\"");
}

#[test]
fn missing_repository_section() {
    let (bad, record) = edited("repository \"ana\"", |p| p.replacen("repository", "repo", 1));
    expect_base_err(&bad, record, "unknown record type \"repo\"");
}

#[test]
fn corrupt_file_block_names_the_section() {
    let (bad, record) = edited("repository \"ana\"", |p| p.replacen(" text\n", " txt\n", 1));
    expect_base_err(&bad, record, "in repository");
    expect_base_err(&bad, record, "\"txt\"");
}

#[test]
fn corrupt_repository_body_names_the_section() {
    let (bad, record) = edited("repository \"ana\"", |p| p.replacen("entry ", "entryx ", 1));
    expect_base_err(&bad, record, "in repository");
}

// ---- other epochs, and bases from sharded repositories ----

/// A base or a journal segment whose first line names another epoch,
/// and a `restore-state` document (the base format through epoch 8), is
/// refused whole with one typed error: the line, the epoch it names and
/// the one this build reads. The readers read only this epoch: a v5
/// document's input versions counted writes per path, and a count can
/// equal a later commit tick; a v6 document's entries do not say which
/// version of their own file they stored, or in which format; a v7
/// document's provenance records say neither that nor what they read;
/// a v8 document is not framed, so a changed or cut one loaded.
#[test]
fn an_earlier_epoch_is_refused_naming_both_epochs() {
    let mut journaled = Journaled::start(&pv_users(), None, JournalConfig::default(), None);
    let rs = &journaled.session;
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    journaled.seal();
    let Journaled { session: rs, base, segments } = journaled;
    let held = rs.save_state();
    assert_eq!(SEGMENT_HEADER, format!("restore-journal v{EPOCH}"));
    assert!(held.starts_with(&format!("{SEGMENT_HEADER}\n")));

    // Refused on a session that holds `held`, and refused whole: the
    // session still holds `held` after the error.
    let refused = |base: &str, segments: &[String], line: &str, found: u64| {
        match rs.recover(base, segments) {
            Err(e @ Error::Epoch { .. }) => {
                assert_eq!(e, Error::Epoch { line: line.into(), found, reads: EPOCH });
                let text = e.to_string();
                assert!(text.contains(line) && text.contains(&format!("epoch {EPOCH}")), "{text}");
            }
            other => panic!("{line}: expected Error::Epoch, got {other:?}"),
        }
        assert_eq!(rs.save_state(), held, "{line}: the refused recovery changed the session");
    };
    // A `restore-state` document of each epoch that wrote one, in the
    // layout epoch 8 wrote.
    for found in [4, 5, 6, 7, 8] {
        let old = format!("restore-state v{found}");
        let doc = format!(
            "{old}\ntick 2\ncand 1\nseq 0\n--config--\nreuse_enabled true\n\
             --space \"\"--\n--repository--\n"
        );
        refused(&doc, &[], &old, found);
    }
    // `v1` is the segment header this journal wrote before the epoch.
    // In the final slot a torn header is forgiven, so check it there and
    // before it.
    for found in [1, 5, 6, 7, 8, EPOCH + 1] {
        let old = format!("restore-journal v{found}");
        refused(&held.replacen(SEGMENT_HEADER, &old, 1), &[], &old, found);
        let stale: Vec<String> =
            segments.iter().map(|s| s.replacen(SEGMENT_HEADER, &old, 1)).collect();
        refused(&base, &stale, &old, found);
        let mut mixed = stale.clone();
        mixed.extend(segments.iter().cloned());
        refused(&base, &mixed, &old, found);
    }

    // The same base and segments at this epoch recover.
    let fresh = session_over(rs.engine().dfs(), ReStoreConfig::default());
    fresh.recover(&base, &segments).unwrap();
    assert_eq!(fresh.save_state(), held);
}

/// A sharded repository listed its entries in shard-concatenation
/// order, not §3 order. Its `repo_shards` key is unknown to this epoch,
/// so a config record carrying it — the global one or a tenant's — is
/// refused naming that record, whatever its value, rather than loaded.
#[test]
fn sharded_document_is_refused_not_misordered() {
    let base = valid_base();
    assert!(!base.contains("repo_shards"), "the key is not written");
    for tag in ["global-config", "tenant-config \"ana\""] {
        for n in [1, 8] {
            let key = "eviction_window none\n";
            let (bad, record) =
                edited(tag, |p| p.replacen(key, &format!("{key}repo_shards {n}\n"), 1));
            expect_base_err(&bad, record, "unknown config key \"repo_shards\"");
        }
    }
}
