//! Durable sessions: the `restore-state` format (v5, and the v4 before
//! it), typed parse errors, the refusal of a document saved from a
//! sharded repository, and per-tenant policy overrides.

use restore_common::Error;
use restore_core::{Heuristic, ReStore, ReStoreConfig, SelectionPolicy};
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

// ---- round trip and restart parity ----

#[test]
fn v2_save_load_save_is_byte_identical() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.set_config_as(
        Some("tuned"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query(&sum_query("/out/d"), "/wf/d").unwrap();
    rs.execute_query_as(Some("tuned"), &join_query("/out/t"), "/wf/t").unwrap();
    rs.execute_query_as(Some("plain"), &sum_query("/out/p"), "/wf/p").unwrap();

    let s1 = rs.save_state();
    let resumed = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    resumed.recover(&s1, &[]).unwrap();
    let s2 = resumed.save_state();
    assert_eq!(s1, s2, "save -> load -> save must be byte-identical");

    // And a second generation, for good measure.
    let third = ReStore::new(engine_over(shared), ReStoreConfig::default());
    third.recover(&s2, &[]).unwrap();
    assert_eq!(third.save_state(), s2);
}

#[test]
fn v2_restores_tenant_namespaces_configs_and_counters() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
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
    let want_default = rs.stats();
    drop(rs);

    let resumed = ReStore::new(engine_over(shared), ReStoreConfig::default());
    resumed.recover(&state, &[]).unwrap();
    assert_eq!(resumed.stats_as(Some("tuned")), want_tuned);
    assert_eq!(resumed.stats_as(Some("other")), want_other);
    assert_eq!(resumed.stats(), want_default);
    assert_eq!(resumed.tenant_ids(), vec!["other".to_string(), "tuned".to_string()]);
    assert_eq!(resumed.config_as(Some("tuned")), tuned, "policy override survives the restart");
    assert_eq!(
        resumed.config_as(Some("other")),
        resumed.config(),
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
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.execute_query_as(Some("keeper"), &sum_query("/out/k"), "/wf/k").unwrap();
    let state = rs.save_state();

    let other = ReStore::new(engine_over(shared), ReStoreConfig::default());
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
    let doc = valid_doc();
    let start = doc.find("--space \"\"--").unwrap();
    let end = doc.find("--space \"ana\"--").unwrap();
    let pruned = format!("{}{}", &doc[..start], &doc[end..]);

    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.execute_query(&sum_query("/out/stale"), "/wf/stale").unwrap();
    assert!(rs.stats().repository_entries > 0);
    rs.recover(&pruned, &[]).unwrap();
    assert_eq!(rs.stats().repository_entries, 0, "default namespace fully replaced");
    assert_eq!(rs.stats().provenance_entries, 0);
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string()]);
}

// ---- per-tenant policy overrides govern execution ----

#[test]
fn tenant_config_override_governs_execution() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
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
    assert_eq!(rs.config_as(Some("frugal")), rs.config());
    let f2 = rs.execute_query_as(Some("frugal"), &sum_query("/out/f2"), "/wf/f2").unwrap();
    assert!(f2.candidates_stored > 0 || rs.stats_as(Some("frugal")).repository_entries > 0);
}

#[test]
fn tenant_eviction_policy_sweeps_only_its_own_space() {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
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
    rs.with_repository_as(Some("spartan"), |repo| {
        assert!(
            repo.entries().iter().all(|e| !e.output_path.contains("/out/s1")),
            "spartan's one-tick window evicted its stale entries"
        );
    });
    assert_eq!(
        rs.stats_as(Some("packrat")).repository_entries,
        packrat_before,
        "spartan's aggressive policy never touches packrat's space"
    );
}

// ---- typed parse errors ----

fn expect_state_err(doc: &str, want_line: usize, needle: &str) {
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
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
    let rs = ReStore::new(engine_over(dfs()), ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    rs.save_state()
}

#[test]
fn malformed_version_header() {
    expect_state_err("restore-state v9\ntick 0\ncand 0\n", 1, "restore-state");
    expect_state_err("", 1, "empty document");
    // Only the current and the previous version are read, and the error
    // names both.
    for old in ["restore-state v1\n", "restore-state v2\n", "restore-state v3\n"] {
        expect_state_err(old, 1, "\"restore-state v5\" or \"restore-state v4\"");
    }
}

#[test]
fn malformed_tick_line() {
    expect_state_err("restore-state v5\ntick x\ncand 0\n", 2, "tick");
    expect_state_err("restore-state v5\n", 2, "tick");
}

#[test]
fn malformed_cand_line() {
    expect_state_err("restore-state v5\ntick 3\ncand\n", 3, "cand");
    expect_state_err("restore-state v5\ntick 3\ncand 1\nseq\n", 4, "seq");
}

#[test]
fn missing_config_section() {
    expect_state_err("restore-state v5\ntick 3\ncand 1\nseq 0\n--provenance--\n", 5, "--config--");
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

#[test]
fn missing_provenance_section() {
    let doc = valid_doc().replacen("--provenance--", "--prov--", 1);
    let line = 1 + doc.lines().position(|l| l == "--prov--").unwrap();
    expect_state_err(&doc, line, "--provenance--");
}

#[test]
fn missing_repository_section() {
    let doc = valid_doc().replacen("--repository--", "--repo--", 1);
    let line = 1 + doc.lines().position(|l| l == "--repo--").unwrap();
    expect_state_err(&doc, line, "--repository--");
}

#[test]
fn corrupt_provenance_body_names_the_section() {
    let doc = valid_doc().replacen("path \"", "wat \"", 1);
    match ReStore::new(engine_over(dfs()), ReStoreConfig::default()).recover(&doc, &[]) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--provenance--"), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

#[test]
fn corrupt_repository_body_names_the_section() {
    let doc = valid_doc().replacen("entry ", "entryx ", 1);
    match ReStore::new(engine_over(dfs()), ReStoreConfig::default()).recover(&doc, &[]) {
        Err(Error::State { msg, .. }) => {
            assert!(msg.contains("--repository--"), "{msg}");
        }
        other => panic!("expected Error::State, got {other:?}"),
    }
}

// ---- the previous version, and documents from sharded repositories ----

/// A v4 document is a v5 document one header apart: it loads, and
/// re-saves as v5.
#[test]
fn v4_document_loads_and_resaves_as_v5() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let v5 = rs.save_state();
    let v4 = v5.replacen("restore-state v5", "restore-state v4", 1);
    let resumed = ReStore::new(engine_over(shared), ReStoreConfig::default());
    resumed.recover(&v4, &[]).unwrap();
    assert_eq!(resumed.save_state(), v5);
}

/// Insert a `repo_shards <n>` line after the `nth` `check_input_versions`
/// line — where the releases that wrote the key put it (0 = the global
/// config, 1 = the first tenant override).
fn with_repo_shards(doc: &str, nth: usize, n: usize) -> String {
    let key = "check_input_versions false\n";
    let at = doc.match_indices(key).nth(nth).expect("config section").0 + key.len();
    format!("{}repo_shards {n}\n{}", &doc[..at], &doc[at..])
}

#[test]
fn sharded_document_is_refused_not_misordered() {
    let shared = dfs();
    let rs = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    rs.set_config_as(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    rs.execute_query(&join_query("/out/d"), "/wf/d").unwrap();
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    let doc = rs.save_state();
    assert!(!doc.contains("repo_shards"), "the key is no longer written");

    // `repo_shards 1` (what every unsharded release wrote), globally
    // and in the tenant override: the same loaded state as the key
    // absent, and the same bytes saved back.
    let absent = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    absent.recover(&doc, &[]).unwrap();
    let one = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
    one.recover(&with_repo_shards(&with_repo_shards(&doc, 1, 1), 0, 1), &[]).unwrap();
    assert_eq!(one.stats_all(), absent.stats_all());
    assert_eq!(one.config(), absent.config());
    assert_eq!(one.config_as(Some("ana")), absent.config_as(Some("ana")));
    assert_eq!(one.save_state(), doc);
    assert_eq!(absent.save_state(), doc);

    // `repo_shards 8`: the entries are in shard-concatenation order.
    for nth in [0, 1] {
        let fresh = ReStore::new(engine_over(shared.clone()), ReStoreConfig::default());
        match fresh.recover(&with_repo_shards(&doc, nth, 8), &[]) {
            Err(Error::Config(msg)) => {
                assert!(msg.contains("shard-concatenation order"), "{msg}")
            }
            other => panic!("expected Error::Config, got {other:?}"),
        }
    }
    // A value that is not a number is a located parse error.
    let bad = doc.replacen("check_input_versions false\n", "repo_shards many\n", 1);
    let line = 1 + bad.lines().position(|l| l == "repo_shards many").unwrap();
    expect_state_err(&bad, line, "repo_shards");
}
