//! Per-tenant namespace isolation in the driver: matching, candidate
//! materialization, statistics, and eviction sweeps are confined to the
//! submitting tenant's space.

use restore_core::{Heuristic, JournalConfig, ReStore, ReStoreConfig, SelectionPolicy};
use restore_testkit::{check_repository, pv_users, session_over, sum_query};

fn session(config: ReStoreConfig) -> ReStore {
    session_over(&pv_users(), config)
}

/// `Some("")` and `None` are one namespace, the `""` entry of the
/// session's namespace map, at every driver entry point: what one
/// stores the other reuses, reads and configures, and the
/// journal never records `""` as a tenant being created.
#[test]
fn an_empty_tenant_name_is_the_default_namespace_at_every_entry_point() {
    let rs = session(ReStoreConfig::default());
    rs.enable_journal(JournalConfig::default());
    let base = rs.save_state();

    // Execute: either name warms the other, and candidates sit under the
    // default prefix, not under an empty tenant's `/restore//`.
    rs.execute_query_as(Some(""), &sum_query("/out/e1"), "/wf/e1").unwrap();
    let warm = rs.execute_query_as(None, &sum_query("/out/e2"), "/wf/e2").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "None reuses what Some(\"\") stored");
    let again = rs.execute_query_as(Some(""), &sum_query("/out/e3"), "/wf/e3").unwrap();
    assert_eq!(again.jobs_skipped, 1, "and the other way round");
    let paths: Vec<String> =
        rs.repository_as(Some("")).entries().iter().map(|e| e.output_path.clone()).collect();
    assert!(paths.iter().any(|p| p.starts_with("/restore/sub-")), "{paths:?}");

    // Reads.
    assert_eq!(rs.stats_as(Some("")), rs.stats_as(None));
    assert_eq!(rs.write_counters_as(Some("")), rs.write_counters_as(None));
    assert!(!rs.trace_for(None, warm.tick).is_empty());
    assert_eq!(rs.trace_for(Some(""), warm.tick), rs.trace_for(None, warm.tick));
    assert_eq!(rs.explain_last_as(Some("")), rs.explain_last_as(None));
    let explained = rs.explain_query_as(Some(""), &sum_query("/out/x"), "/wf/x").unwrap();
    assert!(explained.contains("would reuse entry"), "{explained}");
    assert_eq!(explained, rs.explain_query_as(None, &sum_query("/out/x"), "/wf/x").unwrap());

    // Configuration: `Some("")` sets and reads the global config.
    let tuned = ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() };
    rs.set_config_as(Some(""), tuned.clone());
    assert_eq!(rs.config_as(None), tuned);
    assert_eq!(rs.config_as(None), tuned);
    assert_eq!(rs.config_as(Some("")), tuned);
    rs.clear_config_as("");
    assert_eq!(rs.config_as(Some("")), tuned, "the default namespace has no override to drop");

    // Listings: `""` is never a tenant, and is exactly one stats row.
    rs.execute_query_as(Some("ana"), &sum_query("/out/a"), "/wf/a").unwrap();
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string()]);
    let names: Vec<String> = rs.stats_all().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, ["", "ana"]);

    // Durable: one default section, no `tenant-create ""` record, and
    // the journal replays to the same session.
    let segments = rs.save_state_delta().unwrap();
    assert!(segments.iter().all(|s| !s.contains("tenant-create \"\"")));
    let state = rs.save_state();
    assert_eq!(state.matches("--space \"\"--").count(), 1);
    let replayed = session_over(rs.engine().dfs(), ReStoreConfig::default());
    replayed.recover(&base, &segments).unwrap();
    assert_eq!(replayed.save_state(), state);
}

#[test]
fn tenants_never_reuse_each_others_entries() {
    let rs = session(ReStoreConfig::default());

    // Tenant "ana" runs the query cold.
    let a1 = rs.execute_query_as(Some("ana"), &sum_query("/out/a1"), "/wf/a1").unwrap();
    assert_eq!(a1.jobs_skipped, 0);

    // Tenant "bo" submits the identical query: no cross-tenant reuse, so
    // it also runs cold.
    let b1 = rs.execute_query_as(Some("bo"), &sum_query("/out/b1"), "/wf/b1").unwrap();
    assert_eq!(b1.jobs_skipped, 0, "tenant bo must not see ana's entries");
    assert_eq!(b1.rewrites.len(), 0);

    // Within a tenant, reuse works as usual.
    let a2 = rs.execute_query_as(Some("ana"), &sum_query("/out/a2"), "/wf/a2").unwrap();
    assert_eq!(a2.jobs_skipped, 1, "ana's rerun is answered from ana's repository");

    // The default namespace is untouched by tenant traffic.
    assert_eq!(rs.stats_as(None).repository_entries, 0);
    assert!(rs.stats_as(Some("ana")).repository_entries > 0);
    assert!(rs.stats_as(Some("bo")).repository_entries > 0);
    assert_eq!(rs.tenant_ids(), vec!["ana".to_string(), "bo".to_string()]);
}

#[test]
fn tenant_candidate_outputs_live_under_tenant_prefix() {
    let rs = session(ReStoreConfig::default());
    rs.execute_query_as(Some("ana"), &sum_query("/out/ap"), "/wf/ap").unwrap();
    for e in rs.repository_as(Some("ana")).entries() {
        if e.output_path.starts_with("/restore/") {
            assert!(
                e.output_path.starts_with("/restore/ana/"),
                "candidate {} must be keyed under the tenant prefix",
                e.output_path
            );
        }
    }
}

#[test]
fn overwriting_a_registered_path_invalidates_stale_entries() {
    let rs = session(ReStoreConfig::default());

    // ana's query registers its final output at /out/shared.
    rs.execute_query_as(Some("ana"), &sum_query("/out/shared"), "/wf/a").unwrap();
    assert!(rs.serves_path("/out/shared"));
    let ana_bytes = rs.engine().dfs().read_all("/out/shared").unwrap();

    // bo runs a *different* query storing to the same path, overwriting
    // ana's bytes on the DFS.
    let other = "A = load '/data/pv' as (user, n:int);
                 B = filter A by n > 4;
                 G = group B by user;
                 R = foreach G generate group, COUNT(B);
                 store R into '/out/shared';";
    rs.execute_query_as(Some("bo"), other, "/wf/b").unwrap();
    let bo_bytes = rs.engine().dfs().read_all("/out/shared").unwrap();
    assert_ne!(ana_bytes, bo_bytes, "bo really overwrote the file");

    // ana's stale entry must be gone: rerunning her query re-executes
    // instead of serving bo's bytes from the repository.
    assert!(
        !rs.repository_as(Some("ana")).entries().iter().any(|e| e.output_path == "/out/shared"),
        "stale entry pointing at overwritten bytes must be evicted"
    );
    let rerun = rs.execute_query_as(Some("ana"), &sum_query("/out/a2"), "/wf/a2").unwrap();
    let rerun_bytes = rs.engine().dfs().read_all(&rerun.final_output).unwrap();
    assert_eq!(rerun_bytes, ana_bytes, "ana gets her own answer, not bo's");
}

#[test]
fn tenant_sweep_never_evicts_other_tenants() {
    let config = ReStoreConfig {
        selection: SelectionPolicy { eviction_window: Some(2), ..Default::default() },
        ..Default::default()
    };
    let rs = session(config);

    // Tick 1: bo stores entries, then goes idle.
    rs.execute_query_as(Some("bo"), &sum_query("/out/b"), "/wf/b").unwrap();
    let bo_entries = rs.stats_as(Some("bo")).repository_entries;
    assert!(bo_entries > 0);

    // Ticks 2..=8: ana hammers the system; each of her queries runs an
    // eviction sweep far past bo's last activity — in ana's space only.
    for i in 2..=8u32 {
        rs.execute_query_as(Some("ana"), &sum_query(&format!("/out/a{i}")), &format!("/wf/a{i}"))
            .unwrap();
    }

    // bo's entries (created at tick 1, idle for 7 ticks, well past the
    // window) survive untouched, files included.
    assert_eq!(rs.stats_as(Some("bo")).repository_entries, bo_entries);
    check_repository(&rs).unwrap();

    // bo's own next query does sweep bo's stale entries — isolation, not
    // immortality.
    rs.execute_query_as(Some("bo"), &sum_query("/out/b2"), "/wf/b2").unwrap();
    let after = rs.stats_as(Some("bo")).repository_entries;
    assert!(after > 0, "fresh entries from the new query are present");
}
