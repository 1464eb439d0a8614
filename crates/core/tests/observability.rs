//! Driver-level telemetry guarantees:
//!
//! 1. the §3 match hot path stays **zero-publish** with telemetry
//!    enabled — a warm whole-workflow reuse run performs no RCU
//!    publish and enters no writer section;
//! 2. the probed matcher (the tip-signature index) returns results
//!    identical to the sequential-scan oracle (parity proptest);
//! 3. the reuse-decision trace explains hits and misses, keyed by the
//!    execution's tick;
//! 4. `stats_all` rows come from one consistent cut (one shared clock).

use proptest::prelude::*;
use restore_common::{codec, tuple, Tuple};
use restore_core::repository::InsertOutcome;
use restore_core::{
    Heuristic, MatchProbe, ReStore, ReStoreConfig, RepoEntry, RepoStats, Repository, ReuseDecision,
};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_dfs::DfsConfig;
use restore_mapreduce::{Engine, EngineConfig};
use restore_testkit::{engine_over, small_dfs};
use std::collections::HashSet;

fn engine() -> Engine {
    let pv: Vec<Tuple> = vec![
        tuple!["ann", 1, 10.0, "infoA", "linksA"],
        tuple!["bob", 2, 20.0, "infoB", "linksB"],
        tuple!["ann", 3, 5.0, "infoC", "linksC"],
    ];
    let users: Vec<Tuple> = vec![tuple!["ann", "p1", "a1", "c1"], tuple!["bob", "p2", "a2", "c2"]];
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None }),
        &[
            ("/data/page_views", &codec::encode_all(&pv)),
            ("/data/users", &codec::encode_all(&users)),
        ],
    );
    engine_over(dfs, Some(EngineConfig { worker_threads: 4, default_reduce_tasks: 3 }))
}

/// The paper's Q1 (Figure 2): a single join job, so a cold run is
/// exactly one match-loop miss and a warm rerun exactly one hit.
fn q1(out: &str) -> String {
    format!(
        "A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
         B = foreach A generate user, est_revenue;
         alpha = load '/data/users' as (name, phone, address, city);
         beta = foreach alpha generate name;
         C = join beta by name, B by user;
         store C into '{out}';"
    )
}

fn restore() -> ReStore {
    ReStore::new(engine(), ReStoreConfig { heuristic: Heuristic::None, ..Default::default() })
}

#[test]
fn warm_match_path_publishes_nothing_with_telemetry_enabled() {
    let restore = restore();
    let cold = restore.execute_query(&q1("/out/q1"), "/wf/1").expect("cold run");
    assert_eq!(cold.jobs_skipped, 0);

    // Telemetry is on (it always is — there is no off switch to hide
    // behind), and the warm rerun is answered entirely from the
    // repository: the match path must not publish a snapshot or enter
    // a writer section anywhere.
    let before = restore.write_counters_as(None);
    let warm = restore.execute_query(&q1("/out/q1b"), "/wf/2").expect("warm run");
    let after = restore.write_counters_as(None);
    assert_eq!(warm.jobs_skipped, 1, "rerun is answered from the repository");
    assert_eq!(after, before, "warm match path published or entered a writer section");

    // The rerun was still fully observed: per-tenant hit/miss counters
    // moved and the stage histograms saw the pipeline.
    let text = restore.registry().render();
    assert!(text.contains("restore_match_hits_total{tenant=\"\"} 1"), "one warm hit:\n{text}");
    assert!(text.contains("restore_match_misses_total{tenant=\"\"} 1"), "one cold miss:\n{text}");
    assert!(text.contains("restore_stage_seconds_bucket{stage=\"match\""), "{text}");
    assert!(text.contains("restore_match_stage_seconds_bucket{stage=\"index_probe\""), "{text}");
    assert!(text.contains("restore_match_seconds_count{tenant=\"\"} 2"), "{text}");
}

/// Observation count of one `restore_match_stage_seconds` /
/// `restore_stage_seconds` series.
fn stage_count(restore: &ReStore, family: &str, stage: &str) -> u64 {
    let key = format!("stage=\"{stage}\"");
    restore
        .registry()
        .histogram_stats(family)
        .into_iter()
        .find(|(labels, _, _)| labels.contains(&key))
        .map_or(0, |(_, count, _)| count)
}

/// A two-job workflow (join, then group) over the same inputs as `q1`.
fn two_job(out: &str) -> String {
    format!(
        "A = load '/data/page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
         B = foreach A generate user, est_revenue;
         alpha = load '/data/users' as (name, phone, address, city);
         beta = foreach alpha generate name;
         C = join beta by name, B by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.est_revenue);
         store E into '{out}';"
    )
}

/// The §3 loop costs one probe per rewrite that changes the plan: a job
/// answered whole from the repository is one probe iteration and one
/// rewrite — no rescans of lineage the plan already loads — and a
/// two-job workflow is exactly that, twice.
#[test]
fn a_warm_whole_job_hit_is_one_probe_and_one_rewrite() {
    for (query, jobs) in [(q1 as fn(&str) -> String, 1u64), (two_job, 2)] {
        let restore = restore();
        let cold = restore.execute_query(&query("/out/a"), "/wf/a").expect("cold run");
        assert_eq!(cold.jobs_skipped, 0);
        let probes = stage_count(&restore, "restore_match_stage_seconds", "index_probe");
        let rewrites = stage_count(&restore, "restore_stage_seconds", "rewrite");

        let warm = restore.execute_query(&query("/out/b"), "/wf/b").expect("warm run");
        assert_eq!(warm.jobs_skipped as u64, jobs, "every job answered from the repository");
        assert_eq!(warm.rewrites.len() as u64, jobs);
        assert!(warm.rewrites.iter().all(|r| r.whole_job));
        assert_eq!(
            stage_count(&restore, "restore_match_stage_seconds", "index_probe") - probes,
            jobs,
            "one probe iteration per warm job"
        );
        assert_eq!(
            stage_count(&restore, "restore_stage_seconds", "rewrite") - rewrites,
            jobs,
            "one rewrite per warm job"
        );
        // The trace agrees: per job, the match and nothing else.
        let trace = restore.trace_for(None, warm.tick);
        assert_eq!(trace.len() as u64, jobs, "{trace:?}");
        assert!(trace.iter().all(|e| matches!(e.decision, ReuseDecision::Matched { .. })));
    }
}

#[test]
fn reuse_trace_explains_hits_and_misses() {
    let restore = restore();
    let cold = restore.execute_query(&q1("/out/q1"), "/wf/1").expect("cold run");
    let warm = restore.execute_query(&q1("/out/q1b"), "/wf/2").expect("warm run");

    // The cold run's match loop found nothing.
    let cold_trace = restore.trace_for(None, cold.tick);
    assert!(
        cold_trace.iter().any(|e| matches!(e.decision, ReuseDecision::NoCandidates { .. })),
        "cold run should trace a no-candidates decision: {cold_trace:?}"
    );

    // The warm run's trace names the matched entry and the reused path.
    let warm_trace = restore.trace_for(None, warm.tick);
    assert!(
        warm_trace.iter().any(|e| matches!(e.decision, ReuseDecision::Matched { .. })),
        "warm run should trace a match: {warm_trace:?}"
    );

    // explain_last_as renders the most recent traced workflow (the warm
    // run) with the matched entry in it.
    let explained = restore.explain_last_as(None).expect("trace exists");
    assert!(explained.contains(&format!("workflow tick {}", warm.tick)), "{explained}");
    assert!(explained.contains("matched entry #"), "{explained}");

    // Dry-run explains never pollute the trace.
    let ticks_before: Vec<u64> =
        restore.trace_for(None, warm.tick).iter().map(|e| e.tick).collect();
    restore.explain_query_as(None, &q1("/out/q1c"), "/wf/3").expect("explain");
    assert_eq!(
        restore.trace_for(None, warm.tick).iter().map(|e| e.tick).collect::<Vec<_>>(),
        ticks_before,
        "explain_query must not add trace events"
    );
    assert_eq!(
        restore.explain_last_as(None).expect("still the warm run"),
        explained,
        "explain_query must not move the trace cursor"
    );
}

#[test]
fn stats_all_rows_share_one_clock_and_cover_all_namespaces() {
    let restore = restore();
    restore.execute_query(&q1("/out/q1"), "/wf/1").expect("default ns");
    restore.execute_query_as(Some("ana"), &q1("/out/q1t"), "/wf/2").expect("tenant ns");

    let all = restore.stats_all();
    let names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&""), "default namespace row present: {names:?}");
    assert!(names.contains(&"ana"), "tenant row present: {names:?}");
    let clocks: HashSet<u64> = all.iter().map(|(_, s)| s.queries_executed).collect();
    assert_eq!(clocks.len(), 1, "every row reports the same clock: {all:?}");
    assert_eq!(clocks.into_iter().next(), Some(2));
}

/// Small pipeline plans over a handful of load paths so random
/// repositories produce genuine matches and signature collisions (same
/// generator family as `prop_concurrent_repo`).
fn plan_for(seed: u8, depth: u8) -> PhysicalPlan {
    let mut p = PhysicalPlan::new();
    let path = ["/data/a", "/data/b", "/data/c"][(seed % 3) as usize];
    let mut cur = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
    for d in 0..(depth % 4) {
        cur = match (seed.wrapping_add(d)) % 3 {
            0 => p.add(PhysicalOp::Project { cols: vec![0, (d % 3) as usize] }, vec![cur]),
            1 => p.add(
                PhysicalOp::Filter { pred: Expr::col_eq((d % 2) as usize, seed as i64) },
                vec![cur],
            ),
            _ => p.add(PhysicalOp::Group { keys: vec![(d % 2) as usize] }, vec![cur]),
        };
    }
    p.add(PhysicalOp::Store { path: format!("/store/{seed}-{depth}") }, vec![cur]);
    p
}

/// A longer query that embeds `plan_for(seed, depth)` as a prefix.
fn query_for(seed: u8, depth: u8) -> PhysicalPlan {
    let mut p = plan_for(seed, depth);
    let tip = p.stores()[0];
    let before = p.inputs(tip)[0];
    let g = p.add(PhysicalOp::Distinct, vec![before]);
    p.add(PhysicalOp::Store { path: "/q".into() }, vec![g]);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The probed matcher (the tip-signature index, the path the driver
    /// runs) returns what the sequential-scan oracle returns — identical
    /// (entry id, match tip) on the same snapshot, with entries vetoed
    /// — and the probe's record is internally consistent (a winner
    /// implies a matched candidate).
    #[test]
    fn probed_match_agrees_with_the_scan_oracle(
        inserts in prop::collection::vec((any::<u8>(), any::<u8>(), 1u64..500), 0..24),
        queries in prop::collection::vec((any::<u8>(), any::<u8>()), 1..8),
        exclude_picks in prop::collection::vec(0usize..24, 0..4),
    ) {
        let repo = Repository::new();
        let mut ids = Vec::new();
        for (seed, depth, bytes) in inserts {
            let stats = RepoStats { input_bytes: 4096, output_bytes: bytes, ..Default::default() };
            if let InsertOutcome::Inserted(id) =
                repo.insert(plan_for(seed, depth), format!("/r/{seed}-{depth}"), stats)
            {
                ids.push(id);
            }
        }
        let exclude: HashSet<u64> =
            exclude_picks.iter().filter_map(|&p| ids.get(p % ids.len().max(1)).copied()).collect();
        let view = repo.snapshot();
        for (seed, depth) in queries {
            let q = query_for(seed, depth);
            let skip = |e: &RepoEntry, _| exclude.contains(&e.id);
            let scanned = view.find_first_match_scan(&q, skip);
            let mut probe = MatchProbe::default();
            let probed = view.find_first_match_probed(&q, skip, &mut probe);
            prop_assert_eq!(
                scanned.as_ref().map(|(id, m)| (*id, m.tip)),
                probed.as_ref().map(|(id, m)| (*id, m.tip)),
                "probed diverged from the scan"
            );
            match &probed {
                Some((id, _)) => {
                    prop_assert!(
                        probe.candidates.iter().any(|c| c.entry_id == *id && c.matched),
                        "winner {} missing from probe candidates: {:?}", id, probe.candidates
                    );
                }
                None => prop_assert!(
                    probe.candidates.iter().all(|c| !c.matched),
                    "miss with a matched candidate recorded: {:?}", probe.candidates
                ),
            }
        }
    }
}
