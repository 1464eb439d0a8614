//! Which stored outputs the §3 loop splices into which job is the
//! system's reuse behaviour; how many probes it takes to get there is
//! only its cost. This golden pins the former — `RewriteEvent
//! {job, reused_path, whole_job}` per query — for the two warm regimes
//! of `restore-e2e` (`pigmix_reuse`'s config over the 8 PigMix queries,
//! `serve_warm`'s 21-query mix), so a match-path optimisation can be
//! shown to change the probe count and nothing else.
//!
//! `tests/golden/rewrite_events.txt` was captured from the scan-era
//! driver (the commit before the tip-signature index became the match
//! path). On a deliberate behaviour change, the failing assertion prints
//! the new text to paste in.

use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, paraphrase, queries, DataScale};

fn session(config: ReStoreConfig) -> ReStore {
    let dfs =
        Dfs::new(DfsConfig { nodes: 6, block_size: 4 << 10, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), 0x5E570E).unwrap();
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 4 },
    );
    ReStore::new(engine, config)
}

/// Submit `mix` in order and render every rewrite as one line.
fn run_pass(rs: &ReStore, regime: &str, pass: &str, mix: Vec<(String, String)>) -> String {
    let mut out = String::new();
    for (label, text) in mix {
        let exec = rs.execute_query(&text, &format!("/wf/{pass}/{label}")).unwrap();
        out.push_str(&format!(
            "{regime} {label} jobs_run={} jobs_skipped={}\n",
            exec.job_results.len(),
            exec.jobs_skipped
        ));
        for ev in &exec.rewrites {
            out.push_str(&format!(
                "{regime} {label} job={} path={} whole_job={}\n",
                ev.job, ev.reused_path, ev.whole_job
            ));
        }
    }
    out
}

fn serve_warm_mix(out_prefix: &str, originals: bool) -> Vec<(String, String)> {
    let mut mix = queries::standard_workload(out_prefix);
    for case in paraphrase::paraphrase_suite(out_prefix) {
        if originals {
            mix.push((format!("{}-o", case.label), case.original));
        } else {
            for (i, text) in case.paraphrases.into_iter().enumerate() {
                mix.push((format!("{}-p{}", case.label, i + 1), text));
            }
        }
    }
    mix
}

/// The driver skips the analyzer for a job no alias touched, on the
/// strength of `compile_canonical` emitting job plans that are already
/// fixpoints. Pin that for every query either mix submits.
#[test]
fn compiled_job_plans_are_canonical_fixpoints() {
    let mut mix = serve_warm_mix("/out/x", true);
    mix.extend(serve_warm_mix("/out/x", false));
    for (label, text) in mix {
        let (wf, _) = restore_suite::dataflow::compile_canonical(&text, "/wf/x").unwrap();
        for (idx, job) in wf.jobs.iter().enumerate() {
            let mut again = job.plan.clone();
            restore_suite::dataflow::analyzer::canonicalize(&mut again);
            assert_eq!(again, job.plan, "{label} job {idx} is not a canonical fixpoint");
        }
    }
}

/// All 13 paraphrases are served without running a job. Three of them —
/// the `shared-subplan` case, whose canonical form reads one branch
/// twice through a `Split` tee — used to miss the tip-signature index
/// (which hashed the tee as an operator) while the scan, which walks
/// through tees, found them.
#[test]
fn every_paraphrase_is_answered_from_the_repository() {
    let rs = session(ReStoreConfig::default());
    for case in paraphrase::paraphrase_suite("/out/pp") {
        let label = case.label;
        rs.execute_query(&case.original, &format!("/wf/pp/{label}/o")).unwrap();
        for (i, text) in case.paraphrases.iter().enumerate() {
            let exec = rs.execute_query(text, &format!("/wf/pp/{label}/p{i}")).unwrap();
            assert!(
                exec.job_results.is_empty() && exec.jobs_skipped > 0,
                "{label} p{i} ran {} job(s)",
                exec.job_results.len()
            );
        }
    }
}

#[test]
fn warm_rewrites_match_the_scan_era_golden() {
    // `pigmix_reuse`: final outputs unregistered, so every rerun keeps
    // its final job and reuses stored prefixes.
    let rs = session(ReStoreConfig { register_final_outputs: false, ..Default::default() });
    run_pass(&rs, "populate", "warm", queries::standard_workload("/out/warm"));
    let mut got = run_pass(&rs, "pigmix_reuse", "p1", queries::standard_workload("/out/p1"));

    // `serve_warm`: everything registered; the 8 queries verbatim plus
    // the 13 paraphrases, all answered without running a job.
    let rs = session(ReStoreConfig::default());
    run_pass(&rs, "populate", "warm", serve_warm_mix("/out/warm", true));
    got += &run_pass(&rs, "serve_warm", "p1", serve_warm_mix("/out/p1", false));

    let want = include_str!("golden/rewrite_events.txt");
    assert!(got == want, "rewrite events changed; new text:\n{got}");
}
