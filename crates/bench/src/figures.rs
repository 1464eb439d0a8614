//! One runner per paper experiment. Each returns typed rows; the
//! `experiments` binary renders them and EXPERIMENTS.md records the
//! paper-vs-measured comparison.

use crate::env::{baseline_driver, paper_driver, PigMixEnv, SyntheticEnv};
use restore_core::{Heuristic, QueryExecution, ReStore};
use restore_pigmix::{queries, synthetic};

/// Seconds → minutes (the paper's plots are in minutes).
pub fn minutes(s: f64) -> f64 {
    s / 60.0
}

fn run(rs: &mut ReStore, query: &str, wf: &str) -> QueryExecution {
    rs.execute_query(query, wf).expect("experiment query failed")
}

/// Modeled bytes loaded from *base* tables by a query (Table 1's I/P).
fn base_input_bytes(env: &PigMixEnv, query: &str) -> u64 {
    let wf = restore_dataflow::compile(query, "/probe").expect("compile");
    let mut paths: Vec<String> = Vec::new();
    for job in &wf.jobs {
        for l in job.plan.loads() {
            let path = job.plan.path(l);
            if path.starts_with("/data/") && !paths.iter().any(|p| p == path) {
                paths.push(path.to_string());
            }
        }
    }
    let actual: u64 = paths.iter().map(|p| env.engine.dfs().file_len(p).unwrap_or(0)).sum();
    (actual as f64 * env.byte_scale) as u64
}

// ---------------------------------------------------------------------
// Sub-job sweep: Figures 10–14 and Table 1 share these measurements.
// ---------------------------------------------------------------------

/// Per-query, per-heuristic measurements.
#[derive(Debug, Clone)]
pub struct SubJobRow {
    pub label: String,
    /// Modeled time without ReStore, seconds.
    pub plain_s: f64,
    /// Modeled time with Stores injected by each heuristic (HC, HA, NH).
    pub gen_s: [f64; 3],
    /// Modeled time when reusing the sub-jobs each heuristic stored.
    pub reuse_s: [f64; 3],
    /// Modeled bytes written by each heuristic's injected Stores.
    pub stored_bytes: [u64; 3],
    /// Modeled bytes loaded from base tables (Table 1 I/P).
    pub input_bytes: u64,
    /// Modeled bytes of the final query output (Table 1 O/P).
    pub output_bytes: u64,
}

pub const HEURISTICS: [Heuristic; 3] =
    [Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic];

/// Run the full §7.2/§7.3 sweep over the standard workload at one scale.
pub fn subjob_sweep(env: &PigMixEnv) -> Vec<SubJobRow> {
    let mut rows = Vec::new();
    for (label, query) in queries::standard_workload("/out/std") {
        let input_bytes = base_input_bytes(env, &query);

        // Plain baseline.
        let mut base = baseline_driver(&env.engine);
        let plain = run(&mut base, &query, &format!("/wf/{label}-plain"));
        let plain_s = plain.total_s;
        let output_bytes = plain
            .job_results
            .iter()
            .find(|r| r.output == plain.final_output)
            .map(|r| (r.counters.output_bytes as f64 * env.byte_scale) as u64)
            .unwrap_or(0);

        let mut gen_s = [0.0; 3];
        let mut reuse_s = [0.0; 3];
        let mut stored_bytes = [0u64; 3];
        for (i, h) in HEURISTICS.into_iter().enumerate() {
            let tag = format!("{label}-{}", h.label());
            // Generation run: stores injected, nothing reused yet.
            let mut rs = paper_driver(&env.engine, h, false, &tag);
            let gen = run(&mut rs, &query, &format!("/wf/{tag}-gen"));
            gen_s[i] = gen.total_s;
            stored_bytes[i] = (gen.stored_candidate_bytes as f64 * env.byte_scale) as u64;
            // Reuse run: same repository, rewriting enabled.
            let mut cfg = rs.config_as(None);
            cfg.reuse_enabled = true;
            rs.set_config_as(None, cfg);
            let reuse = run(&mut rs, &query, &format!("/wf/{tag}-reuse"));
            reuse_s[i] = reuse.total_s;
        }

        rows.push(SubJobRow {
            label,
            plain_s,
            gen_s,
            reuse_s,
            stored_bytes,
            input_bytes,
            output_bytes,
        });
    }
    rows
}

impl SubJobRow {
    /// Figure 11/16-style overhead for heuristic `i`.
    pub fn overhead(&self, i: usize) -> f64 {
        self.gen_s[i] / self.plain_s
    }

    /// Figure 12-style speedup for heuristic `i`.
    pub fn speedup(&self, i: usize) -> f64 {
        self.plain_s / self.reuse_s[i]
    }
}

// ---------------------------------------------------------------------
// Whole-job sweep: Figures 9 and 15.
// ---------------------------------------------------------------------

/// Per-variant measurements for the L3/L11 workload.
#[derive(Debug, Clone)]
pub struct WholeJobRow {
    pub label: String,
    pub plain_s: f64,
    /// Reusing sub-jobs stored by HC.
    pub hc_s: f64,
    /// Reusing sub-jobs stored by HA.
    pub ha_s: f64,
    /// Reusing whole (intermediate) jobs.
    pub whole_s: f64,
}

/// Run the §7.1/§7.4 whole-job workload at one scale.
pub fn whole_job_sweep(env: &PigMixEnv) -> Vec<WholeJobRow> {
    let mut rows = Vec::new();
    for (label, query) in queries::whole_job_workload("/out/whole") {
        let mut base = baseline_driver(&env.engine);
        let plain_s = run(&mut base, &query, &format!("/wf/w-{label}-plain")).total_s;

        let variant = |h: Heuristic, tag: &str| -> f64 {
            let tag = format!("w-{label}-{tag}");
            // Whole-job mode stores outputs through the reuse path itself
            // (heuristic None registers no sub-jobs), so enable reuse from
            // the start; the repository is empty on the first run.
            let mut rs = paper_driver(&env.engine, h, h == Heuristic::None, &tag);
            run(&mut rs, &query, &format!("/wf/{tag}-gen"));
            let mut cfg = rs.config_as(None);
            cfg.reuse_enabled = true;
            rs.set_config_as(None, cfg);
            run(&mut rs, &query, &format!("/wf/{tag}-reuse")).total_s
        };

        let hc_s = variant(Heuristic::Conservative, "hc");
        let ha_s = variant(Heuristic::Aggressive, "ha");
        let whole_s = variant(Heuristic::None, "whole");

        rows.push(WholeJobRow { label, plain_s, hc_s, ha_s, whole_s });
    }
    rows
}

// ---------------------------------------------------------------------
// §7.5 data-reduction sweeps: Figures 16 and 17.
// ---------------------------------------------------------------------

/// One point of the QP/QF sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// X axis: percentage of data kept by the Project/Filter.
    pub pct_kept: f64,
    pub plain_s: f64,
    pub gen_s: f64,
    pub reuse_s: f64,
}

impl SweepPoint {
    pub fn overhead(&self) -> f64 {
        self.gen_s / self.plain_s
    }

    pub fn speedup(&self) -> f64 {
        self.plain_s / self.reuse_s
    }
}

/// Figure 16: vary the number of projected fields in template QP.
pub fn projection_sweep(env: &SyntheticEnv) -> Vec<SweepPoint> {
    let total = env.total_bytes as f64;
    (1..=5)
        .map(|k| {
            let query = synthetic::qp(k, &format!("/out/qp{k}"));
            let mut base = baseline_driver(&env.engine);
            let plain_s = run(&mut base, &query, &format!("/wf/qp{k}-plain")).total_s;
            let mut rs =
                paper_driver(&env.engine, Heuristic::Conservative, false, &format!("qp{k}"));
            let gen = run(&mut rs, &query, &format!("/wf/qp{k}-gen"));
            let mut cfg = rs.config_as(None);
            cfg.reuse_enabled = true;
            rs.set_config_as(None, cfg);
            let reuse_s = run(&mut rs, &query, &format!("/wf/qp{k}-reuse")).total_s;
            let pct_kept = 100.0 * gen.stored_candidate_bytes as f64
                / (total * env.byte_scale / env.byte_scale);
            SweepPoint { pct_kept, plain_s, gen_s: gen.total_s, reuse_s }
        })
        .collect()
}

/// Figure 17: vary the filtered field in template QF (selectivities per
/// Table 2).
pub fn filter_sweep(env: &SyntheticEnv) -> Vec<SweepPoint> {
    synthetic::FILTER_FIELDS
        .iter()
        .map(|&(field, _card, pct)| {
            let query = synthetic::qf(field, &format!("/out/qf{field}"));
            let mut base = baseline_driver(&env.engine);
            let plain_s = run(&mut base, &query, &format!("/wf/qf{field}-plain")).total_s;
            let mut rs =
                paper_driver(&env.engine, Heuristic::Conservative, false, &format!("qf{field}"));
            let gen = run(&mut rs, &query, &format!("/wf/qf{field}-gen"));
            let mut cfg = rs.config_as(None);
            cfg.reuse_enabled = true;
            rs.set_config_as(None, cfg);
            let reuse_s = run(&mut rs, &query, &format!("/wf/qf{field}-reuse")).total_s;
            SweepPoint { pct_kept: pct * 100.0, plain_s, gen_s: gen.total_s, reuse_s }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Matcher ablation: sequential scan vs fingerprint index.
// ---------------------------------------------------------------------

/// One row of the matcher ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub repo_size: usize,
    /// Mean lookup time of the paper's sequential scan, microseconds.
    pub scan_us: f64,
    /// Mean lookup time with the fingerprint index, microseconds.
    pub index_us: f64,
    /// Both strategies found the same entry.
    pub agree: bool,
}

/// Wall-clock ablation of repository lookup strategies (DESIGN.md §3).
/// Both strategies return identical matches; the index prunes candidates
/// by tip signature before running the full traversal.
pub fn matcher_ablation() -> Vec<AblationRow> {
    use restore_core::{RepoStats, Repository, StoredFile};
    use restore_dataflow::expr::Expr;
    use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
    use std::time::Instant;

    fn entry_plan(i: usize) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: format!("/data/t{}", i % 7) }, vec![]);
        let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(i % 5, i as i64) }, vec![l]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0, (i % 3) + 1] }, vec![f]);
        p.add(PhysicalOp::Store { path: format!("/repo/{i}") }, vec![pr]);
        p
    }

    fn query_plan(i: usize) -> PhysicalPlan {
        let mut p = entry_plan(i);
        let tip = p.stores()[0];
        let before = p.inputs(tip)[0];
        let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
        p
    }

    let mut rows = Vec::new();
    for &n in &[8usize, 32, 128, 512] {
        let repo = Repository::new();
        for i in 0..n {
            // Decreasing reduction ratio and job time with i, so entry
            // n-1 sorts *last* — the scan's worst case.
            let stats = RepoStats {
                input_bytes: 100_000 - i as u64 * 10,
                output_bytes: 100,
                job_time_s: (n - i) as f64,
                ..Default::default()
            };
            repo.insert(StoredFile::new(format!("/r/{i}"), entry_plan(i)), stats);
        }
        let view = repo.snapshot();
        // Worst case for the scan: the matching entry sits at the end.
        let query = query_plan(n - 1);
        let reps = 200;
        let t0 = Instant::now();
        let mut scan_hit = None;
        for _ in 0..reps {
            scan_hit = view.find_first_match_scan(&query, |_, _| false).map(|(id, _)| id);
        }
        let scan_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t1 = Instant::now();
        let mut index_hit = None;
        for _ in 0..reps {
            let mut probe = restore_core::MatchProbe::default();
            index_hit =
                view.find_first_match_probed(&query, |_, _| false, &mut probe).map(|(id, _)| id);
        }
        let index_us = t1.elapsed().as_secs_f64() * 1e6 / reps as f64;
        rows.push(AblationRow {
            repo_size: n,
            scan_us,
            index_us,
            agree: scan_hit.is_some() && scan_hit == index_hit,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Table 2 verification.
// ---------------------------------------------------------------------

/// Measured field statistics of the generated synthetic data set.
#[derive(Debug, Clone)]
pub struct FieldStat {
    pub field: usize,
    pub spec_cardinality: f64,
    pub measured_cardinality: usize,
    pub spec_selected_pct: f64,
    pub measured_selected_pct: f64,
}

/// Verify the generated data against Table 2.
pub fn table2_check(env: &SyntheticEnv) -> Vec<FieldStat> {
    let bytes = env.engine.dfs().read_all(synthetic::SYNTH).expect("synthetic data");
    let rows = restore_common::codec::decode_all(&bytes).expect("decode");
    synthetic::FILTER_FIELDS
        .iter()
        .map(|&(field, card, pct)| {
            let mut vals: Vec<i64> =
                rows.iter().filter_map(|t| t.get(field - 1).as_i64()).collect();
            let hits = vals.iter().filter(|&&v| v == 0).count();
            let measured_selected_pct = 100.0 * hits as f64 / rows.len() as f64;
            vals.sort_unstable();
            vals.dedup();
            FieldStat {
                field,
                spec_cardinality: card,
                measured_cardinality: vals.len(),
                spec_selected_pct: pct * 100.0,
                measured_selected_pct,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{pigmix_env, synthetic_env};
    use restore_pigmix::DataScale;

    /// One smoke test runs a miniature version of every sweep; the real
    /// scales run in the experiments binary.
    #[test]
    fn sweeps_run_at_tiny_scale() {
        let env = pigmix_env(DataScale::tiny());

        let rows = subjob_sweep(&env);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.plain_s > 0.0, "{}", r.label);
            for i in 0..3 {
                assert!(r.gen_s[i] >= r.plain_s * 0.9, "{} gen < plain", r.label);
                assert!(r.reuse_s[i] > 0.0, "{}", r.label);
                // Reuse must always beat the store-injected run; beating
                // the plain run requires multiple map waves, which the
                // tiny test scale does not have (the paper's 15 GB-vs-
                // 150 GB observation), so allow a small margin here.
                assert!(
                    r.reuse_s[i] < r.gen_s[i],
                    "{} reuse ({}) not faster than generation ({})",
                    r.label,
                    r.reuse_s[i],
                    r.gen_s[i]
                );
                assert!(
                    r.reuse_s[i] <= r.plain_s * 1.35,
                    "{} reuse ({}) far above plain ({})",
                    r.label,
                    r.reuse_s[i],
                    r.plain_s
                );
            }
            // NH stores at least as much as HA, which stores >= HC.
            assert!(r.stored_bytes[2] >= r.stored_bytes[1]);
            assert!(r.stored_bytes[1] >= r.stored_bytes[0]);
            assert!(r.input_bytes > 0);
        }

        let whole = whole_job_sweep(&env);
        assert_eq!(whole.len(), 9);
        for r in &whole {
            // Multi-job workflows always shrink: the reused intermediate
            // job disappears entirely (its startup cost alone wins even
            // at tiny scale, where single-wave map phases hide sub-job
            // benefits).
            assert!(
                r.whole_s < r.plain_s * 0.95,
                "{} whole-job reuse must win ({} vs {})",
                r.label,
                r.whole_s,
                r.plain_s
            );
            assert!(r.ha_s <= r.plain_s * 1.05, "{}", r.label);
        }

        let syn = synthetic_env(400);
        let qp = projection_sweep(&syn);
        assert_eq!(qp.len(), 5);
        // More projected fields → more stored bytes → higher overhead.
        assert!(qp[4].pct_kept > qp[0].pct_kept);
        let qf = filter_sweep(&syn);
        assert_eq!(qf.len(), 7);
        for p in qf.iter().chain(qp.iter()) {
            // Tiny scale: single-wave maps mute (even invert) the benefit;
            // reuse must still beat the store-injected run, and overhead
            // is real. The monotone paper shapes are asserted at real
            // scale by the experiments binary.
            assert!(p.reuse_s < p.gen_s);
            assert!(p.speedup() > 0.5, "speedup {}", p.speedup());
            assert!(p.overhead() >= 1.0);
        }

        let t2 = table2_check(&syn);
        assert_eq!(t2.len(), 7);
    }

    #[test]
    fn ablation_strategies_agree() {
        for row in matcher_ablation() {
            assert!(row.agree, "strategies disagree at {} entries", row.repo_size);
            assert!(row.scan_us > 0.0 && row.index_us > 0.0);
        }
    }
}
