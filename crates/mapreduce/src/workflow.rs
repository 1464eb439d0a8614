//! Workflows of MapReduce jobs — the paper's Equation (1).
//!
//! A dataflow query compiles into a DAG of jobs; a job starts only after
//! all jobs it depends on finish. Total time follows Equation (1):
//!
//! `T_total(Job_n) = ET(Job_n) + max_{i ∈ Y} T_total(Job_i)`
//!
//! where `Y` is the set of jobs `Job_n` depends on. This crate holds no
//! workflow type of its own: a DAG is the `deps` lists of
//! `restore_dataflow::CompiledWorkflow`, and the functions here take it
//! in that shape. [`waves`] groups jobs like Pig's `JobControlCompiler`
//! iterations (§6.1), [`Engine::run_wave`] runs one group, and
//! [`equation_one`] reports per-job and critical-path totals.

use crate::engine::{Engine, JobResult};
use crate::job::JobSpec;
use restore_common::{Error, Result};

/// Dependency waves of a job DAG (`deps[i]` = the jobs job `i` waits
/// for): jobs grouped by the `JobControlCompiler` iteration in which
/// they would be submitted (all dependencies satisfied by earlier
/// waves). Jobs within one wave are mutually independent and safe to
/// execute concurrently. Stable within a wave (job index order); errors
/// on cycles.
pub fn waves(deps: &[impl AsRef<[usize]>]) -> Result<Vec<Vec<usize>>> {
    let n = deps.len();
    let mut done = vec![false; n];
    let mut waves = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let wave: Vec<usize> =
            (0..n).filter(|&i| !done[i] && deps[i].as_ref().iter().all(|&d| done[d])).collect();
        if wave.is_empty() {
            return Err(Error::Workflow("dependency cycle detected".into()));
        }
        for &i in &wave {
            done[i] = true;
        }
        remaining -= wave.len();
        waves.push(wave);
    }
    Ok(waves)
}

/// Equation (1) over a job DAG, given per-job `ET` values. Returns
/// (per-job totals, overall total, one critical path from source to
/// sink); an empty DAG takes no time along no path.
pub fn equation_one(
    deps: &[impl AsRef<[usize]>],
    et: &[f64],
) -> Result<(Vec<f64>, f64, Vec<usize>)> {
    assert_eq!(et.len(), deps.len());
    let mut totals = vec![0.0f64; et.len()];
    let mut pred: Vec<Option<usize>> = vec![None; et.len()];
    for i in waves(deps)?.into_iter().flatten() {
        let mut slowest = 0.0f64;
        for &d in deps[i].as_ref() {
            if totals[d] > slowest {
                slowest = totals[d];
                pred[i] = Some(d);
            }
        }
        totals[i] = et[i] + slowest;
    }
    let Some((sink, &total)) =
        totals.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN times"))
    else {
        return Ok((totals, 0.0, Vec::new()));
    };
    let mut path = vec![sink];
    let mut cur = sink;
    while let Some(p) = pred[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Ok((totals, total, path))
}

impl Engine {
    /// Execute the jobs of one wave — concurrently when `parallel`, since
    /// they share no dependency edges — and report each job's outcome, in
    /// `specs` order. One job's failure stops no other: every job that
    /// succeeds commits, and a job that fails leaves no visible output.
    ///
    /// Outputs are byte-identical to one-job-at-a-time execution: jobs
    /// within a wave write disjoint files, and per-job execution is
    /// already deterministic regardless of worker threading. So are their
    /// versions: the jobs' tasks run concurrently, but their outputs are
    /// committed in `specs` order once all have run, so which job finished
    /// first does not decide which commit tick each file gets. Run one at
    /// a time, each job commits before the next starts.
    pub fn run_wave(&self, specs: &[&JobSpec], parallel: bool) -> Vec<Result<JobResult>> {
        if specs.len() <= 1 || !parallel {
            return specs.iter().map(|spec| self.run(spec)).collect();
        }
        let ran: Vec<Result<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                specs.iter().map(|&spec| scope.spawn(move || self.execute(spec))).collect();
            handles.into_iter().map(|h| h.join().expect("wave job thread panicked")).collect()
        });
        specs.iter().zip(ran).map(|(spec, ran)| self.commit_outputs(spec, ran?)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, EngineConfig};
    use crate::job::JobInput;
    use crate::task::{MapContext, Mapper};
    use restore_common::{codec, tuple, Tuple};
    use restore_dfs::{Dfs, DfsConfig};
    use std::sync::Arc;

    struct PassThrough;
    impl Mapper for PassThrough {
        fn map(
            &mut self,
            _tag: usize,
            record: Tuple,
            ctx: &mut MapContext,
        ) -> restore_common::Result<()> {
            ctx.output(record);
            Ok(())
        }
    }

    fn pass_job(name: &str, input: &str, output: &str) -> JobSpec {
        JobSpec::new(
            name,
            vec![JobInput::new(input)],
            output,
            Arc::new(|| Box::new(PassThrough) as Box<dyn Mapper>),
            None,
        )
    }

    /// j0 -> j1, j0 -> j2, {j1, j2} -> j3, as `deps` lists.
    const DIAMOND: [&[usize]; 4] = [&[], &[0], &[0], &[1, 2]];

    fn diamond_jobs() -> Vec<JobSpec> {
        vec![
            pass_job("j0", "/in", "/a"),
            pass_job("j1", "/a", "/b"),
            pass_job("j2", "/a", "/c"),
            pass_job("j3", "/b", "/d"),
        ]
    }

    /// Every wave of `deps` through `run_wave`, in order.
    fn run_waves(eng: &Engine, jobs: &[JobSpec], parallel: bool) -> Vec<JobResult> {
        let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
        for wave in waves(&DIAMOND).unwrap() {
            let specs: Vec<&JobSpec> = wave.iter().map(|&i| &jobs[i]).collect();
            for (i, r) in wave.into_iter().zip(eng.run_wave(&specs, parallel)) {
                results[i] = Some(r.unwrap());
            }
        }
        results.into_iter().map(|r| r.expect("every job ran")).collect()
    }

    #[test]
    fn waves_respect_dependencies() {
        assert_eq!(waves(&DIAMOND).unwrap(), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn topo_order_is_valid() {
        let order = waves(&DIAMOND).unwrap().concat();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_is_detected() {
        let cycle: [&[usize]; 2] = [&[1], &[0]];
        assert!(waves(&cycle).is_err());
        assert!(equation_one(&cycle, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn equation_one_totals() {
        // ET: j0=10, j1=5, j2=20, j3=1.
        let (totals, total, path) = equation_one(&DIAMOND, &[10.0, 5.0, 20.0, 1.0]).unwrap();
        assert_eq!(totals, vec![10.0, 15.0, 30.0, 31.0]);
        assert_eq!(total, 31.0);
        // Critical path goes through the slow branch j2.
        assert_eq!(path, vec![0, 2, 3]);
    }

    #[test]
    fn wave_parallel_engine_matches_sequential() {
        let seed = |dfs: &Dfs| {
            let rows: Vec<Tuple> =
                (0..200).map(|i| tuple![format!("k{}", i % 13), i as i64]).collect();
            dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
        };
        let mk_engine = |threads: usize| {
            let dfs = Dfs::new(DfsConfig {
                nodes: 3,
                block_size: 128,
                replication: 1,
                node_capacity: None,
            });
            seed(&dfs);
            Engine::new(
                dfs,
                ClusterConfig::default(),
                EngineConfig { worker_threads: threads, default_reduce_tasks: 2 },
            )
        };
        let jobs = diamond_jobs();

        // Each wave's jobs concurrently.
        let par = mk_engine(4);
        let par_results = run_waves(&par, &jobs, true);

        // Strictly sequential: one job at a time, in wave order.
        let seq = mk_engine(1);
        let seq_results = run_waves(&seq, &jobs, false);

        for path in ["/a", "/b", "/c", "/d"] {
            assert_eq!(
                par.dfs().read_all(path).unwrap(),
                seq.dfs().read_all(path).unwrap(),
                "output {path} diverged between wave-parallel and sequential"
            );
        }
        // Committed in job order, so at the same versions.
        let versions = |results: &[JobResult]| results.iter().map(|r| r.versions.clone()).collect();
        let par_versions: Vec<Vec<u64>> = versions(&par_results);
        assert_eq!(par_versions, versions(&seq_results));
    }

    #[test]
    fn waves_and_equation_one_end_to_end() {
        let dfs =
            Dfs::new(DfsConfig { nodes: 3, block_size: 64, replication: 1, node_capacity: None });
        let rows = vec![tuple![1, "x"], tuple![2, "y"]];
        dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
        let eng = Engine::new(
            dfs.clone(),
            ClusterConfig::default(),
            EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
        );
        let results = run_waves(&eng, &diamond_jobs(), true);
        assert_eq!(results.len(), 4);
        // Data flowed through the chain unchanged.
        let out = codec::decode_all(&dfs.read_all("/d").unwrap()).unwrap();
        assert_eq!(out, rows);
        let et: Vec<f64> = results.iter().map(|r| r.times.total_s).collect();
        let (_, total, path) = equation_one(&DIAMOND, &et).unwrap();
        assert!(total > 0.0);
        // Workflow total exceeds every individual job time.
        for jr in &results {
            assert!(total >= jr.times.total_s);
        }
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&3));
    }
}
