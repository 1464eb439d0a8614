//! Workflows of MapReduce jobs — the paper's Equation (1).
//!
//! A dataflow query compiles into a DAG of jobs; a job starts only after
//! all jobs it depends on finish. Total time follows Equation (1):
//!
//! `T_total(Job_n) = ET(Job_n) + max_{i ∈ Y} T_total(Job_i)`
//!
//! where `Y` is the set of jobs `Job_n` depends on. The scheduler executes
//! jobs in dependency waves exactly like Pig's `JobControlCompiler`
//! iterations (§6.1), and reports both per-job and critical-path totals.

use crate::engine::{Engine, JobResult};
use crate::job::JobSpec;
use restore_common::{Error, Result};

/// A DAG of jobs with explicit dependencies.
#[derive(Clone, Default)]
pub struct Workflow {
    jobs: Vec<JobSpec>,
    /// `deps[i]` = indices of jobs that job `i` depends on.
    deps: Vec<Vec<usize>>,
}

impl std::fmt::Debug for Workflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workflow")
            .field("jobs", &self.jobs.iter().map(|j| &j.name).collect::<Vec<_>>())
            .field("deps", &self.deps)
            .finish()
    }
}

/// Result of executing a workflow.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// Per-job results in job-index order.
    pub job_results: Vec<JobResult>,
    /// `T_total` per job per Equation (1).
    pub job_total_s: Vec<f64>,
    /// Workflow completion time = max over jobs of `T_total`.
    pub total_s: f64,
    /// One critical path (job indices from source to sink).
    pub critical_path: Vec<usize>,
}

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

impl Workflow {
    pub fn new() -> Self {
        Workflow::default()
    }

    /// Add a job, returning its index.
    pub fn add_job(&mut self, spec: JobSpec) -> usize {
        self.jobs.push(spec);
        self.deps.push(Vec::new());
        self.jobs.len() - 1
    }

    /// Declare that `job` depends on `on`.
    pub fn add_dependency(&mut self, job: usize, on: usize) {
        assert!(job < self.jobs.len() && on < self.jobs.len(), "unknown job index");
        if !self.deps[job].contains(&on) {
            self.deps[job].push(on);
        }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn job(&self, idx: usize) -> &JobSpec {
        &self.jobs[idx]
    }

    pub fn job_mut(&mut self, idx: usize) -> &mut JobSpec {
        &mut self.jobs[idx]
    }

    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    pub fn dependencies(&self, idx: usize) -> &[usize] {
        &self.deps[idx]
    }

    /// A topological order of the jobs (the waves flattened); errors on
    /// cycles.
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        Ok(self.waves()?.into_iter().flatten().collect())
    }

    /// This workflow's dependency [`waves`].
    pub fn waves(&self) -> Result<Vec<Vec<usize>>> {
        waves(&self.deps)
    }

    /// [`equation_one`] over this workflow's dependencies.
    pub fn total_times(&self, et: &[f64]) -> Result<(Vec<f64>, f64, Vec<usize>)> {
        equation_one(&self.deps, et)
    }
}

impl Engine {
    /// Execute the jobs of one wave — concurrently when `parallel`, since
    /// they share no dependency edges. Results come back in `specs`
    /// order; on failure the error of the lowest job index wins, matching
    /// what strictly sequential submission would have reported first.
    ///
    /// Outputs are byte-identical to one-job-at-a-time execution: jobs
    /// within a wave write disjoint files, and per-job execution is
    /// already deterministic regardless of worker threading.
    pub fn run_wave(&self, specs: &[&JobSpec], parallel: bool) -> Result<Vec<JobResult>> {
        if specs.len() <= 1 || !parallel {
            return specs.iter().map(|spec| self.run(spec)).collect();
        }
        let outcomes: Vec<Result<JobResult>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                specs.iter().map(|&spec| scope.spawn(move || self.run(spec))).collect();
            handles.into_iter().map(|h| h.join().expect("wave job thread panicked")).collect()
        });
        outcomes.into_iter().collect()
    }

    /// Execute an entire workflow in dependency waves, then compute
    /// Equation (1) totals from the modeled per-job times.
    pub fn run_workflow(&self, wf: &Workflow) -> Result<WorkflowResult> {
        let mut results: Vec<Option<JobResult>> = vec![None; wf.len()];
        for wave in wf.waves()? {
            let specs: Vec<&JobSpec> = wave.iter().map(|&idx| wf.job(idx)).collect();
            for (idx, result) in wave.into_iter().zip(self.run_wave(&specs, true)?) {
                results[idx] = Some(result);
            }
        }
        let job_results: Vec<JobResult> =
            results.into_iter().map(|r| r.expect("all jobs ran")).collect();
        let et: Vec<f64> = job_results.iter().map(|r| r.times.total_s).collect();
        let (job_total_s, total_s, critical_path) = wf.total_times(&et)?;
        Ok(WorkflowResult { job_results, job_total_s, total_s, critical_path })
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

    fn diamond() -> Workflow {
        // j0 -> j1, j0 -> j2, {j1, j2} -> j3
        let mut wf = Workflow::new();
        let j0 = wf.add_job(pass_job("j0", "/in", "/a"));
        let j1 = wf.add_job(pass_job("j1", "/a", "/b"));
        let j2 = wf.add_job(pass_job("j2", "/a", "/c"));
        let j3 = wf.add_job(pass_job("j3", "/b", "/d"));
        wf.add_dependency(j1, j0);
        wf.add_dependency(j2, j0);
        wf.add_dependency(j3, j1);
        wf.add_dependency(j3, j2);
        wf
    }

    #[test]
    fn waves_respect_dependencies() {
        let wf = diamond();
        let waves = wf.waves().unwrap();
        assert_eq!(waves, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn topo_order_is_valid() {
        let wf = diamond();
        let order = wf.topo_order().unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_is_detected() {
        let mut wf = Workflow::new();
        let a = wf.add_job(pass_job("a", "/x", "/y"));
        let b = wf.add_job(pass_job("b", "/y", "/x"));
        wf.add_dependency(a, b);
        wf.add_dependency(b, a);
        assert!(wf.topo_order().is_err());
        assert!(wf.waves().is_err());
    }

    #[test]
    fn equation_one_totals() {
        let wf = diamond();
        // ET: j0=10, j1=5, j2=20, j3=1.
        let (totals, total, path) = wf.total_times(&[10.0, 5.0, 20.0, 1.0]).unwrap();
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
        let wf = diamond();

        // Wave-parallel execution through run_workflow.
        let par = mk_engine(4);
        par.run_workflow(&wf).unwrap();

        // Strictly sequential: one job at a time, in topological order.
        let seq = mk_engine(1);
        for idx in wf.topo_order().unwrap() {
            seq.run(wf.job(idx)).unwrap();
        }

        for path in ["/a", "/b", "/c", "/d"] {
            assert_eq!(
                par.dfs().read_all(path).unwrap(),
                seq.dfs().read_all(path).unwrap(),
                "output {path} diverged between wave-parallel and sequential"
            );
        }
    }

    #[test]
    fn run_workflow_end_to_end() {
        let dfs =
            Dfs::new(DfsConfig { nodes: 3, block_size: 64, replication: 1, node_capacity: None });
        let rows = vec![tuple![1, "x"], tuple![2, "y"]];
        dfs.write_all("/in", &codec::encode_all(&rows)).unwrap();
        let eng = Engine::new(
            dfs.clone(),
            ClusterConfig::default(),
            EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
        );
        let res = eng.run_workflow(&diamond()).unwrap();
        assert_eq!(res.job_results.len(), 4);
        // Data flowed through the chain unchanged.
        let out = codec::decode_all(&dfs.read_all("/d").unwrap()).unwrap();
        assert_eq!(out, rows);
        assert!(res.total_s > 0.0);
        // Workflow total exceeds every individual job time.
        for jr in &res.job_results {
            assert!(res.total_s >= jr.times.total_s);
        }
        assert_eq!(res.critical_path.first(), Some(&0));
        assert_eq!(res.critical_path.last(), Some(&3));
    }
}
