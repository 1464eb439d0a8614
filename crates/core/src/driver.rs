//! The ReStore driver — §6.2's extension of Pig's `JobControlCompiler`,
//! extended into a shared, concurrently-usable session object.
//!
//! A workflow executes in **dependency waves** (the same grouping Pig's
//! `JobControlCompiler` submits in, §6.1). Each job of a wave goes
//! through one lifecycle, prepare → run → register, whether it succeeds
//! or fails, and each step takes the whole wave at once:
//!
//! 1. **prepare** (serialized, cheap): per job — rewrite Loads of outputs
//!    that earlier skipped jobs aliased away, lineage-expand the plan and
//!    repeatedly match/rewrite it against the repository (§3), skip the
//!    job entirely when rewriting reduced it to a pure copy, and inject
//!    sub-job Stores per the active heuristic (§4);
//! 2. **run** (parallel): all surviving jobs of the wave run
//!    concurrently on the MapReduce engine via `std::thread::scope` —
//!    Equation (1) already models a workflow's makespan as its slowest
//!    dependency chain, and wave-parallel execution realizes it. The
//!    engine reports each job's outcome: one job's failure stops no
//!    other, and a failed job leaves no visible output;
//! 3. **register** (serialized, in job-index order): each output's
//!    record — its plan, file and inputs — and statistics enter the
//!    repository (§2.2), and the §5 selection rules are applied, for
//!    every job that ran, whether or not a wave-mate failed.
//!
//! A failed job ends the workflow after its wave: no later wave runs,
//! the end-of-workflow steps run as on success, and the submission
//! returns the error of the lowest-indexed failed job; the failed job
//! and later waves leave nothing. Registration writes records only, and
//! the workflow's end, on every exit, deletes each typed file (temporary
//! or injected candidate) its jobs committed that has no record, as plain
//! Pig deletes its temporaries. So no committed file lacks a record but
//! a user's text output that was not registered (`register_final_outputs:
//! false`, a §5 rejection, a value that would read back retyped, or a
//! failed registration), which is never deleted.
//!
//! The repository, every record included, is published as
//! **RCU snapshots** (see [`crate::rcu`] and [`crate::repository`]), and every
//! public entry point takes `&self`, so **many threads can submit queries
//! against one warmed repository**. The match path never waits on a
//! writer's clone, mutation or `after`: each match attempt grabs the
//! current snapshot once (a pointer copy, see [`crate::rcu`]) and works
//! against it — candidate
//! filtering, path resolution, and the scan budget all come from the
//! snapshot — while reuse accounting (`use_count` / `last_used`) is
//! carried by atomics shared across snapshots, so a match publishes
//! nothing and enters no writer section (`publish_count` proves it).
//! The snapshot keeps each match's outcome, so a job whose plan it has
//! already matched replays that outcome instead of matching again.
//! Entry registration (batched per wave) and eviction sweeps serialize
//! among themselves and publish new snapshots; a reader is behind them
//! for one pointer swap at most.
//! Job execution itself holds no lock at all, so long-running jobs never
//! block matching in other sessions; outputs matched for reuse are
//! pinned (see [`crate::pin`]) so a concurrent sweep cannot delete them
//! mid-flight. Because a match can be made against a snapshot that a
//! concurrent sweep has already superseded, the match step **pins, then
//! revalidates** the matched entries against a fresh snapshot before
//! using them (see [`ReStore`]'s match step for the race argument).
//!
//! Reuse state is kept **per tenant**: each tenant submitted through the
//! `_as` entry points gets its own repository/pin namespace,
//! so reuse, candidate materialization, and eviction never cross
//! tenants. The tenant-less API uses the default namespace, the `""`
//! entry of the same map.
//!
//! This file is the execution loop. Each seam around it is its own
//! `impl ReStore`: namespaces and configuration in `spaces.rs`,
//! explain, trace and stats in `introspect.rs`, and saving and loading
//! the session in `persist.rs`. The §3 match is a free function of a
//! plan and a snapshot in `matching.rs`, which its signature keeps pure;
//! the driver's match step keeps only its effects.

use crate::enumerator::{inject_subjob_stores, Candidate, Heuristic};
use crate::journal::Journal;
use crate::matching::{match_memoized, Matched, Source};
use crate::obs::{Obs, ReuseDecision, ReuseTraceEvent, SpaceMetrics};
use crate::pin::PinSet;
use crate::rcu::Rcu;
use crate::repository::{RepoBatch, RepoSnapshot, RepoStats, Repository, StoredFile};
use crate::rewriter::apply_aliases;
use crate::selector::{Eviction, SelectionPolicy};
use parking_lot::RwLock;
use restore_common::{Error, Result};
use restore_dataflow::exec::{job_io, job_spec_for_plan};
use restore_dataflow::mr_compiler::CompiledWorkflow;
use restore_dataflow::physical::PhysicalPlan;
use restore_dataflow::template;
use restore_dfs::Dfs;
use restore_mapreduce::{workflow, Engine, JobResult, JobSpec};
use restore_telemetry::Registry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Templates a session keeps per value of
/// [`ReStoreConfig::canonicalize`] before it starts over (see
/// [`ReStore::compile_as`]). A served workload has a few dozen.
const TEMPLATE_CAPACITY: usize = 256;

/// ReStore configuration.
///
/// One instance is the session-wide default; each tenant namespace may
/// carry its own override (see [`ReStore::set_config_as`]), and every
/// execution path — the reuse heuristic, §5 selection, eviction sweeps,
/// candidate prefixes — reads the submitting tenant's effective policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReStoreConfig {
    /// Rewrite incoming jobs to reuse repository outputs (§3).
    pub reuse_enabled: bool,
    /// Sub-job materialization heuristic (§4).
    pub heuristic: Heuristic,
    /// Keep/evict policy (§5).
    pub selection: SelectionPolicy,
    /// DFS directory for materialized sub-job outputs.
    pub repo_prefix: String,
    /// Register the workflow's *final* outputs as whole-job repository
    /// entries. The paper's §7.1/§7.2 experiments reuse only intermediate
    /// job outputs and sub-jobs — rerunning a query re-executes its final
    /// job — so the experiment harness sets this to `false`. Leaving it
    /// `true` additionally answers repeated identical queries entirely
    /// from the repository.
    pub register_final_outputs: bool,
    /// Execute independent jobs of a wave concurrently. Disabling this
    /// reverts to strict one-job-at-a-time execution (the paper's
    /// Algorithm 1); results are byte-identical either way because jobs
    /// within a wave share no outputs.
    pub wave_parallel: bool,
    /// What the serving layer does when a submission's execution fails:
    /// retries with backoff and the per-tenant circuit breaker (see
    /// [`crate::failure`]). The driver itself only carries and persists
    /// the policy; enforcement lives in `restore-service`. The default (fail-fast, breaker off) is the
    /// exact behavior of earlier releases.
    pub failure: crate::failure::FailurePolicy,
    /// Canonicalize every compiled plan through the analyzer pass
    /// pipeline (`restore_dataflow::analyzer`) before matching, so
    /// semantically-equal paraphrases — reordered conjunctions,
    /// literal-first comparisons, swapped commutative operands,
    /// repeated subqueries — hit the same repository entries. Default
    /// on; turning it off takes the exact pre-analyzer compile path,
    /// byte-identical to earlier releases.
    pub canonicalize: bool,
}

impl Default for ReStoreConfig {
    fn default() -> Self {
        ReStoreConfig {
            reuse_enabled: true,
            heuristic: Heuristic::Aggressive,
            selection: SelectionPolicy::default(),
            repo_prefix: "/restore".to_string(),
            register_final_outputs: true,
            wave_parallel: true,
            failure: crate::failure::FailurePolicy::default(),
            canonicalize: true,
        }
    }
}

impl ReStoreConfig {
    /// Plain Pig-on-Hadoop baseline: no reuse, no sub-jobs, no plan
    /// canonicalization, temporary files deleted after the workflow.
    pub fn baseline() -> Self {
        ReStoreConfig {
            reuse_enabled: false,
            heuristic: Heuristic::None,
            canonicalize: false,
            ..Default::default()
        }
    }
}

/// Record of one applied rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteEvent {
    /// Workflow job index that was rewritten.
    pub job: usize,
    /// Repository entry whose output was reused.
    pub entry_id: u64,
    /// Stored output path spliced into the plan.
    pub reused_path: String,
    /// The rewrite eliminated the entire job.
    pub whole_job: bool,
}

/// Result of executing one workflow through ReStore.
#[derive(Debug, Clone)]
pub struct QueryExecution {
    /// Modeled completion time per Equation (1), seconds.
    pub total_s: f64,
    /// Per-executed-job results (skipped jobs have no entry), in
    /// wave-then-job-index order — a topological order of the workflow.
    pub job_results: Vec<JobResult>,
    /// Jobs eliminated by whole-job reuse.
    pub jobs_skipped: usize,
    /// Applied rewrites, in application order.
    pub rewrites: Vec<RewriteEvent>,
    /// Bytes written by injected sub-job Stores during this execution.
    pub stored_candidate_bytes: u64,
    /// Resolved path of the workflow's final output (after aliasing).
    pub final_output: String,
    /// Candidate sub-jobs registered in the repository.
    pub candidates_stored: usize,
    /// The driver tick this execution ran under — the key into the
    /// reuse-decision trace (see [`ReStore::trace_for`]).
    pub tick: u64,
}

/// Summary of the repository and reuse activity (see [`ReStore::stats_as`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReStoreStats {
    pub repository_entries: usize,
    /// Logical bytes of stored outputs across all entries.
    pub stored_bytes: u64,
    /// Total rewrites served by repository entries.
    pub total_uses: u64,
    /// Entries that have never been reused.
    pub never_used: usize,
    /// Queries executed through this driver.
    pub queries_executed: u64,
    /// Records of stored files: every entry's, and every second file
    /// holding a plan an entry stores.
    pub stored_files: usize,
}

/// The ReStore system: a shared session object. All entry points take
/// `&self`, so one instance can serve query submissions from many
/// threads concurrently (wrap it in an `Arc` or use scoped threads).
///
/// ```
/// use restore_core::{ReStore, ReStoreConfig};
/// use restore_dfs::{Dfs, DfsConfig};
/// use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
///
/// let dfs = Dfs::new(DfsConfig { nodes: 3, block_size: 256, replication: 2, node_capacity: None });
/// dfs.write_all("/data/e", b"alice\t4\nbob\t7\nalice\t1\n").unwrap();
/// let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
/// let restore = ReStore::new(engine, ReStoreConfig::default());
///
/// let q = "A = load '/data/e' as (user, n:int);
///          G = group A by user;
///          R = foreach G generate group, SUM(A.n);
///          store R into '/out/sums';";
/// let first = restore.execute_query(q, "/wf/1").unwrap();
/// let rerun = restore.execute_query(q, "/wf/2").unwrap();
/// // The rerun is answered from the repository: no job executes.
/// assert_eq!(rerun.jobs_skipped, 1);
/// assert!(rerun.total_s < first.total_s);
/// ```
pub struct ReStore {
    pub(crate) engine: Engine,
    /// Every namespace by tenant name: the default namespace is the
    /// `""` entry, always present; a tenant's is created lazily on first
    /// use. A tenant's matching, registration, and eviction sweeps only
    /// ever touch its own space, so tenants cannot observe (or delete)
    /// each other's outputs. RCU-published like the tables themselves:
    /// a lookup is a snapshot load, creation (rare) publishes a new map.
    pub(crate) spaces: Rcu<HashMap<String, Arc<Space>>>,
    /// The global configuration, which the default namespace and every
    /// tenant without an override follow.
    pub(crate) config: RwLock<ReStoreConfig>,
    /// Query counter = the logical clock for usage statistics. Shared by
    /// all tenants (one clock, many namespaces).
    pub(crate) tick: AtomicU64,
    pub(crate) cand_counter: AtomicU64,
    /// Compiled templates (see [`restore_dataflow::template`]), one map
    /// per value of [`ReStoreConfig::canonicalize`], keyed by masked
    /// text. RCU-published like `spaces`: a hit is a snapshot load; a
    /// miss publishes a new map, an empty one once
    /// [`TEMPLATE_CAPACITY`] templates are held.
    pub(crate) templates: Rcu<[HashMap<Arc<str>, Arc<CompiledWorkflow>>; 2]>,
    /// The snapshot journal behind incremental checkpoints (see
    /// [`crate::journal`]); disabled until [`ReStore::enable_journal`].
    pub(crate) journal: Arc<Journal>,
    /// Session observability: the metric registry, per-stage span
    /// histograms, and the reuse-decision trace ring (see [`crate::obs`]).
    pub(crate) obs: Obs,
}

/// One isolated repository namespace: the §2.2 repository with its
/// records, the pin set protecting its in-flight matches, and the
/// tenant's policy override (`None` = follow the global default).
///
/// The repository publishes entries and records as one RCU snapshot:
/// readers load it without waiting on a writer section, and a wave's
/// registration, an eviction or a restore is one writer section, one
/// publish and one journal record.
#[derive(Debug, Default)]
pub(crate) struct Space {
    pub(crate) repo: Repository,
    pub(crate) pins: PinSet,
    /// The tenant's policy override (always `None` in the default
    /// namespace, which follows the global config), RCU-published so
    /// the per-query read on the execution path is a snapshot load like
    /// every other shared map in the session.
    pub(crate) config: Rcu<Option<ReStoreConfig>>,
    /// Per-namespace match metrics (hits/misses/latency).
    /// Registered against the session registry for namespaces the
    /// driver creates; the detached placeholder `space_snapshot` hands
    /// out for unknown tenants records into the void.
    pub(crate) metrics: SpaceMetrics,
}

impl Space {
    /// A fresh namespace with its match metrics registered under
    /// `tenant` in the session registry.
    pub(crate) fn registered(registry: &Registry, tenant: &str) -> Self {
        Space { metrics: SpaceMetrics::registered(registry, tenant), ..Default::default() }
    }
}

/// Pins taken by one in-flight workflow. Dropping the guard releases
/// them and performs any file deletions a sweep deferred in the
/// meantime.
pub(crate) struct PinGuard {
    space: Arc<Space>,
    dfs: Dfs,
    paths: Vec<String>,
}

impl PinGuard {
    fn new(space: Arc<Space>, dfs: Dfs) -> Self {
        PinGuard { space, dfs, paths: Vec::new() }
    }

    fn pin(&mut self, path: &str) {
        self.space.pins.pin(path);
        self.paths.push(path.to_string());
    }

    /// Exempt a path from deferred deletion: it is being handed to the
    /// caller as the workflow's `final_output`. Preservation lives in
    /// the shared [`PinSet`], so it binds every in-flight guard of the
    /// path, not just this one.
    fn preserve(&mut self, path: &str) {
        self.space.pins.preserve(path);
    }

    /// Release the pins taken since the guard held `mark` of them (a
    /// match whose entries did not all survive revalidation).
    fn unpin_since(&mut self, mark: usize) {
        for p in self.paths.split_off(mark) {
            let dfs = &self.dfs;
            self.space.pins.unpin(&p, || {
                dfs.delete(&p);
            });
        }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.unpin_since(0);
    }
}

/// A wave job that survived matching and is ready to execute.
pub(crate) struct PreparedJob {
    idx: usize,
    plan: PhysicalPlan,
    candidates: Vec<Candidate>,
    spec: JobSpec,
}

/// Outcome of preparing one job of a wave.
pub(crate) enum Prepared {
    /// Rewriting reduced the job to a pure copy; its output is aliased.
    Skipped { dst: String },
    /// The job runs — as a copy of `copy_of`, a typed file, into a text
    /// output, if rewriting reduced it to that. A dry run builds no `job`.
    Run { copy_of: Option<String>, job: Option<Box<PreparedJob>> },
}

impl ReStore {
    pub fn new(engine: Engine, config: ReStoreConfig) -> Self {
        let obs = Obs::new();
        let default_space = Arc::new(Space::registered(&obs.registry, ""));
        ReStore {
            engine,
            spaces: Rcu::new(HashMap::from([(String::new(), default_space)])),
            config: RwLock::new(config),
            tick: AtomicU64::new(0),
            cand_counter: AtomicU64::new(0),
            templates: Rcu::default(),
            journal: Arc::new(Journal::default()),
            obs,
        }
    }

    /// The session's metric registry — everything the driver and its
    /// namespaces record lands here; [`Registry::render`] emits it in
    /// Prometheus text exposition format.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Compile and execute a query text in the default namespace.
    pub fn execute_query(&self, text: &str, out_prefix: &str) -> Result<QueryExecution> {
        self.execute_query_as(None, text, out_prefix)
    }

    /// Compile and execute a query text in a tenant's namespace. Matching
    /// only sees the tenant's own entries, candidate outputs materialize
    /// under `{repo_prefix}/{tenant}/`, and eviction sweeps stay inside
    /// the tenant's space.
    pub fn execute_query_as(
        &self,
        tenant: Option<&str>,
        text: &str,
        out_prefix: &str,
    ) -> Result<QueryExecution> {
        let wf = self.compile_as(tenant, text, out_prefix)?;
        self.execute_workflow_as(tenant, wf)
    }

    /// Compile query text under the tenant's **effective configuration**.
    /// With [`ReStoreConfig::canonicalize`] on (the default) the
    /// analyzer rewrites the lowered plan to canonical form before job
    /// segmentation — semantically-equal paraphrases compile to the
    /// same plans and signatures, so they hit the same repository
    /// entries — and each pass's wall time lands in the
    /// `restore_canon_stage_seconds` histogram family. With it off, the
    /// compile path is byte-identical to earlier releases.
    ///
    /// A text is compiled once per template: its store paths become
    /// marks ([`restore_dataflow::template::Key`]), the marked text is
    /// compiled on first sight and kept, and every submission binds its
    /// own store paths and `out_prefix` into a copy. The result equals
    /// compiling `text` directly; a text with no key, or whose marked
    /// text does not compile, is compiled directly, so an error is the
    /// direct compile's. `restore_compile_templates_total{outcome}`
    /// counts each `hit`, `miss` and `bypass`; the analyzer runs only on
    /// a miss or a bypass.
    pub fn compile_as(
        &self,
        tenant: Option<&str>,
        text: &str,
        out_prefix: &str,
    ) -> Result<CompiledWorkflow> {
        let canonicalize = self.read_config_as(tenant, |config| config.canonicalize);
        self.obs.stage.compile.time(|| {
            let Some(key) = template::Key::of(text, out_prefix) else {
                self.obs.templates.bypass.inc();
                return self.compile_text(text, out_prefix, canonicalize);
            };
            let memo = usize::from(canonicalize);
            if let Some(t) = self.templates.load()[memo].get(key.masked()) {
                self.obs.templates.hit.inc();
                return Ok(template::bind(t, key.literals(), out_prefix));
            }
            let Ok(t) = self.compile_text(key.masked(), template::PREFIX, canonicalize) else {
                self.obs.templates.bypass.inc();
                return self.compile_text(text, out_prefix, canonicalize);
            };
            self.obs.templates.miss.inc();
            let wf = template::bind(&t, key.literals(), out_prefix);
            self.templates.update(|maps| {
                if maps[memo].len() >= TEMPLATE_CAPACITY {
                    maps[memo] = HashMap::new();
                }
                maps[memo].insert(key.masked().into(), Arc::new(t));
            });
            Ok(wf)
        })
    }

    /// One compile of `text` under `out_prefix`, recording the analyzer
    /// passes' time when it canonicalizes.
    fn compile_text(
        &self,
        text: &str,
        out_prefix: &str,
        canonicalize: bool,
    ) -> Result<CompiledWorkflow> {
        if canonicalize {
            let (wf, timings) = restore_dataflow::compile_canonical(text, out_prefix)?;
            self.obs.record_canon(&timings);
            Ok(wf)
        } else {
            restore_dataflow::compile(text, out_prefix)
        }
    }

    /// Execute a compiled workflow in a tenant's namespace (see
    /// [`ReStore::execute_query_as`]).
    ///
    /// **Precondition for canonical matching.** The job plans are
    /// matched in the form they arrive in: with
    /// [`ReStoreConfig::canonicalize`] on, only a job whose Loads an
    /// alias rewrote is put through the analyzer again. A workflow from
    /// [`ReStore::compile_as`] under the same configuration is already
    /// canonical; one built elsewhere (`restore_dataflow::compile`)
    /// still returns the right answer, but matches — and registers its
    /// candidates — in its own uncanonical form.
    pub fn execute_workflow_as(
        &self,
        tenant: Option<&str>,
        mut wf: CompiledWorkflow,
    ) -> Result<QueryExecution> {
        let tick = self.tick.fetch_add(1, Ordering::SeqCst) + 1;
        let space = self.space_for(tenant);
        let space_name = Self::space_name(tenant);
        // The submitting tenant's policy governs this execution end to end:
        // reuse, heuristic, §5 selection, sweeps and placement read it.
        let config = self.effective_config(&space);
        // Neither reusing nor materializing: nothing registered.
        let manage_outputs = config.reuse_enabled || config.heuristic != Heuristic::None;
        // Pins taken at match time live until the whole workflow (whose
        // later waves may Load the matched outputs) has executed.
        let mut pins = PinGuard::new(space.clone(), self.engine.dfs().clone());

        // The staleness pass runs *before* matching, so a stale entry
        // (expired window, changed inputs, lost file) is never reused.
        let sweep_t0 = Instant::now();
        self.sweep(&space, &config.selection, tick);
        self.obs.stage.sweep.record_elapsed(sweep_t0);

        // Only a job's preparation reads its plan: take the plans rather
        // than copy them.
        let mut plans: Vec<PhysicalPlan> =
            wf.jobs.iter_mut().map(|job| std::mem::take(&mut job.plan)).collect();
        let deps = wf.deps();
        let waves = workflow::waves(&deps)?;

        let mut aliases: HashMap<String, String> = HashMap::new();
        let mut et = vec![0.0f64; wf.jobs.len()];
        let mut job_results = Vec::new();
        let mut rewrites = Vec::new();
        let mut jobs_skipped = 0;
        let mut stored_candidate_bytes = 0u64;
        let mut candidates_stored = 0usize;
        let mut final_output = String::new();
        // (job index, error) of each failed job: a wave with one is the last.
        let mut failed: Vec<(usize, Error)> = Vec::new();
        let mut written_typed = Vec::new(); // typed files the jobs that ran committed

        for wave in waves {
            // ---- prepare: match, rewrite, skip, instrument ----
            // Jobs within a wave are independent (a skipped job's alias only
            // reaches later waves): index order keeps the rewrites deterministic.
            let mut prepared: Vec<PreparedJob> = Vec::new();
            // Outputs produced this wave, by job index: the highest index's
            // is `final_output`, as Algorithm 1's topo order would leave it.
            let mut wave_outputs: Vec<(usize, String)> = Vec::new();
            let prepare_t0 = Instant::now();
            for &idx in &wave {
                let plan = std::mem::take(&mut plans[idx]);
                match self.prepare_job(
                    &space,
                    space_name,
                    &wf,
                    idx,
                    plan,
                    tick,
                    &config,
                    &mut aliases,
                    &mut rewrites,
                    Some(&mut pins),
                    &HashSet::new(),
                ) {
                    Ok(Prepared::Skipped { dst }) => {
                        jobs_skipped += 1;
                        wave_outputs.push((idx, resolve_alias(&aliases, &dst)));
                    }
                    Ok(Prepared::Run { job, .. }) => prepared.extend(job.map(|job| *job)),
                    Err(e) => failed.push((idx, e)),
                }
            }
            self.obs.stage.prepare.record_elapsed(prepare_t0);

            // ---- run: the wave, concurrently ----
            // The engine reports each job's outcome. A failed job left no
            // visible output, so it leaves the wave here.
            let execute_t0 = Instant::now();
            let specs: Vec<&JobSpec> = prepared.iter().map(|p| &p.spec).collect();
            let outcomes = self.engine.run_wave(&specs, config.wave_parallel);
            self.obs.stage.execute.record_elapsed(execute_t0);
            let mut ran = Vec::with_capacity(prepared.len());
            for (job, outcome) in prepared.into_iter().zip(outcomes) {
                match outcome {
                    Ok(result) => ran.push((job, result)),
                    Err(e) => failed.push((job.idx, e)),
                }
            }

            // ---- register (§2.2, §5 rules): every job that ran ----
            let register_t0 = Instant::now();
            let mut wave_written: Vec<String> = Vec::new();
            for (job, result) in &ran {
                self.obs.record_phases(&result.phases);
                et[job.idx] = result.times.total_s;
                wave_outputs.push((job.idx, result.output.clone()));
                wave_written.push(result.output.clone());
                wave_written.extend(result.side_outputs.iter().cloned());
                written_typed.extend(job.spec.typed_outputs.iter().cloned());
                // A later wave Loads this inter-job temporary, and registration
                // (below) makes it evictable: pin it first, or a concurrent
                // session's sweep could delete it before its consumer runs.
                if wf.jobs[job.idx].typed_outputs.contains(&result.output) {
                    pins.pin(&result.output);
                }
            }
            // Overwriting a registered path stales the entries that
            // recorded the old bytes: invalidate before registering.
            if !wave_written.is_empty() {
                self.invalidate_overwritten(&wave_written);
            }
            // The wave's entries and records land as one published
            // snapshot (in job-index order), journaled as one `repo-batch`:
            // concurrent sessions and recovery see the wave land at once,
            // and readers keep matching the previous snapshot meanwhile.
            if manage_outputs && !ran.is_empty() {
                space.repo.batch(|repo| {
                    for (job, result) in &ran {
                        match self.register_outputs_batched(
                            repo,
                            &space.pins,
                            &wf,
                            job,
                            result,
                            tick,
                            &config,
                        ) {
                            Ok((cand_bytes, cand_stored)) => {
                                stored_candidate_bytes += cand_bytes;
                                candidates_stored += cand_stored;
                            }
                            Err(e) => failed.push((job.idx, e)),
                        }
                    }
                });
            }
            self.obs.stage.register.record_elapsed(register_t0);
            job_results.extend(ran.into_iter().map(|(_, result)| result));
            if let Some((_, out)) = wave_outputs.into_iter().max_by_key(|(idx, _)| *idx) {
                final_output = out;
            }
            if !failed.is_empty() {
                break;
            }
        }

        // ---- end of the workflow, on every exit: a typed file it wrote
        // survives only with its record; a pinned one goes at its last unpin ----
        if !written_typed.is_empty() {
            let repo = space.repo.snapshot();
            for path in written_typed.iter().filter(|p| repo.file(p).is_none()) {
                if !space.pins.defer_delete(path) {
                    self.engine.dfs().delete(path);
                }
            }
        }
        // The pins drop on return, performing deletions deferred meanwhile.
        if let Some((_, e)) = failed.into_iter().min_by_key(|(idx, _)| *idx) {
            return Err(e);
        }
        // The caller is handed `final_output` to read (a failed submission
        // hands none); if it aliases a pinned repository path that a sweep
        // evicted mid-flight, leave the file instead of deleting it.
        pins.preserve(&final_output);

        let (_, total_s, _) = workflow::equation_one(&deps, &et)?;
        Ok(QueryExecution {
            total_s,
            job_results,
            jobs_skipped,
            rewrites,
            stored_candidate_bytes,
            final_output,
            candidates_stored,
            tick,
        })
    }

    /// The prepare step for one job: alias rewriting, the §3 match loop, whole-job
    /// elimination, and §4 sub-job instrumentation. The records of the
    /// paths in `stale` are neither expanded nor matched.
    /// Without `pins`, [`ReStore::explain_query_as`]'s dry run: no pins,
    /// reuse accounting or trace events, and it stops at the verdict — no
    /// sub-job enumeration (no candidate path taken) and no job spec.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare_job(
        &self,
        space: &Space,
        space_name: &str,
        wf: &CompiledWorkflow,
        idx: usize,
        mut plan: PhysicalPlan,
        tick: u64,
        config: &ReStoreConfig,
        aliases: &mut HashMap<String, String>,
        rewrites: &mut Vec<RewriteEvent>,
        mut pins: Option<&mut PinGuard>,
        stale: &HashSet<String>,
    ) -> Result<Prepared> {
        let job = &wf.jobs[idx];
        // Re-canonicalize after alias rewriting: aliasing two Loads to
        // the same reused path can expose common subtrees that did not
        // exist at compile time. A plan no alias touched is still the
        // fixpoint `compile_as` produced, so the analyzer is skipped.
        if apply_aliases(&mut plan, aliases) && config.canonicalize {
            let timings = restore_dataflow::analyzer::canonicalize_timed(&mut plan);
            self.obs.record_canon(&timings);
        }

        let matched = config.reuse_enabled.then(|| {
            let snap = space.repo.snapshot();
            self.match_loop(space, snap, &plan, tick, space_name, idx, pins.as_deref_mut(), stale)
        });
        let reused = matched.as_ref().map_or(&[][..], |m| &m.entries[..]);
        rewrites.extend(reused.iter().map(|entry| RewriteEvent {
            job: idx,
            entry_id: entry.id,
            reused_path: entry.file.path.clone(),
            whole_job: false,
        }));
        // Whether the file the last rewrite Loads is typed, as its entry
        // recorded in the snapshot it matched in.
        let reused_typed = reused.last().is_some_and(|entry| entry.file.typed);

        // Whole-job elimination: the rewrite reduced the job to a copy,
        // whose source is the file the last rewrite Loads (the loop stops
        // at the rewrite that leaves a copy). Alias when the destination
        // is typed or the source is text: a copy of a typed file into a
        // text output runs as a job instead, since aliasing would hand
        // the user typed bytes. An aliased job needs no rewritten plan.
        let mut copy_of = None;
        if let Some((src, dst)) = matched.as_ref().and_then(|m| m.copy(&plan)) {
            if job.typed_outputs.iter().any(|t| t == dst) || !reused_typed {
                let dst = dst.to_string();
                aliases.insert(dst.clone(), src.to_string());
                if let Some(ev) = rewrites.last_mut() {
                    ev.whole_job = true;
                }
                return Ok(Prepared::Skipped { dst });
            }
            copy_of = Some(src.to_string());
        }
        if pins.is_none() {
            return Ok(Prepared::Run { copy_of, job: None });
        }
        if let Some(m) = matched {
            m.replay(&mut plan);
        }

        // Sub-job enumeration (§4). Candidate outputs are keyed under the
        // tenant's prefix so namespaces never share materialized files.
        let candidates: Vec<Candidate> = if config.heuristic != Heuristic::None {
            let repo = space.repo.snapshot();
            let prefix = match space_name {
                "" => config.repo_prefix.clone(),
                t => format!("{}/{t}", config.repo_prefix),
            };
            inject_subjob_stores(
                &mut plan,
                config.heuristic,
                || {
                    let c = self.cand_counter.fetch_add(1, Ordering::SeqCst) + 1;
                    format!("{prefix}/sub-{c}")
                },
                |candidate| {
                    // Skip candidates whose (base-level) plan is already
                    // stored: re-materializing them would pay the Store
                    // cost for nothing.
                    repo.contains_plan(&repo.expand(candidate).plan).is_some()
                },
            )
        } else {
            Vec::new()
        };

        let mut spec = job_spec_for_plan(&plan, &format!("q{tick}-job{idx}"))?;
        // What ReStore reads back itself is typed: the job's temporaries,
        // as compiled, and the candidates just injected.
        spec.typed_outputs = job.typed_outputs.clone();
        spec.typed_outputs
            .extend(candidates.iter().filter(|c| !c.already_stored).map(|c| c.store_path.clone()));
        let job = PreparedJob { idx, plan, candidates, spec };
        Ok(Prepared::Run { copy_of, job: Some(Box::new(job)) })
    }

    /// The §3 match step for one job: the outcome of the pure match
    /// (`matching::match_memoized`, from the snapshot's memo or a run of
    /// the loop), then its effects. The outcome used is returned: the
    /// caller takes a whole-job answer from it (`Matched::copy`) or the
    /// rewritten plan with its own Store paths (`Matched::replay`), and a
    /// rewrite event per entry.
    ///
    /// Hit or miss, the effects are one path: with `pins` present (a
    /// real execution, not a dry run), each reused output is pinned
    /// against concurrent eviction until the workflow finishes, reuse
    /// statistics are recorded through the entries' shared atomics (no
    /// writer section anywhere), the decisions go to the trace, and the
    /// namespace's hit/miss counters and latency histogram are
    /// recorded. The loop's timings are recorded whenever it ran, so a
    /// memo hit records none.
    ///
    /// **Pin-then-revalidate.** An outcome can come from a snapshot that
    /// a concurrent sweep has already superseded — by the time we pin,
    /// an entry may be evicted and its file deleted (the sweep saw no
    /// pin). So after pinning every reused path we re-check the entries
    /// against one *fresh* snapshot: if they are all present, any later
    /// eviction must publish after this check, hence run its
    /// pin-checked file deletion after our pins are visible, and the
    /// deletion is deferred — the files are safe for the lifetime of the
    /// workflow. If one is gone, we unpin everything this step took and
    /// match again against the fresh snapshot. A vanished entry is absent
    /// from every later snapshot, so the retry makes progress; results
    /// are unchanged because the entry could equally have been evicted a
    /// moment before our first snapshot. Eviction publishes the entry's
    /// removal **before** deleting the file (see `ReStore::sweep`), which
    /// is what makes the revalidation conclusive.
    #[allow(clippy::too_many_arguments)]
    fn match_loop(
        &self,
        space: &Space,
        mut snap: Arc<RepoSnapshot>,
        plan: &PhysicalPlan,
        tick: u64,
        tenant: &str,
        job: usize,
        mut pins: Option<&mut PinGuard>,
        stale: &HashSet<String>,
    ) -> Arc<Matched> {
        let t0 = Instant::now();
        // Entries found gone at revalidation, traced ahead of the outcome
        // that was used.
        let mut rejected: Vec<ReuseDecision> = Vec::new();
        let matched = loop {
            let (matched, source) = match_memoized(&snap, plan, stale, pins.is_some());
            match source {
                Source::Hit => self.obs.memo.hit.inc(),
                Source::Miss(times) => {
                    self.obs.memo.miss.inc();
                    self.obs.record_match(&times);
                }
                Source::Bypass(times) => self.obs.record_match(&times),
            }
            let Some(p) = pins.as_deref_mut().filter(|_| !matched.entries.is_empty()) else {
                break matched;
            };
            let pin_t0 = Instant::now();
            let mark = p.paths.len();
            for entry in &matched.entries {
                p.pin(&entry.file.path);
            }
            let fresh = space.repo.snapshot();
            let gone: Vec<u64> = matched
                .entries
                .iter()
                .map(|e| e.id)
                .filter(|&id| !Arc::ptr_eq(&fresh, &snap) && !fresh.contains_id(id))
                .collect();
            self.obs.match_stage.pin_revalidate.record_elapsed(pin_t0);
            if gone.is_empty() {
                for entry in &matched.entries {
                    // Write-free reuse accounting: atomics shared by every
                    // snapshot of the entry — never a repository lock.
                    space.repo.note_use_of(entry, tick);
                }
                break matched;
            }
            p.unpin_since(mark);
            rejected.extend(
                gone.into_iter()
                    .map(|entry_id| ReuseDecision::RejectedPinRevalidation { entry_id }),
            );
            snap = fresh;
        };
        self.obs.stage.match_loop.record_elapsed(t0);
        // Per-namespace accounting and the trace ring only see real
        // executions; dry runs (no pins) stay invisible, matching
        // `explain_query_as`'s no-side-effect contract.
        if pins.is_some() {
            space.metrics.latency.record_elapsed(t0);
            if matched.entries.is_empty() {
                space.metrics.misses.inc();
            } else {
                space.metrics.hits.inc();
            }
            let decisions = rejected.into_iter().chain(matched.decisions.iter().cloned());
            self.obs.trace.extend(decisions.map(|decision| ReuseTraceEvent {
                tick,
                tenant: tenant.to_string(),
                job,
                decision,
            }));
        }
        matched
    }

    /// The register step for one executed job: register the whole-job
    /// entry and the candidate sub-job entries, each with its file's
    /// record, and nothing else: a file left without one goes when the
    /// workflow ends. The caller runs the whole wave inside one repository
    /// batch, published when the wave completes, so concurrent sessions
    /// and recovery never observe a half-registered job or a
    /// half-registered wave. Returns (bytes written by injected Stores,
    /// candidates kept).
    #[allow(clippy::too_many_arguments)]
    fn register_outputs_batched(
        &self,
        repo: &mut RepoBatch<'_>,
        pins: &PinSet,
        wf: &CompiledWorkflow,
        job: &PreparedJob,
        result: &JobResult,
        tick: u64,
        config: &ReStoreConfig,
    ) -> Result<(u64, usize)> {
        let io = job_io(&job.plan)?;
        // Final outputs (not inter-job temporaries) are only registered
        // when configured; intermediate outputs are always candidates for
        // whole-job reuse (§2.1).
        let is_intermediate = wf.jobs[job.idx].typed_outputs.contains(&io.main_output);
        let register_main = config.register_final_outputs || is_intermediate;
        // A text output holding a value that would read back retyped is
        // never Loaded in place of recomputing it.
        let lossy = |path: &str| result.lossy_outputs.iter().any(|p| p == path);
        // Every output of the job shares its statistics but its size.
        let stats = |output_bytes| RepoStats {
            input_bytes: result.counters.map_input_bytes,
            output_bytes,
            job_time_s: result.times.total_s,
            avg_map_time_s: result.times.avg_map_task_s,
            avg_reduce_time_s: result.times.avg_reduce_task_s,
            use_count: 0,
            last_used: 0,
            created: tick,
        };

        let mut stored_candidate_bytes = 0u64;
        let mut candidates_stored = 0usize;

        // Whole-job entry: the main output with the job's plan.
        let whole_prefix =
            job.plan.prefix_plan(find_store_tip(&job.plan, &io.main_output)?, &io.main_output);
        let whole = self.stored_file(repo, job, result, &io.main_output, &whole_prefix)?;
        let whole_stats = stats(result.counters.output_bytes);
        let keep_main = register_main && config.selection.should_keep(&whole_stats);
        if keep_main && lossy(&io.main_output) {
            self.obs.vetoed_retypes.inc();
        } else if keep_main {
            repo.insert(whole, whole_stats);
            // The path holds fresh bytes again: a deletion deferred from
            // a pre-overwrite eviction must not fire on it later.
            pins.cancel_deferred(&io.main_output);
        }

        // Candidate sub-job entries. A candidate that aliases the job's
        // final output follows the same final-output policy.
        for cand in &job.candidates {
            if cand.already_stored && cand.store_path == io.main_output && !register_main {
                continue;
            }
            if cand.already_stored && lossy(&cand.store_path) {
                self.obs.vetoed_retypes.inc();
                continue;
            }
            let bytes = if cand.already_stored && cand.store_path == io.main_output {
                result.counters.output_bytes
            } else {
                side_bytes(result, &cand.store_path)
            };
            stored_candidate_bytes += if cand.already_stored { 0 } else { bytes };
            let file = self.stored_file(repo, job, result, &cand.store_path, &cand.prefix)?;
            let stats = stats(bytes);
            if !config.selection.should_keep(&stats) {
                continue; // rejected by rules 1–2
            }
            let outcome = repo.insert(file, stats);
            if matches!(outcome, crate::repository::InsertOutcome::Duplicate(_))
                && !cand.already_stored
            {
                // A racing session or a same-wave sibling stored this plan
                // first: the file just written keeps no record.
                repo.forget(&cand.store_path);
            } else {
                pins.cancel_deferred(&cand.store_path);
                candidates_stored += 1;
            }
        }
        Ok((stored_candidate_bytes, candidates_stored))
    }

    /// The record of the job output at `path`, produced by `prefix`, a
    /// plan over the job's inputs: the tick the job committed the file
    /// at, whether it wrote it typed, and what it read. A record of a
    /// file the job read at another tick no longer holds that file: it is
    /// forgotten, as the next pass would, so no record's plan Loads a
    /// recorded path. Then a Load of a file with a record expands to the
    /// record's plan and takes the record's inputs; any other Load is an
    /// input at the tick the job read.
    fn stored_file(
        &self,
        repo: &mut RepoBatch<'_>,
        job: &PreparedJob,
        result: &JobResult,
        path: &str,
        prefix: &PhysicalPlan,
    ) -> Result<StoredFile> {
        let tick = result
            .version_of(path)
            .ok_or_else(|| Error::Job(format!("{path} is not an output of {}", result.job_name)))?;
        let typed = job.spec.typed_outputs.iter().any(|p| p == path);
        let loads: BTreeSet<&str> = prefix.loads().into_iter().map(|l| prefix.path(l)).collect();
        let paths = job.spec.inputs.iter().map(|i| i.path.as_str());
        let read: Vec<(&str, u64)> = paths
            .zip(result.input_versions.iter().copied())
            .filter(|(p, _)| loads.contains(p))
            .collect();
        // After this, every record of a file the job read is at the tick
        // read, so the lookups below need no tick of their own.
        for &(p, at) in &read {
            if repo.file(p).is_some_and(|f| f.tick != at) && repo.forget(p).is_some() {
                self.obs.evicted[Eviction::Overwritten as usize].inc();
            }
        }
        let inputs: BTreeSet<(String, u64)> = read
            .into_iter()
            .flat_map(|(p, at)| {
                repo.file(p).map_or(vec![(p.to_string(), at)], |f| f.inputs.clone())
            })
            .collect();
        let plan = crate::provenance::expand(prefix, |p| repo.file(p).map(|f| &f.plan)).plan;
        let inputs = inputs.into_iter().collect();
        Ok(StoredFile { path: path.to_string(), tick, typed, plan: plan.into_owned(), inputs })
    }
}

fn side_bytes(result: &JobResult, path: &str) -> u64 {
    result
        .side_outputs
        .iter()
        .position(|p| p == path)
        .and_then(|i| result.counters.side_output_bytes.get(i).copied())
        .unwrap_or(0)
}

/// Node feeding the Store with the given path.
fn find_store_tip(plan: &PhysicalPlan, path: &str) -> Result<restore_dataflow::physical::NodeId> {
    use restore_dataflow::physical::PhysicalOp;
    for s in plan.stores() {
        if matches!(plan.op(s), PhysicalOp::Store { path: p } if p == path) {
            return Ok(plan.inputs(s)[0]);
        }
    }
    Err(Error::Plan(format!("no Store of {path:?} in plan")))
}

fn resolve_alias(aliases: &HashMap<String, String>, path: &str) -> String {
    let mut cur = path.to_string();
    let mut hops = 0;
    while let Some(next) = aliases.get(&cur) {
        cur = next.clone();
        hops += 1;
        if hops > aliases.len() {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dfs::DfsConfig;
    use restore_mapreduce::{ClusterConfig, EngineConfig};

    /// Join then group: compiles to a two-job workflow whose second job
    /// loads the first job's temporary output and applies `agg` to each
    /// user's revenue.
    fn two_job_query(agg: &str, out: &str) -> String {
        format!(
            "A = load '/data/pv' as (user, revenue:int);
             B = load '/data/users' as (name, city);
             C = join B by name, A by user;
             D = group C by $0;
             E = foreach D generate group, {agg}(C.revenue);
             store E into '{out}';"
        )
    }

    fn engine() -> Engine {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\n").unwrap();
        dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
        Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
    }

    /// Session T1 halfway through a warm run of the query with `agg`,
    /// over a repository with a one-tick eviction window whose cold
    /// `SUM` run stored the join job's output: the pass ran, the prepare step of
    /// the first wave answered job 0 whole from the repository, pinning
    /// the reused path, and nothing has executed.
    struct MidFlight {
        rs: ReStore,
        wf: CompiledWorkflow,
        space: Arc<Space>,
        pins: PinGuard,
        aliases: HashMap<String, String>,
        rewrites: Vec<RewriteEvent>,
        cfg: ReStoreConfig,
        reused: String,
    }

    fn mid_flight(agg: &str) -> MidFlight {
        let config = ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        };
        let rs = ReStore::new(engine(), config);
        rs.execute_query(&two_job_query("SUM", "/out/cold"), "/wf/cold").unwrap();
        let wf = restore_dataflow::compile(&two_job_query(agg, "/out/warm"), "/wf/warm").unwrap();
        let space = rs.space_for(None);
        let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
        let (mut aliases, mut rewrites, cfg) = (HashMap::new(), Vec::new(), rs.config_as(None));
        rs.sweep(&space, &cfg.selection, 2);
        let prep = rs
            .prepare_job(
                &space,
                "",
                &wf,
                0,
                wf.jobs[0].plan.clone(),
                2,
                &cfg,
                &mut aliases,
                &mut rewrites,
                Some(&mut pins),
                &HashSet::new(),
            )
            .unwrap();
        let Prepared::Skipped { dst } = prep else {
            panic!("join job should be answered whole from the repository")
        };
        let reused = resolve_alias(&aliases, &dst);
        MidFlight { rs, wf, space, pins, aliases, rewrites, cfg, reused }
    }

    impl MidFlight {
        /// The rest of the warm run: prepare job 1, run it, and register
        /// its outputs as the register step of its wave would. Returns the files
        /// job 1 read.
        fn finish(&mut self) -> Vec<String> {
            let MidFlight { rs, wf, space, pins, aliases, rewrites, cfg, .. } = self;
            let plan = wf.jobs[1].plan.clone();
            let prep = rs
                .prepare_job(
                    space,
                    "",
                    wf,
                    1,
                    plan,
                    2,
                    cfg,
                    aliases,
                    rewrites,
                    Some(pins),
                    &HashSet::new(),
                )
                .unwrap();
            let Prepared::Run { job: Some(job), .. } = prep else {
                panic!("the aggregate job should execute")
            };
            let result = rs.engine().run(&job.spec).unwrap();
            let written = std::iter::once(&result.output).chain(&result.side_outputs);
            rs.invalidate_overwritten(&written.cloned().collect::<Vec<_>>());
            space
                .repo
                .batch(|repo| {
                    rs.register_outputs_batched(repo, &space.pins, wf, &job, &result, 2, cfg)
                })
                .unwrap();
            job.spec.inputs.iter().map(|i| i.path.clone()).collect()
        }
    }

    /// Write `text` over the file at `path`, out of band.
    fn overwrite(rs: &ReStore, path: &str, text: &str) {
        let mut w = rs.engine().dfs().create_overwrite(path).unwrap();
        w.write(text.as_bytes());
        w.close().unwrap();
    }

    /// The lines of the answer to the query with `agg`, run through `rs`
    /// and then through a no-reuse session over the same DFS, each sorted.
    fn answers(rs: &ReStore, agg: &str) -> (Vec<String>, Vec<String>) {
        let lines = |rs: &ReStore, out: &str| {
            let ran = rs.execute_query(&two_job_query(agg, out), &format!("/wf{out}")).unwrap();
            let bytes = rs.engine().dfs().read_all(&ran.final_output).unwrap();
            let mut lines: Vec<String> =
                String::from_utf8(bytes.to_vec()).unwrap().lines().map(String::from).collect();
            lines.sort();
            lines
        };
        let baseline = ReStore::new(rs.engine().clone(), ReStoreConfig::baseline());
        (lines(rs, "/out/later"), lines(&baseline, "/baseline/later"))
    }

    /// An input overwritten after job 0 was answered from the repository
    /// and before job 1 ran: job 1 read the stored join, computed from
    /// the old input, so its record holds the join's inputs, and the
    /// next pass forgets it. Before, the record took the input's new
    /// tick from a read before the wave, and the later query was
    /// answered with the old data.
    #[test]
    fn an_input_overwritten_mid_flight_is_recorded_at_the_tick_the_job_read() {
        let mut warm = mid_flight("MAX");
        overwrite(&warm.rs, "/data/pv", "alice\t100\n");
        warm.finish();
        let (got, want) = answers(&warm.rs, "MAX");
        assert_eq!(got, want);
    }

    /// A stored candidate overwritten after job 0 was answered and before
    /// job 1, which reads it, ran: job 1's record holds the candidate at
    /// the tick read, not the candidate's own inputs, and the candidate's
    /// record, at another tick, is forgotten. Before, the record took the
    /// candidate's base inputs, and the later query was answered with the
    /// new bytes.
    #[test]
    fn a_candidate_overwritten_mid_flight_is_an_input_at_the_tick_the_job_read() {
        let mut warm = mid_flight("MAX");
        overwrite(&warm.rs, "/restore/sub-1", "alice\t{(alice,kitchener,alice,100)}\n");
        assert_eq!(warm.finish(), ["/restore/sub-1"]);
        let repo = warm.rs.repository_as(None);
        for f in repo.files() {
            for path in f.plan.loads().into_iter().map(|l| f.plan.path(l)) {
                assert!(repo.file(path).is_none(), "{}'s plan Loads recorded {path}", f.path);
            }
        }
        let (got, want) = answers(&warm.rs, "MAX");
        assert_eq!(got, want);
    }

    /// Regression for the match-then-evict race (ROADMAP "entry pinning
    /// for eviction under concurrency"): session T1 matches a repository
    /// entry during the prepare step, then — before T1 executes the jobs that Load
    /// the matched output — session T2's eviction sweep evicts that
    /// entry. Without pins the sweep deleted the output file and T1
    /// failed with `FileNotFound`; with pins the file deletion is
    /// deferred until T1's workflow drops its pins.
    #[test]
    fn pinned_match_survives_concurrent_eviction_sweep() {
        let mut t1 = mid_flight("SUM");
        let (rs, space, reused) = (&t1.rs, &t1.space, t1.reused.clone());
        assert!(rs.engine().dfs().exists(&reused));
        assert!(space.pins.is_pinned(&reused));

        // T2's sweep far outside the window evicts every entry while T1
        // sits between match and execution.
        let evicted = rs.sweep(space, &t1.cfg.selection, 99);
        assert!(!evicted.is_empty());
        assert_eq!(space.repo.snapshot().len(), 0);

        // The pinned output survived the sweep (the old code deleted it
        // here, and T1's group job then failed with FileNotFound)…
        assert!(rs.engine().dfs().exists(&reused), "pinned output must survive the sweep");

        // …so T1's second wave executes successfully against it.
        assert_eq!(t1.finish(), [reused.as_str()]);

        // Dropping the workflow's pins performs the deferred deletion.
        drop(t1.pins);
        assert!(!t1.rs.engine().dfs().exists(&reused), "deferred deletion runs at last unpin");
    }

    /// A memoized outcome replayed from a snapshot that a sweep has
    /// since superseded: between the lookup and the pin, the entry it
    /// reuses was evicted and its file deleted. The pin step's
    /// revalidation finds the entry gone, unpins, and the loop runs
    /// again against the fresh snapshot, which answers nothing.
    #[test]
    fn a_replay_of_an_evicted_entry_falls_back_to_the_loop() {
        let config = ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        };
        let rs = ReStore::new(engine(), config);
        rs.execute_query(&two_job_query("SUM", "/out/cold"), "/wf/cold").unwrap();
        let wf = restore_dataflow::compile(&two_job_query("SUM", "/out/warm"), "/wf/warm").unwrap();
        let (space, cfg) = (rs.space_for(None), rs.config_as(None));
        rs.sweep(&space, &cfg.selection, 2);
        let looked_up = space.repo.snapshot();
        let run = |snap: Arc<RepoSnapshot>, tick: u64| {
            let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
            let plan = &wf.jobs[0].plan;
            let matched =
                rs.match_loop(&space, snap, plan, tick, "", 0, Some(&mut pins), &HashSet::new());
            let reused: Vec<String> = matched.entries.iter().map(|e| e.file.path.clone()).collect();
            (matched, reused, pins)
        };
        // The lookup's snapshot memoizes the join job's whole-job answer.
        let (_, reused, pins) = run(looked_up.clone(), 2);
        let [path] = &reused[..] else { panic!("one whole-job rewrite: {reused:?}") };
        let entry_id = looked_up.entries().iter().find(|e| &e.file.path == path).unwrap().id;
        drop(pins);

        rs.sweep(&space, &cfg.selection, 99);
        assert!(!rs.engine().dfs().exists(path), "the sweep deleted the unpinned file");
        let (hits, probes) = (rs.obs.memo.hit.get(), rs.obs.match_stage.index_probe.count());
        let (matched, reused, pins) = run(looked_up, 3);
        assert_eq!(rs.obs.memo.hit.get(), hits + 1, "the superseded outcome was replayed");
        assert_eq!(rs.obs.match_stage.index_probe.count(), probes + 1, "and the loop ran again");
        assert!(reused.is_empty(), "{reused:?}");
        assert!(matched.plan.is_none(), "the plan was rewritten: {:?}", matched.plan);
        assert!(!space.pins.is_pinned(path));
        drop(pins);
        let decisions: Vec<ReuseDecision> =
            rs.trace_for(None, 3).into_iter().map(|e| e.decision).collect();
        assert!(
            matches!(
                &decisions[..],
                [
                    ReuseDecision::RejectedPinRevalidation { entry_id: gone },
                    ReuseDecision::NoCandidates { .. },
                ] if *gone == entry_id
            ),
            "{decisions:?}"
        );
    }

    /// A run with records held stale matches as if they were absent, so
    /// it neither replays an outcome the snapshot memoized without them
    /// nor leaves its own for a run that holds nothing stale.
    #[test]
    fn a_run_with_records_held_stale_neither_reads_nor_fills_the_memo() {
        let rs = ReStore::new(engine(), ReStoreConfig::default());
        rs.execute_query(&two_job_query("SUM", "/out/cold"), "/wf/cold").unwrap();
        let wf = restore_dataflow::compile(&two_job_query("SUM", "/out/warm"), "/wf/warm").unwrap();
        let (space, snap) = (rs.space_for(None), rs.repository_as(None));
        let run = |stale: &HashSet<String>| {
            let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
            let plan = &wf.jobs[0].plan;
            let matched =
                rs.match_loop(&space, snap.clone(), plan, 2, "", 0, Some(&mut pins), stale);
            matched.entries.iter().map(|e| e.file.path.clone()).collect::<Vec<_>>()
        };
        let memo = || (rs.obs.memo.hit.get(), rs.obs.memo.miss.get());
        let plain = run(&HashSet::new());
        let [path] = &plain[..] else { panic!("one whole-job rewrite: {plain:?}") };
        let before = memo();
        let held = run(&HashSet::from([path.clone()]));
        assert!(!held.contains(path), "a record held stale was reused: {held:?}");
        assert_eq!(memo(), before, "a run with records held stale used the memo");
        assert_eq!(run(&HashSet::new()), plain);
        assert_eq!(memo(), (before.0 + 1, before.1), "the plain run's outcome is still kept");
    }

    /// A snapshot taken while a deferred deletion is pending must not
    /// serialize the condemned path: its file still exists at save time
    /// but is deleted the moment the pinning workflow finishes, so a
    /// restarted session would hold dangling references.
    #[test]
    fn snapshot_excludes_paths_with_pending_deferred_deletion() {
        let MidFlight { rs, space, pins, cfg, reused, .. } = mid_flight("SUM");

        // Before any eviction, the path is serialized (control).
        assert!(rs.save_state().contains(&format!("{reused:?}")));

        // T2's sweep evicts everything; the pinned file's deletion is
        // deferred, so it still exists on the DFS…
        rs.sweep(&space, &cfg.selection, 99);
        assert!(rs.engine().dfs().exists(&reused));

        // …but a snapshot taken now must exclude it everywhere.
        let state = rs.save_state();
        assert!(
            !state.contains(&format!("{reused:?}")),
            "a condemned path must not enter the snapshot:\n{state}"
        );
        let resumed = ReStore::new(engine(), ReStoreConfig::default());
        resumed.recover(&state, &[]).unwrap();
        assert!(resumed.repository_as(None).file(&reused).is_none());

        drop(pins);
        assert!(!rs.engine().dfs().exists(&reused), "deferred deletion still fires");
    }

    /// Paths whose files are already gone from the DFS (deleted out of
    /// band, e.g. by an operator) are likewise excluded from snapshots.
    #[test]
    fn snapshot_excludes_paths_missing_from_the_dfs() {
        let rs = ReStore::new(engine(), ReStoreConfig::default());
        rs.execute_query(&two_job_query("SUM", "/out/cold"), "/wf/cold").unwrap();
        let stored: Vec<String> =
            rs.repository_as(None).entries().iter().map(|e| e.file.path.clone()).collect();
        assert!(!stored.is_empty());
        let victim = stored[0].clone();
        rs.engine().dfs().delete(&victim);
        let state = rs.save_state();
        assert!(
            !state.contains(&format!("{victim:?}")),
            "a path with no file behind it must not enter the snapshot"
        );
        // The snapshot still loads and serves the surviving entries.
        let resumed = ReStore::new(engine(), ReStoreConfig::default());
        resumed.recover(&state, &[]).unwrap();
        assert_eq!(resumed.repository_as(None).len(), stored.len() - 1);
    }

    /// A path handed to the caller as `final_output` must survive the
    /// pin release even when a mid-flight sweep deferred its deletion:
    /// deleting it would hand the caller a dangling result.
    #[test]
    fn preserved_final_output_survives_deferred_deletion() {
        let MidFlight { rs, space, mut pins, cfg, reused, .. } = mid_flight("SUM");

        // Sweep evicts the entry and defers the pinned file's deletion —
        // but this workflow hands `reused` to its caller.
        rs.sweep(&space, &cfg.selection, 99);
        pins.preserve(&reused);
        drop(pins);
        assert!(
            rs.engine().dfs().exists(&reused),
            "a preserved final output is orphaned, never deleted under the reader"
        );
    }
}
