//! The ReStore driver — §6.2's extension of Pig's `JobControlCompiler`,
//! extended into a shared, concurrently-usable session object.
//!
//! A workflow executes in **dependency waves** (the same grouping Pig's
//! `JobControlCompiler` submits in, §6.1). Each wave goes through three
//! phases:
//!
//! 1. **prepare** (serialized, cheap): per job — rewrite Loads of outputs
//!    that earlier skipped jobs aliased away, lineage-expand the plan and
//!    repeatedly match/rewrite it against the repository (§3), skip the
//!    job entirely when rewriting reduced it to a pure copy, and inject
//!    sub-job Stores per the active heuristic (§4);
//! 2. **execute** (parallel): all surviving jobs of the wave run
//!    concurrently on the MapReduce engine via `std::thread::scope` —
//!    Equation (1) already models a workflow's makespan as its slowest
//!    dependency chain, and wave-parallel execution realizes it;
//! 3. **register** (serialized, in job-index order): outputs, plans, and
//!    statistics enter the repository and the provenance table (§2.2),
//!    and the §5 selection rules are applied.
//!
//! The repository and provenance table are published as **RCU
//! snapshots** (see [`crate::rcu`] and [`crate::repository`]), and every
//! public entry point takes `&self`, so **many threads can submit queries
//! against one warmed repository**. The match path never waits on a
//! writer's clone, mutation or `after`: each match attempt grabs the
//! current repository snapshot and provenance snapshot once (a pointer
//! copy each, see [`crate::rcu`]) and works against them — candidate
//! filtering, path resolution, and the scan budget all come from the
//! snapshot — while reuse accounting (`use_count` / `last_used`) is
//! carried by atomics shared across snapshots, so a match publishes
//! nothing and enters no writer section (`publish_count` proves it).
//! Entry registration (batched per wave) and eviction sweeps serialize
//! among themselves and publish new snapshots; a reader is behind them
//! for one pointer swap at most.
//! Job execution itself holds no lock at all, so long-running jobs never
//! block matching in other sessions; outputs matched for reuse are
//! pinned (see [`crate::pin`]) so a concurrent sweep cannot delete them
//! mid-flight. Because a match can be made against a snapshot that a
//! concurrent sweep has already superseded, the match loop **pins, then
//! revalidates** the matched entry against a fresh snapshot before
//! using it (see [`ReStore`]'s match loop for the race argument).
//!
//! Reuse state is kept **per tenant**: each tenant submitted through the
//! `_as` entry points gets its own repository/provenance/pin namespace,
//! so reuse, candidate materialization, and eviction never cross
//! tenants. The tenant-less API uses the default namespace.

use crate::enumerator::{inject_subjob_stores, Candidate, Heuristic};
use crate::journal::{self, Journal, JournalConfig, JournalStats, Record, RecoveryReport};
use crate::obs::{Obs, ReuseDecision, ReuseTraceEvent, SpaceMetrics};
use crate::pin::PinSet;
use crate::provenance::Provenance;
use crate::rcu::Rcu;
use crate::repository::{MatchProbe, RepoBatch, RepoOp, RepoSnapshot, RepoStats, Repository};
use crate::rewriter::{apply_aliases, identity_copy};
use crate::selector::SelectionPolicy;
use parking_lot::{Mutex, RwLock};
use restore_common::{Error, Result};
use restore_dataflow::exec::{job_io, job_spec_for_plan};
use restore_dataflow::mr_compiler::{CompiledWorkflow, WorkflowIoPaths};
use restore_dataflow::physical::PhysicalPlan;
use restore_dfs::Dfs;
use restore_mapreduce::{workflow, Engine, JobResult, JobSpec};
use restore_telemetry::Registry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

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
    /// Delete inter-job temporary files after the workflow finishes —
    /// "the current practice" ReStore abolishes. Enabled for plain-Pig
    /// baselines, disabled when ReStore manages outputs.
    pub delete_tmp: bool,
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
    /// retries with backoff, dead-lettering, and the per-tenant circuit
    /// breaker (see [`crate::failure`]). The driver itself only
    /// carries and persists the policy; enforcement lives in
    /// `restore-service`. The default (fail-fast, breaker off) is the
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
            delete_tmp: false,
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
            delete_tmp: true,
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

/// Summary of the repository and reuse activity (see [`ReStore::stats`]).
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
    pub provenance_entries: usize,
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
    engine: Engine,
    /// The default namespace: repository, provenance, and pins used by
    /// tenant-less submissions (and by the legacy single-tenant API).
    space: Arc<Space>,
    /// Per-tenant namespaces, created lazily on first use. A tenant's
    /// matching, registration, and eviction sweeps only ever touch its
    /// own space, so tenants cannot observe (or delete) each other's
    /// outputs. RCU-published like the tables themselves: a lookup is
    /// a snapshot load, creation (rare) publishes a new map.
    tenants: Rcu<HashMap<String, Arc<Space>>>,
    config: RwLock<ReStoreConfig>,
    /// Query counter = the logical clock for usage statistics. Shared by
    /// all tenants (one clock, many namespaces).
    tick: AtomicU64,
    cand_counter: AtomicU64,
    /// The snapshot journal behind incremental checkpoints (see
    /// [`crate::journal`]); disabled until [`ReStore::enable_journal`].
    journal: Arc<Journal>,
    /// Session observability: the metric registry, per-stage span
    /// histograms, and the reuse-decision trace ring (see [`crate::obs`]).
    obs: Obs,
    /// Tenant keys (`""` = the default namespace) whose circuit breaker
    /// was open at the last [`ReStore::note_breaker_state`] transition.
    /// Journaled as `breaker-state` records, so a promoted warm standby
    /// seeds its scheduler with the primary's open breakers instead of
    /// admitting a thundering herd at a tenant that was shedding.
    open_breakers: Mutex<std::collections::BTreeSet<String>>,
}

/// One isolated repository namespace: the §2.2 repository, its
/// provenance table, the pin set protecting its in-flight matches, and
/// the tenant's policy override (`None` = follow the global default).
///
/// Both tables are RCU-published: readers load snapshots without
/// waiting on a writer section, mutators serialize internally. When a mutation spans both tables
/// (wave registration, overwrite invalidation, restore), the writer
/// sides are entered **provenance first, repository second** —
/// one fixed order, so cross-table writers can never deadlock.
#[derive(Debug, Default)]
pub(crate) struct Space {
    pub(crate) repo: Repository,
    pub(crate) prov: Rcu<Provenance>,
    pub(crate) pins: PinSet,
    /// The tenant's policy override, RCU-published so the per-query
    /// read on the execution path is a snapshot load like every other
    /// shared map in the session.
    pub(crate) config: Rcu<Option<ReStoreConfig>>,
    /// Per-namespace match metrics (hits/misses/latency).
    /// Registered against the session registry for namespaces the
    /// driver creates; the detached placeholder `space_snapshot` hands
    /// out for unknown tenants records into the void.
    pub(crate) metrics: SpaceMetrics,
    /// The namespace's dead-letter queue, always held in id order.
    /// Mutations journal inside this lock so record order equals
    /// application order (the same discipline repository batches use).
    pub(crate) dlq: Mutex<Vec<crate::dlq::DlqEntry>>,
}

impl Space {
    /// A fresh namespace with its match metrics registered under
    /// `tenant` in the session registry.
    fn registered(registry: &Registry, tenant: &str) -> Self {
        Space { metrics: SpaceMetrics::registered(registry, tenant), ..Default::default() }
    }
}

/// Pins taken by one in-flight workflow. Dropping the guard releases
/// them and performs any file deletions a sweep deferred in the
/// meantime.
struct PinGuard {
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

    /// Release the most recently taken pin (a speculative match that made
    /// no structural progress).
    fn unpin_last(&mut self) {
        if let Some(p) = self.paths.pop() {
            let dfs = &self.dfs;
            self.space.pins.unpin(&p, || {
                dfs.delete(&p);
            });
        }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        for p in &self.paths {
            let dfs = &self.dfs;
            self.space.pins.unpin(p, || {
                dfs.delete(p);
            });
        }
    }
}

/// Do the DFS footprints of two workflows interfere? True when either
/// writes a path the other reads or writes. The cross-workflow scheduler
/// of `restore-service` only overlaps workflows for which this probe
/// returns `false`; such workflows cannot observe each other's files, so
/// any interleaving of their jobs produces the same bytes as running
/// them back to back.
pub fn footprints_conflict(a: &WorkflowIoPaths, b: &WorkflowIoPaths) -> bool {
    !a.disjoint(b)
}

/// A wave job that survived matching and is ready to execute.
struct PreparedJob {
    idx: usize,
    plan: PhysicalPlan,
    candidates: Vec<Candidate>,
    spec: JobSpec,
}

/// Outcome of preparing one job of a wave.
enum Prepared {
    /// Rewriting reduced the job to a pure copy; its output is aliased.
    Skipped {
        dst: String,
    },
    Run(Box<PreparedJob>),
}

impl ReStore {
    pub fn new(engine: Engine, config: ReStoreConfig) -> Self {
        let obs = Obs::new();
        ReStore {
            engine,
            space: Arc::new(Space::registered(&obs.registry, "")),
            tenants: Rcu::new(HashMap::new()),
            config: RwLock::new(config),
            tick: AtomicU64::new(0),
            cand_counter: AtomicU64::new(0),
            journal: Arc::new(Journal::default()),
            obs,
            open_breakers: Mutex::new(std::collections::BTreeSet::new()),
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

    /// Turn on the snapshot journal: from here on, every structural
    /// mutation (wave registrations, evictions, provenance changes,
    /// tenant/config changes) is recorded, reuse counters are
    /// dirty-tracked, and [`ReStore::save_state_delta`] captures cheap
    /// deltas. Take a base checkpoint ([`ReStore::save_state`]) *after*
    /// enabling — mutations from before the journal was on are only in
    /// the base, never in a delta.
    pub fn enable_journal(&self, config: JournalConfig) {
        self.journal.enable(config);
        Self::wire_space(&self.journal, "", &self.space);
        // Wire existing tenants inside the tenant map's writer section:
        // tenant creation serializes on the same writer, so a namespace
        // racing this enable either is in the map when the closure runs
        // (wired here) or is created by a later-serialized `space_for`
        // whose `make_space` reads `enabled() == true` (wired there).
        // Wiring from a plain `load()` would let a concurrently created
        // space slip through both checks and journal nothing, silently.
        self.tenants.update(|m| {
            for (name, space) in m.iter() {
                Self::wire_space(&self.journal, name, space);
            }
        });
    }

    /// Is the snapshot journal recording?
    pub fn journal_enabled(&self) -> bool {
        self.journal.enabled()
    }

    /// Journal introspection (sequence number, buffered bytes).
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Journal records appended since the last delta capture — what a
    /// crash right now would have to replay from the live buffer.
    pub fn journal_seq_lag(&self) -> u64 {
        self.journal.seq_lag()
    }

    /// Install the journal sink on a namespace's repository so its
    /// batches emit `repo-batch` records at publish time.
    fn wire_space(journal: &Arc<Journal>, name: &str, space: &Space) {
        let j = journal.clone();
        let n = name.to_string();
        space
            .repo
            .set_journal_sink(Some(Arc::new(move |ops: &[RepoOp]| j.append_repo_batch(&n, ops))));
    }

    /// A fresh namespace, journal-wired when the journal is on.
    fn make_space(&self, name: &str) -> Arc<Space> {
        let space = Arc::new(Space::registered(&self.obs.registry, name));
        if self.journal.enabled() {
            Self::wire_space(&self.journal, name, &space);
        }
        space
    }

    /// An empty tenant name means the default namespace — the same
    /// normalization the service applies at admission, so the two layers
    /// always agree on which namespace (and which policy) serves a
    /// submission.
    fn normalize(tenant: Option<&str>) -> Option<&str> {
        tenant.filter(|t| !t.is_empty())
    }

    /// The namespace serving `tenant` (`None` = the default namespace),
    /// created on first use. Only execution paths call this; read-only
    /// introspection uses [`ReStore::space_snapshot`] so probing an
    /// unknown tenant never leaks an empty namespace into the map.
    fn space_for(&self, tenant: Option<&str>) -> Arc<Space> {
        let Some(t) = Self::normalize(tenant) else {
            return self.space.clone();
        };
        // Fast path, no writer section: the tenant already has a namespace.
        if let Some(s) = self.tenants.load().get(t) {
            return s.clone();
        }
        let mut created = false;
        let space = self.tenants.update(|m| {
            m.entry(t.to_string())
                .or_insert_with(|| {
                    created = true;
                    self.make_space(t)
                })
                .clone()
        });
        if created {
            // Belt and braces for replay: records touching the space
            // auto-create it, but a tenant whose only state is a config
            // override needs the creation on record. Ordering with a
            // racing first mutation of the space is harmless — replay's
            // auto-creation makes the record idempotent.
            self.journal.append_tenant_create(t);
        }
        space
    }

    /// The tenant's namespace for read-only access: an unknown tenant
    /// gets a detached empty space (reported as zero entries) instead of
    /// being created.
    fn space_snapshot(&self, tenant: Option<&str>) -> Arc<Space> {
        let Some(t) = Self::normalize(tenant) else {
            return self.space.clone();
        };
        self.tenants.load().get(t).cloned().unwrap_or_default()
    }

    /// Could a rewritten job in *any* namespace be served from `path`?
    /// True when some namespace's provenance records a producing plan
    /// for it. The service's cross-workflow scheduler refuses to overlap
    /// a workflow that writes such a path with any other submission:
    /// reuse rewriting can introduce Loads of registered paths that the
    /// submit-time footprint cannot see.
    pub fn serves_path(&self, path: &str) -> bool {
        // Wait-free provenance snapshots: the scheduler probes this per
        // queued workflow, so it must never sit behind a registration.
        if self.space.prov.load().contains(path) {
            return true;
        }
        self.tenants.load().values().any(|s| s.prov.load().contains(path))
    }

    /// Every namespace with its name: the default space (`""`) plus all
    /// tenant spaces.
    fn all_spaces(&self) -> Vec<(String, Arc<Space>)> {
        let mut spaces = vec![(String::new(), self.space.clone())];
        spaces.extend(self.tenants.load().iter().map(|(k, v)| (k.clone(), v.clone())));
        spaces
    }

    /// A wave just (over)wrote these DFS paths. Any repository entry —
    /// in *any* namespace — recorded as producing one of them now points
    /// at foreign bytes: serving it would return the overwriting
    /// workflow's data (a wrong answer, and across namespaces a
    /// cross-tenant leak). Evict such entries and drop their provenance
    /// records; the files themselves are left alone — they hold the new
    /// workflow's live output.
    fn invalidate_overwritten(&self, written: &[String]) {
        for (name, space) in self.all_spaces() {
            // Cheap snapshot probe first: fresh output paths are almost
            // never registered anywhere.
            let hit = {
                let prov = space.prov.load();
                written.iter().any(|p| prov.contains(p))
            } || {
                let repo = space.repo.snapshot();
                repo.entries().iter().any(|e| written.contains(&e.output_path))
            };
            if !hit {
                continue;
            }
            // Writer order: provenance before repository (see [`Space`]).
            // The repository evictions journal themselves through the
            // batch sink; the provenance forgets are journaled here, in
            // the writer section, once the update has published.
            space.prov.update_then(
                |prov| {
                    let mut forgets = Vec::new();
                    space.repo.batch(|repo| {
                        for p in written {
                            let stale: Vec<u64> = repo
                                .pending_entries()
                                .filter(|e| &e.output_path == p)
                                .map(|e| e.id)
                                .collect();
                            for id in stale {
                                repo.evict(id);
                            }
                            if prov.contains(p) {
                                prov.forget(p);
                                forgets.push(p.clone());
                            }
                        }
                    });
                    forgets
                },
                |forgets| self.journal.append_prov_batch(&name, &[], &forgets),
            );
        }
    }

    /// Tenants that have a namespace (sorted; the default namespace is
    /// not listed).
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.tenants.load().keys().cloned().collect();
        ids.sort();
        ids
    }

    /// The current snapshot of the default-namespace repository:
    /// immutable, safe to hold — later registrations and
    /// evictions publish new snapshots and never mutate this one.
    pub fn repository(&self) -> Arc<RepoSnapshot> {
        self.space.repo.snapshot()
    }

    /// Run `f` against a tenant's repository (`None` = the default
    /// namespace). The handle's read methods enter no writer section.
    pub fn with_repository_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&Repository) -> R,
    ) -> R {
        let space = self.space_snapshot(tenant);
        f(&space.repo)
    }

    /// Run `f` against a tenant's repository with mutation intent.
    /// Since the repository is interior-concurrent, the handle has the
    /// same capabilities as [`ReStore::with_repository_as`]; the one
    /// behavioral difference is that this variant **creates the
    /// namespace if absent** (`None` = the default namespace), where
    /// the read variant hands an unknown tenant a detached empty space.
    /// Mutations made through the handle serialize with registration
    /// and sweeps but never block matching.
    pub fn with_repository_mut_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&Repository) -> R,
    ) -> R {
        let space = self.space_for(tenant);
        f(&space.repo)
    }

    /// Run `f` with a snapshot of a tenant's provenance table (`None` =
    /// the default namespace).
    pub fn with_provenance_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&Provenance) -> R,
    ) -> R {
        let space = self.space_snapshot(tenant);
        let prov = space.prov.load();
        f(&prov)
    }

    /// Run `f` with mutable access to a copy of a tenant's provenance
    /// table, publishing the result (`None` = the default namespace;
    /// the namespace is created if absent). An arbitrary mutation has
    /// no op-level record, so with the journal on the whole resulting
    /// table is journaled as one `prov-replace` record.
    pub fn with_provenance_mut_as<R>(
        &self,
        tenant: Option<&str>,
        f: impl FnOnce(&mut Provenance) -> R,
    ) -> R {
        let space = self.space_for(tenant);
        let name = Self::normalize(tenant).unwrap_or("").to_string();
        space.prov.update_then(
            |prov| {
                let r = f(prov);
                // Sample the journal *inside* the writer section: a
                // `checkpoint_begin` racing this call either captured
                // its base before we entered (then `active()` is
                // already true here and the mutation is journaled) or
                // its base capture freezes behind this writer section
                // and includes the mutation. Sampling before the
                // section could read `false`, then lose the mutation
                // to a base captured in the gap.
                let table = if self.journal.active() { Some(prov.save()) } else { None };
                (r, table)
            },
            |(r, table)| {
                if let Some(t) = table {
                    self.journal.append_prov_replace(&name, &t);
                }
                r
            },
        )
    }

    /// Snapshot of the global (default) configuration.
    pub fn config(&self) -> ReStoreConfig {
        self.config.read().clone()
    }

    /// Change the global configuration between queries (experiments flip
    /// reuse and heuristics while keeping the warmed repository).
    /// Queries already in flight keep the configuration they started
    /// with; tenants with an override (see [`ReStore::set_config_as`])
    /// are unaffected.
    pub fn set_config(&self, config: ReStoreConfig) {
        let mut guard = self.config.write();
        // Journal while still holding the write guard, so record order
        // matches application order under racing setters.
        self.journal.append_global_config(&config);
        *guard = config;
    }

    /// The effective configuration for `tenant`: its override when one
    /// is set, the global default otherwise (`None` or an empty name =
    /// the default namespace, which always follows the global config).
    pub fn config_as(&self, tenant: Option<&str>) -> ReStoreConfig {
        match Self::normalize(tenant) {
            None => self.config(),
            Some(_) => {
                let space = self.space_snapshot(tenant);
                let override_cfg = (*space.config.load()).clone();
                override_cfg.unwrap_or_else(|| self.config())
            }
        }
    }

    /// Set a tenant's policy override: that tenant's queries now run
    /// with `config` — heuristic, §5 selection, eviction sweeps, quotas
    /// — independent of the global default. With `tenant = None` (or an
    /// empty name) this sets the global configuration itself. Queries
    /// already in flight keep the configuration they started with.
    pub fn set_config_as(&self, tenant: Option<&str>, config: ReStoreConfig) {
        match Self::normalize(tenant) {
            None => self.set_config(config),
            Some(t) => {
                let space = self.space_for(tenant);
                space.config.update_then(
                    |c| *c = Some(config.clone()),
                    |_| self.journal.append_tenant_config(t, Some(&config)),
                );
            }
        }
    }

    /// Drop a tenant's policy override; its queries follow the global
    /// default again. A no-op for unknown tenants and for the default
    /// namespace.
    pub fn clear_config_as(&self, tenant: &str) {
        if let Some(space) = self.tenants.load().get(tenant) {
            space
                .config
                .update_then(|c| *c = None, |_| self.journal.append_tenant_config(tenant, None));
        }
    }

    /// Record a circuit-breaker transition for a tenant (`None` / `""`
    /// = the default namespace): `open = true` when the breaker starts
    /// shedding, `false` when it closes again. Deduplicated and
    /// journaled inside the set's lock — record order equals
    /// application order — so a warm standby replaying the journal
    /// converges on the primary's open set and seeds it into its own
    /// scheduler at promotion (see `RestoreService`).
    pub fn note_breaker_state(&self, tenant: Option<&str>, open: bool) {
        let key = Self::normalize(tenant).unwrap_or("");
        let mut set = self.open_breakers.lock();
        let changed = if open { set.insert(key.to_string()) } else { set.remove(key) };
        if changed {
            self.journal.append_breaker_state(key, open);
        }
    }

    /// Tenant keys (`""` = the default namespace) whose breaker was
    /// open at the last noted transition, sorted.
    pub fn open_breaker_keys(&self) -> Vec<String> {
        self.open_breakers.lock().iter().cloned().collect()
    }

    /// Park a failed submission in the tenant's dead-letter queue and
    /// return the durable entry. The entry id is namespace-monotonic
    /// (max + 1, so the queue is always in id order) and the put is
    /// journaled inside the queue's lock — record order equals
    /// application order, and the entry survives crash-recovery,
    /// checkpoint compaction, and shipment to standbys.
    pub fn dlq_put_as(
        &self,
        tenant: Option<&str>,
        wf: CompiledWorkflow,
        error: &str,
        attempts: u32,
    ) -> crate::dlq::DlqEntry {
        let name = Self::normalize(tenant).unwrap_or("");
        let space = self.space_for(tenant);
        // Effective policy read before taking the queue lock (the
        // config load holds nothing once it returns; no lock-order edge
        // is created).
        let policy = (*space.config.load()).clone().unwrap_or_else(|| self.config()).failure;
        let mut q = space.dlq.lock();
        let entry = crate::dlq::DlqEntry {
            id: q.last().map_or(1, |e| e.id + 1),
            attempts,
            tick: self.tick.load(Ordering::SeqCst),
            error: error.to_string(),
            wf,
        };
        q.push(entry.clone());
        self.journal.append_dlq_put(name, &entry);
        // Enforce the tenant's bounds while still holding the queue
        // lock: age-expire first, then evict oldest past the size cap.
        // Evictions are journaled as an ack *after* the put record, so
        // replay converges on exactly this queue.
        let mut evicted: Vec<u64> = Vec::new();
        if policy.dlq_max_age_ticks > 0 {
            let now = entry.tick;
            q.retain(|e| {
                if now.saturating_sub(e.tick) > policy.dlq_max_age_ticks {
                    evicted.push(e.id);
                    false
                } else {
                    true
                }
            });
        }
        if policy.dlq_max_entries > 0 {
            while q.len() > policy.dlq_max_entries {
                evicted.push(q.remove(0).id);
            }
        }
        self.journal.append_dlq_ack(name, &evicted);
        entry
    }

    /// The tenant's dead-letter queue, in id (= arrival) order. An
    /// unknown tenant has an empty queue.
    pub fn dlq_entries_as(&self, tenant: Option<&str>) -> Vec<crate::dlq::DlqEntry> {
        self.space_snapshot(tenant).dlq.lock().clone()
    }

    /// Remove entries by id from the tenant's dead-letter queue and
    /// return the removed entries (unknown ids are skipped). The ack is
    /// journaled — with exactly the ids actually removed — inside the
    /// queue's lock, so replay never un-parks an entry twice.
    pub fn dlq_ack_as(&self, tenant: Option<&str>, ids: &[u64]) -> Vec<crate::dlq::DlqEntry> {
        let name = Self::normalize(tenant).unwrap_or("");
        let space = self.space_snapshot(tenant);
        let mut q = space.dlq.lock();
        let mut removed = Vec::new();
        q.retain(|e| {
            if ids.contains(&e.id) {
                removed.push(e.clone());
                false
            } else {
                true
            }
        });
        if !removed.is_empty() {
            let removed_ids: Vec<u64> = removed.iter().map(|e| e.id).collect();
            self.journal.append_dlq_ack(name, &removed_ids);
        }
        removed
    }

    /// Depth of the tenant's dead-letter queue.
    pub fn dlq_depth_as(&self, tenant: Option<&str>) -> usize {
        self.space_snapshot(tenant).dlq.lock().len()
    }

    /// Dead-letter depth of **every** namespace (the default namespace
    /// is named `""`), sorted by name — the telemetry scrape's view, so
    /// `restore_dlq_depth` always reports every live namespace, zeros
    /// included.
    pub fn dlq_depths(&self) -> Vec<(String, usize)> {
        let mut depths: Vec<(String, usize)> =
            self.all_spaces().iter().map(|(n, s)| (n.clone(), s.dlq.lock().len())).collect();
        depths.sort_by(|a, b| a.0.cmp(&b.0));
        depths
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
    pub fn compile_as(
        &self,
        tenant: Option<&str>,
        text: &str,
        out_prefix: &str,
    ) -> Result<CompiledWorkflow> {
        let config = self.config_as(tenant);
        self.obs.stage.compile.time(|| {
            if config.canonicalize {
                let (wf, timings) = restore_dataflow::compile_canonical(text, out_prefix)?;
                self.obs.record_canon(&timings);
                Ok(wf)
            } else {
                restore_dataflow::compile(text, out_prefix)
            }
        })
    }

    /// Execute a compiled workflow of MapReduce jobs through ReStore, in
    /// the default namespace.
    pub fn execute_workflow(&self, wf: CompiledWorkflow) -> Result<QueryExecution> {
        self.execute_workflow_as(None, wf)
    }

    /// Execute a compiled workflow in a tenant's namespace (see
    /// [`ReStore::execute_query_as`]).
    ///
    /// **Precondition for canonical matching.** The job plans are
    /// matched in the form they arrive in: with
    /// [`ReStoreConfig::canonicalize`] on, only a job whose Loads an
    /// alias rewrote is put through the analyzer again. A workflow from
    /// [`ReStore::compile_as`] under the same configuration is already
    /// canonical; one built elsewhere (`restore_dataflow::compile`, a
    /// dead-letter entry parked while `canonicalize` was off) still
    /// returns the right answer, but matches — and registers its
    /// candidates — in its own uncanonical form.
    pub fn execute_workflow_as(
        &self,
        tenant: Option<&str>,
        wf: CompiledWorkflow,
    ) -> Result<QueryExecution> {
        let tick = self.tick.fetch_add(1, Ordering::SeqCst) + 1;
        let space = self.space_for(tenant);
        let space_name = Self::normalize(tenant).unwrap_or("");
        // The submitting tenant's policy governs this execution end to
        // end: reuse, heuristic, §5 selection, sweeps, and candidate
        // placement all read this snapshot.
        let config = (*space.config.load()).clone().unwrap_or_else(|| self.config());
        // Pins taken at match time live until the whole workflow (whose
        // later waves may Load the matched outputs) has executed.
        let mut pins = PinGuard::new(space.clone(), self.engine.dfs().clone());

        // Eviction sweep (§5 rules 3–4) runs *before* matching so stale
        // entries (expired window, modified/deleted inputs) are never
        // reused in this workflow.
        let sweep_t0 = Instant::now();
        config.selection.sweep(&space.repo, self.engine.dfs(), &space.pins, tick);
        {
            // Wait-free probe; only publish a new provenance snapshot
            // when something actually died.
            let dfs = self.engine.dfs();
            let dead: Vec<String> = {
                let prov = space.prov.load();
                prov.iter_paths().filter(|p| !dfs.exists(p)).map(|p| p.to_string()).collect()
            };
            if !dead.is_empty() {
                space.prov.update_then(
                    |prov| {
                        for p in &dead {
                            prov.forget(p);
                        }
                    },
                    |()| self.journal.append_prov_batch(space_name, &[], &dead),
                );
            }
        }
        self.obs.stage.sweep.record_elapsed(sweep_t0);

        let n = wf.jobs.len();
        let deps = wf.deps();
        let waves = workflow::waves(&deps)?;

        let mut aliases: HashMap<String, String> = HashMap::new();
        let mut et = vec![0.0f64; n];
        let mut job_results = Vec::new();
        let mut rewrites = Vec::new();
        let mut jobs_skipped = 0;
        let mut stored_candidate_bytes = 0u64;
        let mut candidates_stored = 0usize;
        let mut final_output = String::new();

        for wave in waves {
            // ---- Phase 1: prepare (match, rewrite, skip, instrument) ----
            // Jobs within a wave are independent — a skipped job's alias
            // can only affect consumers, which sit in later waves — so
            // preparing them in index order keeps rewrite bookkeeping
            // deterministic without constraining execution.
            let mut prepared: Vec<PreparedJob> = Vec::new();
            // Outputs produced this wave, keyed by job index: the
            // highest-index job defines `final_output`, exactly as the
            // strict Algorithm-1 topo order (which ends each wave on its
            // highest index) would have left it.
            let mut wave_outputs: Vec<(usize, String)> = Vec::new();
            let prepare_t0 = Instant::now();
            for &idx in &wave {
                let prep = self.prepare_job(
                    &space,
                    tenant,
                    &wf,
                    idx,
                    tick,
                    &config,
                    &mut aliases,
                    &mut rewrites,
                    &mut pins,
                )?;
                match prep {
                    Prepared::Skipped { dst } => {
                        jobs_skipped += 1;
                        et[idx] = 0.0;
                        wave_outputs.push((idx, resolve_alias(&aliases, &dst)));
                    }
                    Prepared::Run(job) => prepared.push(*job),
                }
            }
            self.obs.stage.prepare.record_elapsed(prepare_t0);

            // ---- Phase 2: execute the wave, concurrently ----
            let execute_t0 = Instant::now();
            let specs: Vec<&JobSpec> = prepared.iter().map(|p| &p.spec).collect();
            let results = self.engine.run_wave(&specs, config.wave_parallel)?;
            self.obs.stage.execute.record_elapsed(execute_t0);

            // ---- Phase 3: register outputs (§2.2) and apply §5 rules ----
            let register_t0 = Instant::now();
            let mut wave_written: Vec<String> = Vec::new();
            for (job, result) in prepared.iter().zip(&results) {
                et[job.idx] = result.times.total_s;
                wave_outputs.push((job.idx, result.output.clone()));
                wave_written.push(result.output.clone());
                wave_written.extend(result.side_outputs.iter().cloned());
                // A later wave of this workflow Loads this inter-job
                // temporary. Registration (below) makes it evictable, so
                // pin it first — otherwise a concurrent session's strict
                // sweep could delete it before its consumer executes.
                if wf.tmp_paths.contains(&result.output) {
                    pins.pin(&result.output);
                }
            }
            // Overwriting a registered path stales every entry that
            // recorded the old bytes; invalidate before registering the
            // new ones.
            if !wave_written.is_empty() {
                self.invalidate_overwritten(&wave_written);
            }
            // The whole wave's registrations land as one published
            // provenance snapshot and one published repository snapshot
            // (in job-index order), instead of a publish per job:
            // concurrent sessions see the wave land atomically, and the
            // writer side is entered O(waves) instead of O(jobs) times.
            // Readers keep matching against the previous snapshots
            // throughout — registration never blocks the match path.
            let manage_outputs = config.reuse_enabled || config.heuristic != Heuristic::None;
            if manage_outputs && !prepared.is_empty() {
                // Writer order: provenance before repository (see
                // [`Space`]). The repository batch journals itself at
                // publish; the wave's provenance registrations are
                // journaled here as one `prov-batch` record — both
                // inside the provenance writer section, so journal
                // order equals publish order.
                let registered: Result<Vec<(u64, usize)>> = space.prov.update_then(
                    |prov| {
                        let mut registers: Vec<(String, Arc<PhysicalPlan>)> = Vec::new();
                        let result = space.repo.batch(|repo| {
                            prepared
                                .iter()
                                .zip(&results)
                                .map(|(job, result)| {
                                    self.register_outputs_batched(
                                        prov,
                                        repo,
                                        &space.pins,
                                        &wf,
                                        job,
                                        result,
                                        tick,
                                        &config,
                                        &mut registers,
                                    )
                                })
                                .collect()
                        });
                        (result, registers)
                    },
                    |(result, registers)| {
                        self.journal.append_prov_batch(space_name, &registers, &[]);
                        result
                    },
                );
                for (cand_bytes, cand_stored) in registered? {
                    stored_candidate_bytes += cand_bytes;
                    candidates_stored += cand_stored;
                }
            }
            self.obs.stage.register.record_elapsed(register_t0);
            job_results.extend(results);
            if let Some((_, out)) = wave_outputs.into_iter().max_by_key(|(idx, _)| *idx) {
                final_output = out;
            }
        }

        // ---- plain-Pig tmp cleanup ----
        if config.delete_tmp {
            for tmp in &wf.tmp_paths {
                // Honour pins even here: a hand-built config combining
                // delete_tmp with reuse could otherwise delete a tmp
                // that a concurrent session matched and pinned.
                if !space.pins.defer_delete(tmp) {
                    self.engine.dfs().delete(tmp);
                }
            }
        }

        // The caller is handed `final_output` to read; if it aliases a
        // pinned repository path that a sweep evicted mid-flight, leave
        // the file on the DFS instead of deleting it under the reader.
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

    /// Phase 1 for one job: alias rewriting, the §3 match loop, whole-job
    /// elimination, and §4 sub-job instrumentation.
    #[allow(clippy::too_many_arguments)]
    fn prepare_job(
        &self,
        space: &Space,
        tenant: Option<&str>,
        wf: &CompiledWorkflow,
        idx: usize,
        tick: u64,
        config: &ReStoreConfig,
        aliases: &mut HashMap<String, String>,
        rewrites: &mut Vec<RewriteEvent>,
        pins: &mut PinGuard,
    ) -> Result<Prepared> {
        let mut plan = wf.jobs[idx].plan.clone();
        // Re-canonicalize after alias rewriting: aliasing two Loads to
        // the same reused path can expose common subtrees that did not
        // exist at compile time. A plan no alias touched is still the
        // fixpoint `compile_as` produced, so the analyzer is skipped.
        if apply_aliases(&mut plan, aliases) && config.canonicalize {
            let timings = restore_dataflow::analyzer::canonicalize_timed(&mut plan);
            self.obs.record_canon(&timings);
        }

        let mut job_rewrites = 0usize;
        if config.reuse_enabled {
            let space_name = Self::normalize(tenant).unwrap_or("");
            self.match_loop(
                space,
                &mut plan,
                tick,
                space_name,
                idx,
                Some(pins),
                |entry_id, reused_path| {
                    rewrites.push(RewriteEvent {
                        job: idx,
                        entry_id,
                        reused_path: reused_path.to_string(),
                        whole_job: false,
                    });
                    job_rewrites += 1;
                },
            );
        }

        // Whole-job elimination: the rewrite reduced the job to a copy.
        if job_rewrites > 0 {
            if let Some((src, dst)) = identity_copy(&plan) {
                aliases.insert(dst.clone(), src);
                if let Some(ev) = rewrites.last_mut() {
                    ev.whole_job = true;
                }
                return Ok(Prepared::Skipped { dst });
            }
        }

        // Sub-job enumeration (§4). Candidate outputs are keyed under the
        // tenant's prefix so namespaces never share materialized files.
        let candidates: Vec<Candidate> = if config.heuristic != Heuristic::None {
            let prov = space.prov.load();
            let repo = space.repo.snapshot();
            let prefix = match tenant {
                Some(t) => format!("{}/{t}", config.repo_prefix),
                None => config.repo_prefix.clone(),
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
                    let base = prov.expand(candidate).plan;
                    repo.contains_plan(&base).is_some()
                },
            )
        } else {
            Vec::new()
        };

        let spec = job_spec_for_plan(&plan, &format!("q{tick}-job{idx}"))?;
        Ok(Prepared::Run(Box::new(PreparedJob { idx, plan, candidates, spec })))
    }

    /// The §3 loop: repeatedly lineage-expand the plan, take the first
    /// repository match whose rewrite changes it, and rewrite — one
    /// probe per applied rewrite, plus the probe that comes back empty.
    /// Sites whose rewrite would only collapse back into lineage the
    /// plan already Loads are vetoed at probe time
    /// ([`crate::provenance::ExpandedPlan::collapses_back`]), and a plan
    /// reduced to a `Load → Store` copy is answered in full, so the loop
    /// stops there. No writer section anywhere: each iteration loads the
    /// current repository and provenance snapshots (a pointer copy
    /// each), and reuse statistics are recorded through the entries'
    /// shared atomics;
    /// `on_match` runs after each applied rewrite. With `pins` present
    /// (a real execution, not a dry run), the reused output is pinned
    /// against concurrent eviction until the workflow finishes.
    ///
    /// **Pin-then-revalidate.** A match can be found in a snapshot that
    /// a concurrent sweep has already superseded — by the time we pin,
    /// the entry may be evicted and its file deleted (the sweep saw no
    /// pin). So after pinning we re-check the entry against a *fresh*
    /// snapshot: if it is still present, any later eviction must
    /// publish after this check, hence run its pin-checked file
    /// deletion after our pin is visible, and the deletion is deferred
    /// — the file is safe for the lifetime of the workflow. If it is
    /// gone, we unpin, skip the entry, and rescan. Eviction publishes
    /// the entry's removal **before** deleting the file (see
    /// `SelectionPolicy::sweep`), which is what makes the revalidation
    /// conclusive.
    #[allow(clippy::too_many_arguments)]
    fn match_loop(
        &self,
        space: &Space,
        plan: &mut PhysicalPlan,
        tick: u64,
        tenant: &str,
        job: usize,
        mut pins: Option<&mut PinGuard>,
        mut on_match: impl FnMut(u64, &str),
    ) {
        let loop_t0 = Instant::now();
        // Reuse decisions buffered locally and pushed to the trace ring
        // in one batch at the end — the loop itself touches no lock.
        let mut decisions: Vec<ReuseDecision> = Vec::new();
        let mut matched_any = false;
        // Every applied rewrite changes the plan (an operator becomes a
        // Load, or a Load moves to the entry that stores its data), so
        // the loop terminates on its own; the budget is the belt, and so
        // is `last`: a rewrite the probe-time veto should have stopped
        // would be found again at the same (entry, site), and is then
        // checked for a changed plan before it is applied a second time.
        let budget = 2 * plan.len() + 4 + 2 * space.repo.len();
        let mut last = None;
        // One probe for the whole loop, reset per iteration: its
        // candidate buffer is reused instead of reallocated.
        let mut probe = MatchProbe::default();
        for _ in 0..budget {
            let snapshot_t0 = Instant::now();
            let expanded = space.prov.load().expand(plan);
            let snap = space.repo.snapshot();
            self.obs.match_stage.snapshot_load.record_elapsed(snapshot_t0);
            probe.reset();
            let found = snap.find_first_match_probed(
                &expanded.plan,
                |e, site| expanded.collapses_back(site, &e.output_path),
                &mut probe,
            );
            self.obs.match_stage.index_probe.record(probe.probe_ns);
            for c in probe.candidates.iter().filter(|c| !c.matched) {
                decisions.push(ReuseDecision::CandidateFailedTraversal { entry_id: c.entry_id });
            }
            let Some((entry_id, m)) = found else {
                decisions.push(ReuseDecision::NoCandidates {
                    signatures_probed: probe.signatures_probed,
                });
                break;
            };
            let reused_path = snap.get(entry_id).expect("matched entry").output_path.clone();
            if let Some(p) = pins.as_deref_mut() {
                let pin_t0 = Instant::now();
                p.pin(&reused_path);
                // Revalidate against a fresh snapshot now that the pin
                // is visible (see the method docs). A vanished entry is
                // absent from every later snapshot, so the retry makes
                // progress; results are unchanged because the entry
                // could equally have been evicted a moment before our
                // first snapshot.
                let present = space.repo.snapshot().contains_id(entry_id);
                self.obs.match_stage.pin_revalidate.record_elapsed(pin_t0);
                if !present {
                    p.unpin_last();
                    decisions.push(ReuseDecision::RejectedPinRevalidation { entry_id });
                    continue;
                }
            }
            let before = cfg!(debug_assertions).then(|| plan.signature());
            let rewrite_t0 = Instant::now();
            let site = (entry_id, m.tip);
            let rewritten = expanded.rewrite(&m, &reused_path);
            self.obs.stage.rewrite.record_elapsed(rewrite_t0);
            debug_assert_ne!(Some(rewritten.signature()), before, "the probe let a no-op by");
            if last.replace(site) == Some(site) && rewritten.signature() == plan.signature() {
                if let Some(p) = pins.as_deref_mut() {
                    p.unpin_last();
                }
                break;
            }
            *plan = rewritten;
            matched_any = true;
            decisions.push(ReuseDecision::Matched { entry_id, reused_path: reused_path.clone() });
            if pins.is_some() {
                // Write-free reuse accounting: atomics shared by every
                // snapshot of the entry — never a repository lock.
                space.repo.note_use(entry_id, tick);
            }
            on_match(entry_id, &reused_path);
            if identity_copy(plan).is_some() {
                break; // the whole job is answered; nothing left to match
            }
        }
        self.obs.stage.match_loop.record_elapsed(loop_t0);
        // Per-namespace accounting and the trace ring only see real
        // executions; `explain_query` dry runs (no pins) stay invisible,
        // matching their no-side-effect contract.
        if pins.is_some() {
            space.metrics.latency.record_elapsed(loop_t0);
            if matched_any {
                space.metrics.hits.inc();
            } else {
                space.metrics.misses.inc();
            }
            self.obs.trace.extend(decisions.into_iter().map(|decision| ReuseTraceEvent {
                tick,
                tenant: tenant.to_string(),
                job,
                decision,
            }));
        }
    }

    /// Phase 3 for one executed job: register the whole-job entry, the
    /// candidate sub-job entries, and their provenance. The caller runs
    /// the whole wave inside one provenance update and one repository
    /// batch, both published when the wave completes, so concurrent
    /// sessions never observe a half-registered job (e.g. provenance
    /// without the repository entry) or a half-registered wave. Returns
    /// (bytes written by injected Stores, candidates kept).
    #[allow(clippy::too_many_arguments)]
    fn register_outputs_batched(
        &self,
        prov: &mut Provenance,
        repo: &mut RepoBatch<'_>,
        pins: &PinSet,
        wf: &CompiledWorkflow,
        job: &PreparedJob,
        result: &JobResult,
        tick: u64,
        config: &ReStoreConfig,
        registers: &mut Vec<(String, Arc<PhysicalPlan>)>,
    ) -> Result<(u64, usize)> {
        let io = job_io(&job.plan)?;
        let input_files = self.input_versions(&io.inputs);
        // Final outputs (not inter-job temporaries) are only registered
        // when configured; intermediate outputs are always candidates for
        // whole-job reuse (§2.1).
        let is_intermediate = wf.tmp_paths.contains(&io.main_output);
        let register_main = config.register_final_outputs || is_intermediate;

        let whole_prefix =
            job.plan.prefix_plan(find_store_tip(&job.plan, &io.main_output)?, &io.main_output);

        let mut stored_candidate_bytes = 0u64;
        let mut candidates_stored = 0usize;

        // Whole-job entry: the main output with the job's plan.
        let whole_base = prov.expand(&whole_prefix).plan;
        let whole_stats = RepoStats {
            input_bytes: result.counters.map_input_bytes,
            output_bytes: result.counters.output_bytes,
            job_time_s: result.times.total_s,
            avg_map_time_s: result.times.avg_map_task_s,
            avg_reduce_time_s: result.times.avg_reduce_task_s,
            use_count: 0,
            last_used: 0,
            created: tick,
            input_files: input_files.clone(),
        };
        if register_main && config.selection.should_keep(&whole_stats) {
            prov.register(&io.main_output, whole_base.clone());
            if let Some(plan) = prov.get_arc(&io.main_output) {
                registers.push((io.main_output.clone(), plan));
            }
            repo.insert(whole_base, &io.main_output, whole_stats);
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
            let bytes = if cand.already_stored && cand.store_path == io.main_output {
                result.counters.output_bytes
            } else {
                side_bytes(result, &cand.store_path)
            };
            stored_candidate_bytes += if cand.already_stored { 0 } else { bytes };
            let stats = RepoStats {
                input_bytes: result.counters.map_input_bytes,
                output_bytes: bytes,
                job_time_s: result.times.total_s,
                avg_map_time_s: result.times.avg_map_task_s,
                avg_reduce_time_s: result.times.avg_reduce_task_s,
                use_count: 0,
                last_used: 0,
                created: tick,
                input_files: input_files.clone(),
            };
            let base = prov.expand(&cand.prefix).plan;
            if config.selection.should_keep(&stats) {
                let outcome = repo.insert(base.clone(), &cand.store_path, stats);
                // A racing session (or a same-wave sibling prepared before
                // we registered) may have stored an equivalent plan under
                // another path; the repository keeps the first entry, so a
                // freshly materialized duplicate file would be orphaned.
                let orphaned = matches!(outcome, crate::repository::InsertOutcome::Duplicate(_))
                    && !cand.already_stored
                    && !prov.contains(&cand.store_path);
                if orphaned {
                    self.engine.dfs().delete(&cand.store_path);
                } else {
                    if !prov.contains(&cand.store_path) {
                        prov.register(&cand.store_path, base);
                        if let Some(plan) = prov.get_arc(&cand.store_path) {
                            registers.push((cand.store_path.clone(), plan));
                        }
                    }
                    pins.cancel_deferred(&cand.store_path);
                    candidates_stored += 1;
                }
            } else if !cand.already_stored {
                // Rejected by rules 1–2: drop the materialized file.
                self.engine.dfs().delete(&cand.store_path);
            }
        }
        Ok((stored_candidate_bytes, candidates_stored))
    }

    /// Dry-run a query: compile it and report what the repository would
    /// answer — without executing anything or mutating any state. The
    /// report lists, per job, the matches the §3 scan finds and whether
    /// the whole job would be eliminated.
    pub fn explain_query(&self, text: &str, out_prefix: &str) -> Result<String> {
        self.explain_query_as(None, text, out_prefix)
    }

    /// [`ReStore::explain_query`] against a tenant's namespace.
    pub fn explain_query_as(
        &self,
        tenant: Option<&str>,
        text: &str,
        out_prefix: &str,
    ) -> Result<String> {
        let space = self.space_snapshot(tenant);
        // Same compile the execution path would use, so the explanation
        // sees exactly the (canonicalized or not) plans execution would.
        let wf = self.compile_as(tenant, text, out_prefix)?;
        let mut report = String::new();
        {
            let repo = space.repo.snapshot();
            report.push_str(&format!(
                "workflow: {} job(s); repository: {} entr{}\n",
                wf.jobs.len(),
                repo.len(),
                if repo.len() == 1 { "y" } else { "ies" },
            ));
        }
        for (idx, job) in wf.jobs.iter().enumerate() {
            report.push_str(&format!(
                "job {idx} ({} operators{}):\n",
                job.plan.effective_len(),
                if job.deps.is_empty() {
                    String::new()
                } else {
                    format!(", depends on {:?}", job.deps)
                }
            ));
            // Same match loop as execution, against a scratch plan, with
            // usage statistics left untouched.
            let mut plan = job.plan.clone();
            let mut any = false;
            let space_name = Self::normalize(tenant).unwrap_or("");
            self.match_loop(
                &space,
                &mut plan,
                0,
                space_name,
                idx,
                None,
                |entry_id, reused_path| {
                    let (bytes, uses) = space
                        .repo
                        .get(entry_id)
                        .map(|e| (e.stats().output_bytes, e.use_count()))
                        .unwrap_or((0, 0));
                    report.push_str(&format!(
                        "  would reuse entry #{} -> {} ({}, used {} time(s))\n",
                        entry_id,
                        reused_path,
                        restore_common::human_bytes(bytes),
                        uses,
                    ));
                    any = true;
                },
            );
            if let Some((src, _)) = identity_copy(&plan) {
                report
                    .push_str(&format!("  whole job answered from {src}; job would be skipped\n"));
            } else if !any {
                report.push_str("  no matches; job executes in full\n");
            }
        }
        Ok(report)
    }

    /// The reuse-decision trace of the most recent traced execution in
    /// the default namespace, rendered one decision per line (newest
    /// workflow only). `None` when nothing has been traced yet.
    pub fn explain_last(&self) -> Option<String> {
        self.explain_last_as(None)
    }

    /// [`ReStore::explain_last`] for a tenant's namespace.
    pub fn explain_last_as(&self, tenant: Option<&str>) -> Option<String> {
        let t = Self::normalize(tenant).unwrap_or("");
        let last_tick =
            self.obs.trace.snapshot_filtered(|e| e.tenant == t).iter().map(|e| e.tick).max()?;
        let events = self.trace_for(tenant, last_tick);
        let mut out = format!("workflow tick {last_tick} (tenant {t:?}):\n");
        for e in &events {
            out.push_str(&format!("  {e}\n"));
        }
        Some(out)
    }

    /// Reuse-decision trace events recorded for `tick` in a tenant's
    /// namespace, oldest first. The trace ring holds the most recent
    /// [`crate::obs`] events session-wide; an old workflow's events may
    /// have been evicted.
    pub fn trace_for(&self, tenant: Option<&str>, tick: u64) -> Vec<ReuseTraceEvent> {
        let t = Self::normalize(tenant).unwrap_or("");
        self.obs.trace.snapshot_filtered(|e| e.tenant == t && e.tick == tick)
    }

    /// Point-in-time summary of the default namespace's repository and
    /// reuse activity.
    pub fn stats(&self) -> ReStoreStats {
        self.stats_as(None)
    }

    /// One consistent cut of every namespace's stats: a single tick read
    /// and a single tenant-map load, so each returned row reports the
    /// same `queries_executed` and a tenant created concurrently is
    /// either absent or fully present. The default namespace is the `""`
    /// row. Callers that show totals (the service's `stats`, the metrics
    /// exposition) use this instead of per-tenant [`ReStore::stats_as`]
    /// calls, whose row-by-row reads can straddle executions.
    pub fn stats_all(&self) -> Vec<(String, ReStoreStats)> {
        let queries_executed = self.tick.load(Ordering::SeqCst);
        let spaces = self.all_spaces();
        spaces
            .into_iter()
            .map(|(name, space)| {
                let provenance_entries = space.prov.load().len();
                let repo = space.repo.snapshot();
                let entries = repo.entries();
                let stats = ReStoreStats {
                    repository_entries: entries.len(),
                    stored_bytes: repo.stored_bytes(),
                    total_uses: entries.iter().map(|e| e.use_count()).sum(),
                    never_used: entries.iter().filter(|e| e.use_count() == 0).count(),
                    queries_executed,
                    provenance_entries,
                };
                (name, stats)
            })
            .collect()
    }

    /// Point-in-time summary of a tenant's repository and reuse activity.
    /// `queries_executed` counts queries across all namespaces (the tick
    /// clock is shared).
    pub fn stats_as(&self, tenant: Option<&str>) -> ReStoreStats {
        let space = self.space_snapshot(tenant);
        // Wait-free: one provenance snapshot, one repository snapshot;
        // no lock ordering to respect and no writer ever blocked.
        let provenance_entries = space.prov.load().len();
        let repo = space.repo.snapshot();
        let entries = repo.entries();
        ReStoreStats {
            repository_entries: entries.len(),
            stored_bytes: repo.stored_bytes(),
            total_uses: entries.iter().map(|e| e.use_count()).sum(),
            never_used: entries.iter().filter(|e| e.use_count() == 0).count(),
            queries_executed: self.tick.load(Ordering::SeqCst),
            provenance_entries,
        }
    }

    /// Write-side counters of a tenant's repository: `(snapshot
    /// publishes, writer-section entries)`, both cumulative.
    /// Benchmarks read deltas of these around a round to
    /// attribute wall-time to write-side contention (`None` = the
    /// default namespace).
    pub fn write_counters_as(&self, tenant: Option<&str>) -> (u64, u64) {
        let space = self.space_snapshot(tenant);
        (space.repo.publish_count(), space.repo.writer_sections())
    }

    /// Serialize the full ReStore session state (`restore-state v5`):
    /// the counters, the journal anchor, the global configuration, and
    /// **every** namespace — default and per-tenant — with its
    /// repository, provenance table, and (when set) its policy
    /// override. Paired with [`ReStore::load_state`], this lets a new
    /// process resume with everything a previous session learned
    /// (§2.2's repository is persistent in spirit; the DFS holds the
    /// outputs).
    ///
    /// Snapshots are consistent under load: each namespace is captured
    /// under its own locks with the pin set consulted first, so entries
    /// whose files have a **pending deferred deletion** (evicted while
    /// pinned by an in-flight workflow) — or are already gone from the
    /// DFS — are excluded rather than serialized as dangling paths.
    /// Tenants are written in sorted order, so re-saving a loaded state
    /// is byte-identical.
    ///
    /// With the journal on, the dump doubles as a **base checkpoint**:
    /// the `seq` line is the journal sequence read *before* any table
    /// is captured, so every record at or below it is reflected in the
    /// dump (its writer section completes before the capture's freeze),
    /// and records after it replay idempotently on top. No workflow
    /// drain is required — only per-namespace writer freezes.
    pub fn save_state(&self) -> String {
        self.save_state_anchored().0
    }

    /// [`ReStore::save_state`] plus the anchor coordinates replication
    /// needs: the journal seq the dump is anchored at and the lineage
    /// token current while the capture lock was held. Reading both
    /// under the same capture hold as the dump keeps a shipped base's
    /// stamp consistent with its contents.
    pub(crate) fn save_state_anchored(&self) -> (String, u64, u64) {
        // Serialize with delta captures: a delta drains dirty usage
        // into absolute-valued `note-use` records stamped *after* this
        // base's anchor; if that drain interleaved with this capture,
        // replay could regress a counter the base already saw newer.
        // Writer-section-emitted records (repo/prov batches) are
        // race-free by construction; the capture lock extends the same
        // guarantee to the lazily drained ones.
        let _capture = self.journal.capture.lock();
        let seq = self.journal.seq();
        let lineage = self.journal.lineage();
        let mut out = format!(
            "{}\ntick {}\ncand {}\nseq {}\n--config--\n{}",
            crate::state::V5_HEADER,
            self.tick.load(Ordering::SeqCst),
            self.cand_counter.load(Ordering::SeqCst),
            seq,
            crate::state::encode_config(&self.config()),
        );
        out.push_str(&self.save_space("", &self.space));
        let mut tenants: Vec<(String, Arc<Space>)> =
            self.tenants.load().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, space) in tenants {
            out.push_str(&self.save_space(&name, &space));
        }
        (out, seq, lineage)
    }

    /// Capture an **incremental checkpoint**: every journal record
    /// accumulated since the previous capture — structural mutations
    /// recorded at publish time, plus the lazily dirty-tracked state
    /// flushed here (per-space `note-use` batches for entries whose
    /// reuse counters moved, and a `counters` record when tick/cand
    /// advanced). Returns the sealed segments, which the caller
    /// persists alongside its base checkpoint; an idle session yields
    /// an empty list. Cost is proportional to what changed, never to
    /// repository size, and nothing is drained or frozen — submissions
    /// keep flowing.
    ///
    /// Requires [`ReStore::enable_journal`]; recovery is
    /// [`ReStore::recover`] with a base taken at or after the enable.
    pub fn save_state_delta(&self) -> Result<Vec<String>> {
        if !self.journal.enabled() {
            return Err(Error::Other(
                "incremental snapshots require ReStore::enable_journal".into(),
            ));
        }
        let _capture = self.journal.capture.lock();
        self.flush_dirty_locked();
        Ok(self.journal.cut())
    }

    /// Drain the lazily tracked state into journal records: per-space
    /// `note-use` batches for entries whose reuse counters moved, and a
    /// `counters` record when tick/cand advanced. Caller holds the
    /// capture lock.
    fn flush_dirty_locked(&self) {
        for (name, space) in self.all_spaces() {
            let uses = space.repo.drain_dirty_usage();
            self.journal.append_note_use(&name, &uses);
        }
        self.journal.append_counters_if_changed(
            self.tick.load(Ordering::SeqCst),
            self.cand_counter.load(Ordering::SeqCst),
        );
    }

    /// Flush dirty state and seal the live buffer **without** consuming
    /// the sealed queue: registered journal taps (replication) receive
    /// the sealed segments, while the segments stay owned by the next
    /// [`ReStore::save_state_delta`] — shipping never steals from the
    /// checkpoint keeper. The replication pump calls this at every ship
    /// cadence point.
    pub(crate) fn flush_and_seal_journal(&self) -> Result<()> {
        if !self.journal.enabled() {
            return Err(Error::Other("journal shipping requires ReStore::enable_journal".into()));
        }
        let _capture = self.journal.capture.lock();
        self.flush_dirty_locked();
        self.journal.seal();
        Ok(())
    }

    /// Replay records shipped from a replication primary, in the seq
    /// order the caller established, then advance the journal seq past
    /// `last_seq` so a later promotion continues the same sequence. The
    /// journal is paused for the replay exactly as in
    /// [`ReStore::recover`] — a standby must not re-record what its
    /// primary already journaled.
    pub(crate) fn replay_shipped(&self, records: Vec<Record>, last_seq: u64) -> Result<()> {
        let _capture = self.journal.capture.lock();
        let _pause = self.journal.pause();
        for record in records {
            self.apply_record(record)?;
        }
        self.journal.advance_seq(last_seq);
        Ok(())
    }

    /// The session journal, for in-crate collaborators (replication
    /// registers segment taps and reads seq/lineage through this).
    pub(crate) fn journal_handle(&self) -> &Arc<Journal> {
        &self.journal
    }

    /// Rebuild session state from a base checkpoint plus journal
    /// segments: load the base, then replay every record with a
    /// sequence number past the base's anchor, in **seq order**. The
    /// journal writes segments and frames in seq order, but segments
    /// are input: recovery decodes all of them first and sorts on seq,
    /// so files handed over in the wrong order still replay correctly
    /// and a repeated frame is refused. A torn tail in the
    /// **final** segment — the crash artifact of a process dying
    /// mid-append — is truncated and reported; a duplicated sequence
    /// number or any other malformation fails with [`Error::Journal`]
    /// naming the segment and record, leaving whatever prefix already
    /// applied (call on a fresh or quiesced session, like
    /// [`ReStore::load_state`]).
    pub fn recover(&self, base: &str, segments: &[String]) -> Result<RecoveryReport> {
        let _capture = self.journal.capture.lock();
        // Replay drives the normal mutation paths; pause the journal so
        // they do not re-record what they apply.
        let _pause = self.journal.pause();
        // Recovery replaces state without journaling what it applies, so
        // any replica tailing this session's record stream can no longer
        // reconcile by seq — mark the lineage break (see
        // [`crate::replication`]'s divergence rule).
        self.journal.bump_lineage();
        let base_seq = self.load_state_inner(base)?;
        let mut torn_tail = None;
        // (seq, record, segment index, 1-based ordinal) — coordinates
        // kept so a duplicate seq names its record.
        let mut all: Vec<(u64, Record, usize, usize)> = Vec::new();
        for (i, segment) in segments.iter().enumerate() {
            let is_final = i + 1 == segments.len();
            let (records, torn) = journal::decode_segment(segment, i, is_final)?;
            for (ordinal, (seq, record)) in records.into_iter().enumerate() {
                all.push((seq, record, i, ordinal + 1));
            }
            torn_tail = torn;
        }
        // Stable on (segment, ordinal) ties — a duplicate pair stays in
        // physical order, so the error below names the *later* copy.
        all.sort_by_key(|&(seq, ..)| seq);
        let mut applied = 0usize;
        let mut skipped = 0usize;
        let mut last_seq = base_seq;
        for (seq, record, segment, ordinal) in all {
            if seq <= base_seq {
                skipped += 1;
                continue;
            }
            if seq == last_seq {
                return Err(Error::Journal {
                    segment,
                    record: ordinal,
                    msg: format!("duplicate record seq {seq}"),
                });
            }
            last_seq = seq;
            self.apply_record(record)?;
            applied += 1;
        }
        self.journal.advance_seq(last_seq);
        Ok(RecoveryReport {
            base_seq,
            records_applied: applied,
            records_skipped: skipped,
            torn_tail,
        })
    }

    /// Apply one decoded journal record. Every application is
    /// idempotent: puts carry full entries, note-use carries absolute
    /// counters, and space/tenant creation is keyed by name.
    fn apply_record(&self, record: Record) -> Result<()> {
        use crate::journal::{ProvRecOp, RepoRecOp};
        match record {
            Record::Counters { tick, cand } => {
                self.tick.store(tick, Ordering::SeqCst);
                self.cand_counter.store(cand, Ordering::SeqCst);
                // Replay runs with the journal paused, so the append-side
                // dedup cache must be moved by hand or the next delta
                // would re-emit this pair as a phantom record.
                self.journal.sync_counters_cache(tick, cand);
            }
            Record::TenantCreate { space } => {
                let _ = self.space_for(Some(&space));
            }
            Record::TenantConfigSet { space, config } => {
                self.set_config_as(Some(&space), config);
            }
            Record::TenantConfigClear { space } => self.clear_config_as(&space),
            Record::GlobalConfig { config } => self.set_config(config),
            Record::RepoBatch { space, ops } => {
                let sp = self.space_for(Some(&space));
                sp.repo.batch(|b| {
                    for op in ops {
                        match op {
                            RepoRecOp::Put(e) => b.put(e.id, e.plan, e.output_path, e.stats),
                            RepoRecOp::Evict(id) => {
                                b.evict(id);
                            }
                        }
                    }
                });
            }
            Record::NoteUse { space, uses } => {
                let sp = self.space_for(Some(&space));
                for (id, count, last_used) in uses {
                    sp.repo.set_usage(id, count, last_used);
                }
            }
            Record::ProvBatch { space, ops } => {
                let sp = self.space_for(Some(&space));
                sp.prov.update(|prov| {
                    for op in &ops {
                        match op {
                            ProvRecOp::Register { path, plan } => {
                                prov.register_replay(path.clone(), plan.clone())
                            }
                            ProvRecOp::Forget { path } => prov.forget(path),
                        }
                    }
                });
            }
            Record::ProvReplace { space, table } => {
                self.space_for(Some(&space)).prov.store(table);
            }
            Record::DlqPut { space, entry } => {
                let sp = self.space_for(Some(&space));
                let mut q = sp.dlq.lock();
                // Keyed by id: a re-applied put replaces its own entry.
                match q.iter_mut().find(|e| e.id == entry.id) {
                    Some(slot) => *slot = entry,
                    None => {
                        q.push(entry);
                        q.sort_by_key(|e| e.id);
                    }
                }
            }
            Record::DlqAck { space, ids } => {
                let sp = self.space_for(Some(&space));
                sp.dlq.lock().retain(|e| !ids.contains(&e.id));
            }
            Record::BreakerState { space, open } => {
                let mut set = self.open_breakers.lock();
                if open {
                    set.insert(space);
                } else {
                    set.remove(&space);
                }
            }
            Record::Replace { state } => {
                self.load_state_inner(&state)?;
            }
        }
        Ok(())
    }

    /// Serialize one namespace's provenance and repository with
    /// condemned paths excluded. The capture **freezes both writer
    /// sides** (no snapshot can be published while it runs): deferrals
    /// come from eviction sweeps, which must enter the repository
    /// writer, so none can land between the capture of the deferred
    /// set and the serialization — a deferral either completed before
    /// we froze (and its path is excluded) or is blocked until we
    /// finish. Readers (matching, stats) are not blocked; only
    /// mutations wait, and only for the duration of the serialization.
    /// A path in the deferred set still exists on the DFS right now but
    /// is deleted the moment its last pin drops, so serializing it
    /// would hand a restarted session dangling references.
    fn capture_space_tables(&self, space: &Space) -> (String, String) {
        // Writer order: provenance before repository (see [`Space`]).
        space.prov.freeze(|prov| {
            space.repo.freeze(|repo| {
                let deferred: HashSet<String> = space.pins.deferred_paths().into_iter().collect();
                let dfs = self.engine.dfs();
                let live = |p: &str| !deferred.contains(p) && dfs.exists(p);
                (prov.save_filtered(live), repo.save_filtered(live))
            })
        })
    }

    /// One `--space--` section: the namespace's policy override (if
    /// any), provenance, and repository, with condemned paths excluded.
    fn save_space(&self, name: &str, space: &Space) -> String {
        let config = (*space.config.load()).clone();
        let (prov_text, repo_text) = self.capture_space_tables(space);
        let mut out = format!("--space {name:?}--\n");
        if let Some(c) = config {
            out.push_str("--config--\n");
            out.push_str(&crate::state::encode_config(&c));
        }
        out.push_str("--provenance--\n");
        out.push_str(&prov_text);
        out.push_str("--repository--\n");
        out.push_str(&repo_text);
        let dlq = space.dlq.lock();
        if !dlq.is_empty() {
            out.push_str("--dlq--\n");
            out.push_str(&crate::dlq::save(&dlq));
        }
        out
    }

    /// Restore a session serialized by [`ReStore::save_state`] (v5, or
    /// the v4 of the release before). The DFS handle (and the stored
    /// output files in it) come from the engine this instance was built
    /// with.
    ///
    /// The document replaces the whole session: global config, every
    /// tenant namespace (existing tenant state is dropped, dead-letter
    /// queues included), and the counters.
    ///
    /// Call on a quiesced session (no workflows in flight) — the
    /// service's `restore` entry point arranges that. Malformed input
    /// yields [`Error::State`] naming the offending line. With the
    /// journal on, the wholesale replacement is recorded as one
    /// `replace` record, so later deltas still recover correctly.
    pub fn load_state(&self, text: &str) -> Result<()> {
        self.load_state_inner(text)?;
        self.journal.append_replace(text);
        Ok(())
    }

    /// The load itself, journal suspended (shared by [`ReStore::load_state`]
    /// and recovery, which must not re-record what they apply). Returns
    /// the document's journal anchor.
    fn load_state_inner(&self, text: &str) -> Result<u64> {
        let _pause = self.journal.pause();
        let loaded = crate::state::parse(text)?;
        // Reset the default namespace up front so a document without a
        // `--space ""--` section (e.g. hand-pruned) still replaces the
        // whole session instead of leaving stale default-namespace
        // state behind.
        self.set_config(loaded.global_config);
        self.space.prov.store(Provenance::default());
        self.space.repo.adopt(Repository::default());
        self.space.config.store(None);
        *self.space.dlq.lock() = Vec::new();
        // Breaker state is record-only (never part of a base dump): a
        // full-session replace resets it; `breaker-state` records
        // replayed after the base rebuild the open set.
        self.open_breakers.lock().clear();
        let mut tenants: HashMap<String, Arc<Space>> = HashMap::new();
        for sp in loaded.spaces {
            if sp.name.is_empty() {
                self.space.prov.store(sp.prov);
                self.space.repo.adopt(sp.repo);
                *self.space.dlq.lock() = sp.dlq;
            } else {
                let space = self.make_space(&sp.name);
                space.prov.store(sp.prov);
                space.repo.adopt(sp.repo);
                space.config.store(sp.config);
                *space.dlq.lock() = sp.dlq;
                tenants.insert(sp.name, space);
            }
        }
        // One publish replaces the whole tenant map atomically.
        self.tenants.store(tenants);
        self.tick.store(loaded.tick, Ordering::SeqCst);
        self.cand_counter.store(loaded.cand, Ordering::SeqCst);
        self.journal.sync_counters_cache(loaded.tick, loaded.cand);
        // Sequence numbers stay monotonic across restores: never hand
        // out a seq a base checkpoint already covers.
        self.journal.advance_seq(loaded.seq);
        Ok(loaded.seq)
    }

    fn input_versions(&self, inputs: &[String]) -> Vec<(String, u64)> {
        inputs
            .iter()
            .map(|p| {
                let v = self.engine.dfs().status(p).map(|s| s.version).unwrap_or(0);
                (p.clone(), v)
            })
            .collect()
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
    /// loads the first job's temporary output.
    fn two_job_query(out: &str) -> String {
        format!(
            "A = load '/data/pv' as (user, revenue:int);
             B = load '/data/users' as (name, city);
             C = join B by name, A by user;
             D = group C by $0;
             E = foreach D generate group, SUM(C.revenue);
             store E into '{out}';"
        )
    }

    fn engine() -> Engine {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\n").unwrap();
        dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
        Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
    }

    /// Regression for the match-then-evict race (ROADMAP "entry pinning
    /// for eviction under concurrency"): session T1 matches a repository
    /// entry during phase 1, then — before T1 executes the jobs that Load
    /// the matched output — session T2's eviction sweep evicts that
    /// entry. Without pins the sweep deleted the output file and T1
    /// failed with `FileNotFound`; with pins the file deletion is
    /// deferred until T1's workflow drops its pins.
    #[test]
    fn pinned_match_survives_concurrent_eviction_sweep() {
        let config = ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        };
        let rs = ReStore::new(engine(), config);

        // Cold run at tick 1 registers the join job's intermediate output.
        rs.execute_query(&two_job_query("/out/cold"), "/wf/cold").unwrap();
        assert!(!rs.repository().is_empty());

        // T1 runs phase 1 of its first wave: the join job whole-job
        // matches a stored entry and is skipped, pinning the reused path.
        let wf = restore_dataflow::compile(&two_job_query("/out/warm"), "/wf/warm").unwrap();
        let space = rs.space_for(None);
        let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
        let mut aliases = HashMap::new();
        let mut rewrites = Vec::new();
        let cfg = rs.config();
        let prep0 = rs
            .prepare_job(&space, None, &wf, 0, 2, &cfg, &mut aliases, &mut rewrites, &mut pins)
            .unwrap();
        let Prepared::Skipped { dst } = prep0 else {
            panic!("join job should be answered whole from the repository")
        };
        let reused = resolve_alias(&aliases, &dst);
        assert!(rs.engine().dfs().exists(&reused));
        assert!(space.pins.is_pinned(&reused));

        // T2's sweep far outside the window evicts every entry while T1
        // sits between match and execution.
        let evicted = cfg.selection.sweep(&space.repo, rs.engine().dfs(), &space.pins, 99);
        assert!(!evicted.is_empty());
        assert_eq!(space.repo.len(), 0);

        // The pinned output survived the sweep (the old code deleted it
        // here, and T1's group job then failed with FileNotFound)…
        assert!(rs.engine().dfs().exists(&reused), "pinned output must survive the sweep");

        // …so T1's second wave executes successfully against it.
        let prep1 = rs
            .prepare_job(&space, None, &wf, 1, 2, &cfg, &mut aliases, &mut rewrites, &mut pins)
            .unwrap();
        let Prepared::Run(job) = prep1 else { panic!("group job should execute") };
        let results = rs.engine().run_wave(&[&job.spec], false).unwrap();
        assert_eq!(results.len(), 1);

        // Dropping the workflow's pins performs the deferred deletion.
        drop(pins);
        assert!(!rs.engine().dfs().exists(&reused), "deferred deletion runs at last unpin");
    }

    /// A snapshot taken while a deferred deletion is pending must not
    /// serialize the condemned path: its file still exists at save time
    /// but is deleted the moment the pinning workflow finishes, so a
    /// restarted session would hold dangling references.
    #[test]
    fn snapshot_excludes_paths_with_pending_deferred_deletion() {
        let config = ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        };
        let rs = ReStore::new(engine(), config);
        rs.execute_query(&two_job_query("/out/cold"), "/wf/cold").unwrap();

        // T1 matches and pins the stored join output.
        let wf = restore_dataflow::compile(&two_job_query("/out/warm"), "/wf/warm").unwrap();
        let space = rs.space_for(None);
        let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
        let mut aliases = HashMap::new();
        let mut rewrites = Vec::new();
        let cfg = rs.config();
        let prep = rs
            .prepare_job(&space, None, &wf, 0, 2, &cfg, &mut aliases, &mut rewrites, &mut pins)
            .unwrap();
        let Prepared::Skipped { dst } = prep else { panic!("join job should be skipped") };
        let reused = resolve_alias(&aliases, &dst);

        // Before any eviction, the path is serialized (control).
        assert!(rs.save_state().contains(&format!("{reused:?}")));

        // T2's sweep evicts everything; the pinned file's deletion is
        // deferred, so it still exists on the DFS…
        cfg.selection.sweep(&space.repo, rs.engine().dfs(), &space.pins, 99);
        assert!(rs.engine().dfs().exists(&reused));

        // …but a snapshot taken now must exclude it everywhere.
        let state = rs.save_state();
        assert!(
            !state.contains(&format!("{reused:?}")),
            "a condemned path must not enter the snapshot:\n{state}"
        );
        let resumed = ReStore::new(engine(), ReStoreConfig::default());
        resumed.load_state(&state).unwrap();
        resumed.with_provenance_as(None, |prov| assert!(!prov.contains(&reused)));
        resumed.with_repository_as(None, |repo| {
            assert!(repo.entries().iter().all(|e| e.output_path != reused));
        });

        drop(pins);
        assert!(!rs.engine().dfs().exists(&reused), "deferred deletion still fires");
    }

    /// Paths whose files are already gone from the DFS (deleted out of
    /// band, e.g. by an operator) are likewise excluded from snapshots.
    #[test]
    fn snapshot_excludes_paths_missing_from_the_dfs() {
        let rs = ReStore::new(engine(), ReStoreConfig::default());
        rs.execute_query(&two_job_query("/out/cold"), "/wf/cold").unwrap();
        let stored: Vec<String> =
            rs.repository().entries().iter().map(|e| e.output_path.clone()).collect();
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
        resumed.load_state(&state).unwrap();
        resumed.with_repository_as(None, |repo| {
            assert_eq!(repo.len(), stored.len() - 1);
        });
    }

    /// A path handed to the caller as `final_output` must survive the
    /// pin release even when a mid-flight sweep deferred its deletion:
    /// deleting it would hand the caller a dangling result.
    #[test]
    fn preserved_final_output_survives_deferred_deletion() {
        let config = ReStoreConfig {
            selection: SelectionPolicy { eviction_window: Some(1), ..Default::default() },
            ..Default::default()
        };
        let rs = ReStore::new(engine(), config);
        rs.execute_query(&two_job_query("/out/cold"), "/wf/cold").unwrap();

        let wf = restore_dataflow::compile(&two_job_query("/out/warm"), "/wf/warm").unwrap();
        let space = rs.space_for(None);
        let mut pins = PinGuard::new(space.clone(), rs.engine().dfs().clone());
        let mut aliases = HashMap::new();
        let mut rewrites = Vec::new();
        let cfg = rs.config();
        let prep0 = rs
            .prepare_job(&space, None, &wf, 0, 2, &cfg, &mut aliases, &mut rewrites, &mut pins)
            .unwrap();
        let Prepared::Skipped { dst } = prep0 else { panic!("join job should be skipped") };
        let reused = resolve_alias(&aliases, &dst);

        // Sweep evicts the entry and defers the pinned file's deletion —
        // but this workflow hands `reused` to its caller.
        cfg.selection.sweep(&space.repo, rs.engine().dfs(), &space.pins, 99);
        pins.preserve(&reused);
        drop(pins);
        assert!(
            rs.engine().dfs().exists(&reused),
            "a preserved final output is orphaned, never deleted under the reader"
        );
    }
}
