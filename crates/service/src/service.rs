//! The service object: admission control, the worker pool, and
//! introspection.

use crate::failure::{Admission, FaultInjector};
use crate::obs::ServiceObs;
use crate::scheduler::{next_ready_deadline, pick, QueuedWorkflow, SchedulerState};
use crate::ticket::{SubmitHandle, Ticket};
use crate::ServiceError;
use restore_core::{
    FailureDisposition, JournalConfig, ReStore, ReStoreStats, RecoveryReport, ReuseTraceEvent,
};
use restore_dataflow::CompiledWorkflow;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Size of the worker pool (minimum 1): the threads that run
    /// submissions nobody is waiting on, retries whose backoff expired,
    /// and whatever a blocked submitter could not take itself. It is
    /// not a cap on concurrent executions — a thread blocked in
    /// [`SubmitHandle::wait`] lends itself to its own submission, so
    /// in-flight workflows may exceed it. The load limits are
    /// admission's: `queue_depth` and `max_inflight_per_tenant`.
    pub workers: usize,
    /// Bound of the submission queue; a full queue sheds new work with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Maximum workflows one tenant may have queued + running; beyond it
    /// submissions are rejected with [`ServiceError::TenantOverloaded`].
    pub max_inflight_per_tenant: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 4, queue_depth: 64, max_inflight_per_tenant: 16 }
    }
}

/// Tuning for continuous incremental checkpointing (see
/// [`RestoreService::checkpoint_begin`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The driver's snapshot journal, which the checkpoint set carries
    /// as segments.
    pub journal: JournalConfig,
    /// Compact (fold the journal into a fresh base checkpoint) once
    /// accumulated segment bytes exceed this fraction of the base's
    /// size. Compaction uses the quiesce-free driver dump, so even the
    /// fold never drains in-flight workflows.
    pub compact_ratio: f64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { journal: JournalConfig::default(), compact_ratio: 0.5 }
    }
}

/// What one [`RestoreService::checkpoint_incremental`] call captured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointOutcome {
    /// Segments this capture added to the checkpoint set.
    pub segments_added: usize,
    /// The journal was folded into a fresh base this round.
    pub compacted: bool,
    /// Current base checkpoint size, bytes.
    pub base_bytes: usize,
    /// Accumulated journal bytes riding on the base.
    pub journal_bytes: usize,
}

/// A recoverable checkpoint: the base dump plus the journal segments
/// captured since. Persist both; rebuild with
/// [`RestoreService::restore_incremental`] (or
/// [`ReStore::recover`](restore_core::ReStore::recover) on a bare
/// driver).
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    pub base: String,
    pub segments: Vec<String>,
}

/// Continuous-checkpoint bookkeeping (see
/// [`RestoreService::checkpoint_begin`]).
struct CheckpointKeeper {
    config: CheckpointConfig,
    base: String,
    segments: Vec<String>,
    journal_bytes: usize,
}

/// Snapshot of one tenant's serving activity (see
/// [`RestoreService::stats`]).
#[derive(Debug, Clone)]
pub struct TenantServiceStats {
    /// Tenant name; empty string = the default namespace.
    pub tenant: String,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Workflows currently queued or running for this tenant.
    pub inflight: usize,
    /// The tenant's repository, as the driver reports it.
    pub repository: ReStoreStats,
}

/// Point-in-time service introspection.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    pub workers: usize,
    pub queued: usize,
    pub running: usize,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Per-tenant breakdown, sorted by tenant name.
    pub tenants: Vec<TenantServiceStats>,
}

/// What dispatching and running a submission needs, shared by the pool
/// threads and — weakly, through their [`SubmitHandle`]s — by waiting
/// submitters.
pub(crate) struct Shared {
    restore: Arc<ReStore>,
    state: Mutex<SchedulerState>,
    /// Workers wait here for runnable queue entries.
    work: Condvar,
    /// `drain` and `restore_incremental` park here (counted in
    /// [`SchedulerState::idle_waiters`]) until the pool goes idle.
    idle: Condvar,
    /// Deterministic fault injection on the execution path (see
    /// [`FaultInjector`]); `None` in production.
    fault: Mutex<Option<Arc<dyn FaultInjector>>>,
    /// Serving-pipeline instruments, registered in the driver session's
    /// registry (see [`crate::obs`]).
    pub(crate) obs: ServiceObs,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// The query-submission service. Owns a [`ReStore`] session and a fixed
/// pool of worker threads; see the crate docs for the architecture.
pub struct RestoreService {
    restore: Arc<ReStore>,
    config: ServiceConfig,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Continuous-checkpoint state; `None` until
    /// [`RestoreService::checkpoint_begin`]. Its lock also serializes
    /// [`RestoreService::restore_incremental`] calls, so at most one
    /// thread holds the pool quiesced.
    checkpoint: Mutex<Option<CheckpointKeeper>>,
}

impl RestoreService {
    /// Start the service over a fresh driver session.
    pub fn new(restore: ReStore, config: ServiceConfig) -> Self {
        let restore = Arc::new(restore);
        let shared = Arc::new(Shared {
            restore: restore.clone(),
            state: Mutex::new(SchedulerState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            fault: Mutex::new(None),
            obs: ServiceObs::new(restore.registry()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        RestoreService { restore, config, shared, workers, checkpoint: Mutex::new(None) }
    }

    /// The underlying driver session (e.g. for DFS access or
    /// repository introspection).
    pub fn driver(&self) -> &ReStore {
        &self.restore
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Compile `query` and enqueue it for execution as `tenant`.
    /// Admission control runs *before* queueing: a full queue or a
    /// tenant at its in-flight cap is rejected immediately — the call
    /// never blocks on capacity.
    pub fn submit(
        &self,
        tenant: Option<&str>,
        query: &str,
        out_prefix: &str,
    ) -> Result<SubmitHandle, ServiceError> {
        // The tenant's effective config governs compilation too: with
        // `canonicalize` on, paraphrases of warm queries hit the
        // repository (see [`ReStore::compile_as`]).
        let wf = self.restore.compile_as(tenant, query, out_prefix).map_err(ServiceError::Query)?;
        self.submit_workflow(tenant, wf)
    }

    /// Enqueue an already-compiled workflow (see [`RestoreService::submit`]).
    pub fn submit_workflow(
        &self,
        tenant: Option<&str>,
        wf: CompiledWorkflow,
    ) -> Result<SubmitHandle, ServiceError> {
        // An empty tenant name and `None` both mean the default
        // namespace; normalize so admission accounting and the driver
        // agree on which namespace serves the workflow.
        let tenant = tenant.filter(|t| !t.is_empty());
        // Both built once, here: the queue entry carries them and
        // dispatch, completion and retries move them along.
        let footprint = wf.io_path_sets();
        let key = tenant.unwrap_or("").to_string();
        // Effective failure policy read before the scheduler lock (the
        // driver read takes its own locks).
        let policy = self.restore.read_config_as(tenant, |c| c.failure.clone());
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if st.queue.len() >= self.config.queue_depth {
            st.rejected += 1;
            st.per_tenant.entry(key.clone()).or_default().rejected += 1;
            return Err(ServiceError::Overloaded { queue_depth: self.config.queue_depth });
        }
        let load = st.tenant_load.get(&key).copied().unwrap_or(0);
        if load >= self.config.max_inflight_per_tenant {
            st.rejected += 1;
            st.per_tenant.entry(key.clone()).or_default().rejected += 1;
            return Err(ServiceError::TenantOverloaded {
                tenant: key,
                max_inflight: self.config.max_inflight_per_tenant,
            });
        }
        // The breaker is the last admission gate: a shed submission
        // never reaches the queue, so a flapping tenant costs one map
        // lookup per submission instead of a worker slot. While
        // half-open, admitted submissions are probes whose outcomes
        // decide recovery.
        let probe = if policy.breaker_enabled() {
            match st.failure.entry(key.clone()).or_default().admit(&policy, Instant::now()) {
                Admission::Admit { probe } => probe,
                Admission::Shed => {
                    st.rejected += 1;
                    st.per_tenant.entry(key.clone()).or_default().rejected += 1;
                    self.shared.obs.circuit_shed.inc();
                    return Err(ServiceError::CircuitOpen { tenant: key });
                }
            }
        } else {
            false
        };
        st.submitted += 1;
        let id = st.submitted;
        // A tenant's rows are created by its first submission; after
        // that the key is only borrowed.
        match st.per_tenant.get_mut(&key) {
            Some(counters) => counters.submitted += 1,
            None => st.per_tenant.entry(key.clone()).or_default().submitted += 1,
        }
        match st.tenant_load.get_mut(&key) {
            Some(load) => *load += 1,
            None => *st.tenant_load.entry(key.clone()).or_default() += 1,
        }
        let ticket = Arc::new(Ticket::with_wait_hist(self.shared.obs.ticket_wait.clone()));
        st.queue.push_back(QueuedWorkflow {
            id,
            key,
            wf,
            footprint,
            ticket: ticket.clone(),
            enqueued: Instant::now(),
            attempt: 0,
            not_before: None,
            probe,
        });
        drop(st);
        // One pool thread is told even though the submitter may run the
        // entry itself from `wait`: a submission nobody waits on must
        // still start.
        self.shared.work.notify_one();
        Ok(SubmitHandle {
            id,
            tenant: tenant.map(str::to_string),
            ticket,
            pool: Arc::downgrade(&self.shared),
        })
    }

    /// Stop dispatching queued workflows — by the pool and by waiting
    /// submitters alike (already-running ones finish).
    /// Useful as a maintenance window and for deterministic admission
    /// tests.
    pub fn pause(&self) {
        self.shared.lock().paused = true;
    }

    /// Resume dispatching after [`RestoreService::pause`].
    pub fn resume(&self) {
        self.shared.lock().paused = false;
        self.shared.work.notify_all();
    }

    /// Block until the queue is empty and no workflow is running. Call
    /// only while dispatch is active (not paused), or it never returns.
    pub fn drain(&self) {
        let st = self.shared.lock();
        drop(self.shared.wait_idle(st, |st| st.queue.is_empty() && st.inflight.is_empty()));
    }

    /// Switch the service into **continuous-checkpoint mode**: enable
    /// the driver's snapshot journal and capture the base checkpoint
    /// the journal anchors to. Neither step drains the pool — the base
    /// is the driver's freeze-per-namespace dump, so submissions and
    /// in-flight workflows keep flowing; mutations that race the base
    /// capture replay idempotently from the journal.
    ///
    /// From here, call [`RestoreService::checkpoint_incremental`] on
    /// whatever cadence the durability target requires (every few
    /// seconds, after every N submissions, …) and persist the
    /// [`CheckpointSet`].
    pub fn checkpoint_begin(&self, config: CheckpointConfig) -> CheckpointOutcome {
        let mut keeper = self.checkpoint.lock().unwrap_or_else(|e| e.into_inner());
        self.restore.enable_journal(config.journal.clone());
        let base = self.restore.save_state();
        let base_bytes = base.len();
        *keeper = Some(CheckpointKeeper { config, base, segments: Vec::new(), journal_bytes: 0 });
        CheckpointOutcome { segments_added: 0, compacted: false, base_bytes, journal_bytes: 0 }
    }

    /// Capture an incremental checkpoint: drain the journal's
    /// accumulated records into sealed segments and append them to the
    /// checkpoint set. **Zero drain**: this neither pauses dispatch nor
    /// waits for in-flight workflows — capture cost is proportional to
    /// what changed since the last call, so it can run on a tight
    /// cadence under full load.
    ///
    /// When the accumulated journal grows past
    /// [`CheckpointConfig::compact_ratio`] × base size, the journal is
    /// folded into a fresh base (again without draining) and the
    /// covered segments are dropped.
    pub fn checkpoint_incremental(&self) -> Result<CheckpointOutcome, ServiceError> {
        let mut guard = self.checkpoint.lock().unwrap_or_else(|e| e.into_inner());
        let keeper = guard.as_mut().ok_or(ServiceError::CheckpointsNotEnabled)?;
        let capture_t0 = Instant::now();
        let added = self.restore.save_state_delta().map_err(ServiceError::Query)?;
        let segments_added = added.len();
        keeper.journal_bytes += added.iter().map(String::len).sum::<usize>();
        keeper.segments.extend(added);
        self.shared.obs.checkpoint_capture.record_elapsed(capture_t0);
        let mut compacted = false;
        if keeper.journal_bytes as f64 > keeper.config.compact_ratio * keeper.base.len() as f64 {
            // Fold: a fresh base covers (by sequence number) every
            // record in the accumulated segments, so they can go. New
            // records appended *during* this dump stay in the live
            // journal and ride out with the next delta — replaying
            // them over the new base is idempotent.
            let compact_t0 = Instant::now();
            keeper.base = self.restore.save_state();
            keeper.segments.clear();
            keeper.journal_bytes = 0;
            self.shared.obs.checkpoint_compact.record_elapsed(compact_t0);
            self.shared.obs.compactions.inc();
            compacted = true;
        }
        Ok(CheckpointOutcome {
            segments_added,
            compacted,
            base_bytes: keeper.base.len(),
            journal_bytes: keeper.journal_bytes,
        })
    }

    /// The current recoverable checkpoint (base + segments), cloned for
    /// persistence; `None` before [`RestoreService::checkpoint_begin`].
    pub fn checkpoint_set(&self) -> Option<CheckpointSet> {
        let guard = self.checkpoint.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map(|k| CheckpointSet { base: k.base.clone(), segments: k.segments.clone() })
    }

    /// Rebuild session state from a [`CheckpointSet`] — the one way a
    /// saved session comes back into a service. A set with no segments
    /// loads a plain [`ReStore::save_state`] document. The pool is
    /// quiesced first: dispatch pauses (new submissions queue, they are
    /// not rejected), in-flight workflows finish, the base is loaded and
    /// the journal segments replayed, and dispatch resumes unless the
    /// caller had paused it. A torn tail in the final segment — the
    /// signature of a crash mid-append — is truncated and reported in
    /// the returned [`RecoveryReport`].
    ///
    /// If this service is itself in continuous-checkpoint mode, its
    /// keeper is **rebased** onto the restored state: the pre-restore
    /// base, segments, and any journal records buffered from the
    /// replaced lineage are discarded, and a fresh base is anchored —
    /// otherwise the next [`RestoreService::checkpoint_incremental`]
    /// would splice new deltas onto the *old* lineage and its set
    /// would no longer reproduce the live session.
    pub fn restore_incremental(&self, set: &CheckpointSet) -> Result<RecoveryReport, ServiceError> {
        // Hold the keeper across the whole quiesced restore so no
        // capture interleaves between the state swap and the rebase,
        // and no second restore overlaps this one.
        let mut keeper = self.checkpoint.lock().unwrap_or_else(|e| e.into_inner());
        let was_paused = {
            let mut st = self.shared.lock();
            let was_paused = std::mem::replace(&mut st.paused, true);
            drop(self.shared.wait_idle(st, |st| st.inflight.is_empty()));
            was_paused
        };
        let recovered = self.restore.recover(&set.base, &set.segments);
        if !was_paused {
            self.resume();
        }
        let report = recovered.map_err(ServiceError::Query)?;
        if let Some(k) = keeper.as_mut() {
            // Drop records journaled before the restore (stale
            // lineage), then anchor a fresh base over the restored
            // state.
            let _ = self.restore.save_state_delta();
            k.base = self.restore.save_state();
            k.segments.clear();
            k.journal_bytes = 0;
        }
        Ok(report)
    }

    /// Install (`Some`) or remove (`None`) the deterministic
    /// fault-injection hook: before each execution attempt the worker
    /// consults the injector, and a `Some(reason)` verdict fails the
    /// attempt with a `Job` error *before* the driver runs (no
    /// repository or DFS state mutates). The failure then flows through
    /// the tenant's [`restore_core::FailurePolicy`] exactly like a real
    /// one — retries, breaker accounting — which is the point:
    /// failure-path tests and drills script exact schedules keyed on
    /// (tenant, submission id, attempt). Takes effect for
    /// attempts dispatched after the call.
    pub fn set_fault_injector(&self, injector: Option<Arc<dyn FaultInjector>>) {
        *self.shared.fault.lock().unwrap_or_else(|e| e.into_inner()) = injector;
    }

    /// Service-level and per-tenant counters plus each tenant's
    /// repository statistics. The tenant list and counters come from one
    /// scheduler-lock section and the repository rows from one driver
    /// cut ([`ReStore::stats_all`]), so per-tenant rows always sum to
    /// the service totals of the same call and every row reports the
    /// same `queries_executed` — per-tenant `stats_as` reads taken
    /// row-by-row could straddle concurrent executions.
    pub fn stats(&self) -> ServiceStats {
        let (queued, running, submitted, completed, rejected, mut tenants) = {
            let st = self.shared.lock();
            let tenants: Vec<(String, crate::scheduler::TenantCounters, usize)> = st
                .per_tenant
                .iter()
                .map(|(k, c)| (k.clone(), c.clone(), st.tenant_load.get(k).copied().unwrap_or(0)))
                .collect();
            (st.queue.len(), st.inflight.len(), st.submitted, st.completed, st.rejected, tenants)
        };
        tenants.sort_by(|a, b| a.0.cmp(&b.0));
        let all = self.restore.stats_all();
        let queries_executed = all.first().map(|(_, s)| s.queries_executed).unwrap_or(0);
        let repos: HashMap<String, ReStoreStats> = all.into_iter().collect();
        let tenants = tenants
            .into_iter()
            .map(|(tenant, c, inflight)| {
                // A tenant can have counters without a namespace (every
                // submission rejected or still queued): report an empty
                // repository at the cut's shared clock.
                let repository = repos.get(&tenant).copied().unwrap_or(ReStoreStats {
                    repository_entries: 0,
                    stored_bytes: 0,
                    total_uses: 0,
                    never_used: 0,
                    queries_executed,
                    stored_files: 0,
                });
                TenantServiceStats {
                    tenant,
                    submitted: c.submitted,
                    completed: c.completed,
                    rejected: c.rejected,
                    inflight,
                    repository,
                }
            })
            .collect();
        ServiceStats {
            workers: self.workers.len(),
            queued,
            running,
            submitted,
            completed,
            rejected,
            tenants,
        }
    }

    /// The reuse-decision trace of a completed submission: why each
    /// repository candidate matched or was rejected, per job. `None`
    /// while the workflow is still queued or running, if it failed, or
    /// if its events have already been evicted from the trace ring.
    pub fn trace(&self, handle: &SubmitHandle) -> Option<Vec<ReuseTraceEvent>> {
        let tick = handle.ticket.tick()?;
        let events = self.restore.trace_for(handle.tenant(), tick);
        if events.is_empty() {
            None
        } else {
            Some(events)
        }
    }

    /// Render every metric family — driver and service — in Prometheus
    /// text exposition format. Counters and histograms stream in as the
    /// system runs; point-in-time gauges (queue depth, journal lag,
    /// per-namespace repository totals) are sampled here, at scrape
    /// time, the way a Prometheus `collect` hook would.
    pub fn render_metrics(&self) -> String {
        let registry = self.restore.registry();
        let g = |name: &str, help: &str, labels: &[(&str, &str)], v: f64| {
            registry.gauge(name, help, labels).set(v);
        };
        // Scheduler/pool gauges from one lock section.
        {
            let st = self.shared.lock();
            g("service_queue_depth", "Workflows currently queued", &[], st.queue.len() as f64);
            g("service_inflight", "Workflows currently executing", &[], st.inflight.len() as f64);
            g("service_workers", "Worker-pool size", &[], self.workers.len() as f64);
            g(
                "service_worker_utilization",
                "Workflows in flight / worker-pool size; above 1 while waiting submitters run their own",
                &[],
                st.inflight.len() as f64 / self.workers.len().max(1) as f64,
            );
            for (tenant, c) in st.per_tenant.iter() {
                let labels = [("tenant", tenant.as_str())];
                g("service_submitted", "Workflows admitted", &labels, c.submitted as f64);
                g("service_completed", "Workflows completed", &labels, c.completed as f64);
                g(
                    "service_rejected",
                    "Workflows rejected at admission",
                    &labels,
                    c.rejected as f64,
                );
            }
            for (tenant, fs) in st.failure.iter() {
                g(
                    "restore_circuit_state",
                    "Circuit-breaker state (0 = closed, 1 = open, 2 = half-open)",
                    &[("tenant", tenant.as_str())],
                    fs.gauge(),
                );
            }
        }
        // Journal gauges (lock-free stats reads).
        let js = self.restore.journal_stats();
        g("restore_journal_seq", "Last assigned journal sequence number", &[], js.seq as f64);
        g(
            "restore_journal_live_bytes",
            "Bytes buffered in the live segment",
            &[],
            js.live_bytes as f64,
        );
        g(
            "restore_journal_sealed_segments",
            "Segments sealed since the last delta capture",
            &[],
            js.sealed_segments as f64,
        );
        g(
            "restore_journal_seq_lag",
            "Records appended since the last delta capture",
            &[],
            js.seq_lag as f64,
        );
        // Checkpoint keeper gauges.
        {
            let keeper = self.checkpoint.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(k) = keeper.as_ref() {
                g(
                    "restore_checkpoint_base_bytes",
                    "Base checkpoint size",
                    &[],
                    k.base.len() as f64,
                );
                g(
                    "restore_checkpoint_journal_bytes",
                    "Journal bytes riding on the base checkpoint",
                    &[],
                    k.journal_bytes as f64,
                );
                g(
                    "restore_checkpoint_segments",
                    "Captured segments in the checkpoint set",
                    &[],
                    k.segments.len() as f64,
                );
            }
        }
        // Per-namespace repository gauges from one consistent cut.
        for (tenant, stats) in self.restore.stats_all() {
            let t = tenant.as_str();
            let (publishes, writer_sections) = self.restore.write_counters_as(Some(t));
            let labels = [("tenant", t)];
            g(
                "restore_repo_entries",
                "Repository entries",
                &labels,
                stats.repository_entries as f64,
            );
            g(
                "restore_repo_stored_bytes",
                "Stored output bytes",
                &labels,
                stats.stored_bytes as f64,
            );
            g(
                "restore_repo_total_uses",
                "Rewrites served by entries",
                &labels,
                stats.total_uses as f64,
            );
            g("restore_repo_publishes", "RCU snapshot publishes", &labels, publishes as f64);
            g(
                "restore_repo_writer_sections",
                "Repository writer-section entries",
                &labels,
                writer_sections as f64,
            );
        }
        registry.render()
    }

    /// Stop accepting new work, finish everything queued or in flight —
    /// whoever runs it — and join the worker pool.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            // A paused service must still drain on shutdown.
            st.paused = false;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for RestoreService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, SchedulerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park on `idle` until `done(state)`. The parked count is what
    /// lets a completion skip the signal when nobody is here.
    fn wait_idle<'a>(
        &self,
        mut st: MutexGuard<'a, SchedulerState>,
        done: impl Fn(&SchedulerState) -> bool,
    ) -> MutexGuard<'a, SchedulerState> {
        st.idle_waiters += 1;
        while !done(&st) {
            st = self.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.idle_waiters -= 1;
        st
    }

    /// The one dispatch site. Asks [`pick`] what should run next and
    /// moves it queue → in-flight; the entry's footprint rides in the
    /// in-flight row until [`Shared::run`] takes it back. A pool thread
    /// (`own: None`) takes whatever was picked. A waiting submitter
    /// takes the pick only if it is its own submission `own`: whether
    /// *anything* may start is still `pick`'s decision alone, so
    /// conflict groups keep submission order and a barrier freezes
    /// waiters exactly as it freezes workers.
    fn dispatch(
        &self,
        st: &mut SchedulerState,
        own: Option<u64>,
    ) -> Option<(QueuedWorkflow, bool)> {
        // A workflow that writes a repository-registered path is a
        // scheduling barrier: reuse rewriting could make any other
        // workflow Load that path at run time, invisibly to submit-time
        // footprints.
        let is_barrier =
            |q: &QueuedWorkflow| q.footprint.writes.iter().any(|w| self.restore.serves_path(w));
        let probe_t0 = Instant::now();
        let picked = pick(st, Instant::now(), is_barrier);
        self.obs.conflict_probe.record_elapsed(probe_t0);
        let (i, barrier) = picked.filter(|&(i, _)| own.is_none_or(|id| st.queue[i].id == id))?;
        let mut entry = st.queue.remove(i).expect("picked index exists");
        st.inflight.push((entry.id, std::mem::take(&mut entry.footprint)));
        st.inflight_barriers += usize::from(barrier);
        let by = if own.is_some() { &self.obs.dispatch_waiter } else { &self.obs.dispatch_worker };
        by.inc();
        Some((entry, barrier))
    }

    /// A pool thread: dispatch and run until shutdown has drained the
    /// service.
    fn worker_loop(&self) {
        loop {
            let (entry, barrier) = {
                let mut st = self.lock();
                loop {
                    // In-flight counts too: an entry a submitter is
                    // running may yet fail into a retry, and the pool
                    // is who runs retries.
                    if st.shutdown && st.queue.is_empty() && st.inflight.is_empty() {
                        return;
                    }
                    if !st.paused {
                        if let Some(dispatched) = self.dispatch(&mut st, None) {
                            break dispatched;
                        }
                        // Dispatch is frozen behind an in-flight barrier
                        // workflow with work waiting — the stall the
                        // exposition's barrier counter measures.
                        if st.inflight_barriers > 0 && !st.queue.is_empty() {
                            self.obs.barrier_stalls.inc();
                        }
                    }
                    // A retry backing off wakes the pool by deadline; with
                    // none pending, sleep until a submission or completion
                    // notifies.
                    st = match next_ready_deadline(&st, Instant::now()) {
                        Some(deadline) => {
                            let wait = deadline.saturating_duration_since(Instant::now());
                            self.work.wait_timeout(st, wait).unwrap_or_else(|e| e.into_inner()).0
                        }
                        None => {
                            drop(self.work.wait(st).unwrap_or_else(|e| e.into_inner()));
                            // Woken — most often by a `submit` whose
                            // caller is one call away from `wait()` and
                            // will run the entry itself. Let whoever is
                            // runnable go first, once: on a busy core
                            // that is the submitter this wake-up just
                            // preempted; on an idle core the yield
                            // returns at once and an unwaited
                            // submission starts no later than before.
                            std::thread::yield_now();
                            self.lock()
                        }
                    };
                }
            };
            self.run(entry, barrier);
        }
    }

    /// [`SubmitHandle::wait`] on an unfinished ticket: run submission
    /// `id` on the calling thread if it is what the scheduler would
    /// start next. Otherwise — paused, already taken, or `pick` chose
    /// something else or nothing — return, and the caller parks on its
    /// ticket for a pool thread to get there.
    pub(crate) fn run_own(&self, id: u64) {
        let dispatched = {
            let mut st = self.lock();
            if st.paused {
                return;
            }
            self.dispatch(&mut st, Some(id))
        };
        if let Some((entry, barrier)) = dispatched {
            self.run(entry, barrier);
        }
    }

    /// Execute a dispatched entry and do everything its outcome
    /// requires: retry, breaker and tenant accounting,
    /// waking whoever the completion unblocks, the ticket.
    /// Runs on whichever thread dispatched it.
    fn run(&self, entry: QueuedWorkflow, barrier: bool) {
        let restore = &self.restore;
        let QueuedWorkflow { id, key, wf, ticket, enqueued, attempt, probe, .. } = entry;
        self.obs.queue_wait.record_elapsed(enqueued);
        // The driver reads the `""` key as the default namespace.
        let tenant = Some(key.as_str());
        // The failure policy current at dispatch governs this attempt
        // (a mid-flight policy change applies from the next attempt on).
        let policy = restore.read_config_as(tenant, |c| c.failure.clone());
        // A retry needs the workflow back after execution consumes it;
        // everyone else skips the clone.
        let keep_wf = policy.retries().then(|| wf.clone());
        let injected = {
            let inj = self.fault.lock().unwrap_or_else(|e| e.into_inner()).clone();
            // An injector sees the tenant as it was submitted: `None`
            // for the default namespace.
            inj.and_then(|i| i.inject(tenant.filter(|t| !t.is_empty()), id, attempt))
        };
        // Contain panics: a poisoned workflow must not kill the thread
        // running it or leave its footprint stuck in the in-flight set
        // (which would block every conflicting submission forever).
        let run_t0 = Instant::now();
        let result = match injected {
            Some(reason) => Err(restore_common::Error::Job(reason)),
            None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                restore.execute_workflow_as(tenant, wf)
            }))
            .unwrap_or_else(|payload| {
                // Preserve the panic payload: "panicked: index out of
                // bounds …" debugs; a bare "panicked" does not.
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    format!("workflow execution panicked: {s}")
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    format!("workflow execution panicked: {s}")
                } else {
                    "workflow execution panicked".to_string()
                };
                Err(restore_common::Error::Job(msg))
            }),
        };
        self.obs.worker_run.record_elapsed(run_t0);
        let now = Instant::now();
        let will_retry = result.is_err() && policy.retries() && attempt < policy.max_retries;
        let (wake_pool, wake_idle) = {
            let mut st = self.lock();
            let at = st
                .inflight
                .iter()
                .position(|(fid, _)| *fid == id)
                .expect("a running entry is in the in-flight set");
            let (_, footprint) = st.inflight.remove(at);
            st.inflight_barriers -= usize::from(barrier);
            // Feed the breaker: probes always report (they decide the
            // half-open verdict); ordinary outcomes feed the window
            // except failures under Drop — a tenant declaring its
            // traffic best-effort must not trip its own breaker.
            let dropped_failure = result.is_err() && policy.on_failure == FailureDisposition::Drop;
            if policy.breaker_enabled() && (probe || !dropped_failure) {
                let breaker = st.failure.entry(key.clone()).or_default();
                breaker.record(&policy, probe, result.is_err(), now);
            }
            if will_retry {
                // Re-enqueue instead of sleeping on the thread: it
                // frees immediately and the backoff delay runs on the
                // queue. Same id (the ticket stays attached), probe
                // cleared (the breaker already judged the probe by its
                // first outcome above).
                let next_attempt = attempt + 1;
                st.queue.push_back(QueuedWorkflow {
                    id,
                    key,
                    wf: keep_wf.expect("retry disposition keeps the workflow"),
                    footprint,
                    ticket: ticket.clone(),
                    enqueued: Instant::now(),
                    attempt: next_attempt,
                    not_before: Some(now + policy.backoff_for(next_attempt, id)),
                    probe: false,
                });
                self.obs.retries.inc();
                // tenant_load is untouched: the submission is still
                // queued, so the tenant's in-flight cap keeps counting
                // it.
            } else {
                if let Some(load) = st.tenant_load.get_mut(&key) {
                    *load = load.saturating_sub(1);
                }
                st.completed += 1;
                if let Some(counters) = st.per_tenant.get_mut(&key) {
                    counters.completed += 1;
                }
            }
            // A wake-up goes only to someone who can act on it. The
            // pool can act on a non-empty queue — this completion may
            // have unblocked a conflicting entry for every parked
            // worker, and a retry just queued needs one of them to arm
            // its deadline — and on shutdown: the exit test includes
            // the in-flight set, so when a submitter ran the last entry
            // no later event would release the workers `shutdown` is
            // joining.
            (!st.queue.is_empty() || st.shutdown, st.idle_waiters > 0)
        };
        if wake_pool {
            self.work.notify_all();
        }
        if wake_idle {
            self.idle.notify_all();
        }
        if !will_retry {
            ticket.complete(result.map_err(ServiceError::Query));
        }
    }
}
