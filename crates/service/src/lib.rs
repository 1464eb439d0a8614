//! # restore-service
//!
//! A multi-tenant query-submission service over the shared
//! [`ReStore`](restore_core::ReStore) driver — the "long-lived system"
//! deployment the paper sketches in
//! §3/§6, where ReStore sits between the query compiler and the cluster
//! and serves *many submitted workflows over time*.
//!
//! The driver itself is a passive `&self` session object: callers bring
//! their own threads and there is no queueing, fairness, or isolation.
//! This crate adds the serving layer:
//!
//! ```text
//!   submit(tenant, query) ──► admission control ──► bounded queue
//!                              │ queue full → Overloaded               │
//!                              │ tenant at cap → TenantOverloaded      ▼
//!                                                  cross-workflow scheduler
//!                                                  (footprint conflict probe)
//!                                                               │
//!                          pool thread, or the submitter ───────┴─► ReStore
//!                          blocked in wait() if it is next   (per-tenant namespaces)
//! ```
//!
//! * **Admission control** — the submission queue is bounded
//!   ([`ServiceConfig::queue_depth`]); a full queue *sheds* load with
//!   [`ServiceError::Overloaded`] instead of blocking the caller, and a
//!   tenant exceeding [`ServiceConfig::max_inflight_per_tenant`] is
//!   rejected with [`ServiceError::TenantOverloaded`] so one tenant
//!   cannot monopolize the pool.
//! * **The waiter runs what no worker has taken** — `submit` never
//!   blocks on execution and wakes one pool thread, so a submission
//!   nobody waits on still runs. A caller blocked in
//!   [`SubmitHandle::wait`] asks the scheduler the pool's own question
//!   and, if the answer is its own submission, runs it on its own
//!   thread: a query answered from the repository never changes
//!   threads. (The woken pool thread yields once before it asks, so a
//!   submitter one call away from `wait()` gets there first.) [`ServiceConfig::workers`] sizes the pool, not the number
//!   of concurrent executions; admission's bounds are the load limits.
//! * **Cross-workflow scheduling** — a queued workflow may be
//!   dispatched ahead of earlier ones whenever its DFS footprint
//!   ([`CompiledWorkflow::io_path_sets`]) conflicts with neither the
//!   in-flight workflows nor any earlier-queued workflow still waiting.
//!   Conflicting workflows keep their submission order, so results are
//!   byte-identical to sequential submission; disjoint workflows overlap
//!   freely, extending wave parallelism *within* a workflow to
//!   throughput *across* workflows.
//! * **Tenant isolation** — every submission names a tenant; the driver
//!   keeps one repository namespace per tenant, so reuse, candidate
//!   materialization, and eviction sweeps never cross tenants.
//! * **Per-tenant policy** — [`RestoreService::set_tenant_config`]
//!   gives a tenant its own `ReStoreConfig` (heuristic, §5 selection,
//!   retention); its workflows run under that policy while everyone
//!   else follows the global default.
//! * **Durability** — one way out, one way in.
//!   [`RestoreService::checkpoint_begin`] turns on the driver's
//!   snapshot journal and anchors a base checkpoint (the whole session —
//!   every namespace, policies, counters — as `restore-state v5`), after
//!   which [`RestoreService::checkpoint_incremental`] captures deltas
//!   proportional to what changed — **without pausing dispatch or
//!   draining in-flight workflows** — and folds the journal into a
//!   fresh base when it outgrows [`CheckpointConfig::compact_ratio`].
//!   [`RestoreService::checkpoint_set`] hands out base + segments to
//!   persist; [`RestoreService::restore_incremental`] rebuilds from
//!   them with warm-hit parity after a process restart, tolerating a
//!   torn tail from a crash mid-append.
//!
//! [`CompiledWorkflow::io_path_sets`]: restore_dataflow::CompiledWorkflow::io_path_sets

mod dlq;
mod failure;
mod obs;
mod scheduler;
mod service;
mod standby;
mod ticket;

pub use dlq::RedriveOutcome;
pub use failure::FaultInjector;
pub use restore_core::{DlqEntry, FailureDisposition, FailurePolicy};
pub use service::{
    CheckpointConfig, CheckpointOutcome, CheckpointSet, RestoreService, ServiceConfig,
    ServiceStats, TenantServiceStats,
};
pub use standby::Standby;
pub use ticket::SubmitHandle;

/// Errors surfaced by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded submission queue is full; the query was shed, not
    /// queued. Retry later or raise [`ServiceConfig::queue_depth`].
    Overloaded {
        /// The configured queue bound that was hit.
        queue_depth: usize,
    },
    /// The tenant already has `max_inflight` workflows queued or
    /// running.
    TenantOverloaded { tenant: String, max_inflight: usize },
    /// The tenant's circuit breaker is open (too many recent failures,
    /// see [`restore_core::FailurePolicy`]): the submission was shed
    /// before queueing, without consuming a worker slot. Retry after
    /// the tenant's cooldown; half-open probes re-test health
    /// automatically.
    CircuitOpen {
        /// Tenant key (empty string = the default namespace).
        tenant: String,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// [`RestoreService::checkpoint_incremental`] was called before
    /// [`RestoreService::checkpoint_begin`].
    CheckpointsNotEnabled,
    /// Compilation or execution of the query failed.
    Query(restore_common::Error),
    /// Replication shipping, replay, or promotion failed (see
    /// [`restore_core::ReplicationError`] for the divergence taxonomy).
    Replication(restore_core::ReplicationError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "service overloaded: submission queue full ({queue_depth} deep)")
            }
            ServiceError::TenantOverloaded { tenant, max_inflight } => {
                write!(f, "tenant {tenant:?} at its in-flight limit ({max_inflight})")
            }
            ServiceError::CircuitOpen { tenant } => {
                write!(f, "tenant {tenant:?} circuit breaker open: submission shed")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::CheckpointsNotEnabled => {
                write!(f, "incremental checkpoints not enabled: call checkpoint_begin first")
            }
            ServiceError::Query(e) => write!(f, "query failed: {e}"),
            ServiceError::Replication(e) => write!(f, "replication failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}
