//! Service-layer observability: span histograms around the serving
//! pipeline (queue wait, conflict probe, worker run, ticket wait) and
//! checkpoint/compaction accounting. Everything registers into the
//! driver session's registry, so [`RestoreService::render_metrics`]
//! (see [`crate::RestoreService`]) exposes driver and service families
//! from one place.

use restore_telemetry::{Counter, Histogram, Registry};

/// Instruments shared by the submit path, the worker pool, and the
/// checkpoint keeper.
pub(crate) struct ServiceObs {
    /// Submission → dispatch latency (time spent queued); one
    /// observation per dispatch, whoever dispatched.
    pub queue_wait: Histogram,
    /// One scheduler `pick` evaluation under the state lock.
    pub conflict_probe: Histogram,
    /// Workflow execution (the driver call), on a pool thread or the
    /// waiting submitter's.
    pub worker_run: Histogram,
    /// Submitter blocked in [`crate::SubmitHandle::wait`].
    pub ticket_wait: Histogram,
    /// Dispatches by pool threads (`service_dispatch_total{by="worker"}`).
    pub dispatch_worker: Counter,
    /// Dispatches by a submitter blocked in [`crate::SubmitHandle::wait`]
    /// running its own submission (`by="waiter"`).
    pub dispatch_waiter: Counter,
    /// Worker wait rounds spent parked behind an in-flight barrier
    /// workflow (dispatch frozen until it completes).
    pub barrier_stalls: Counter,
    /// One incremental delta capture (journal cut + segment append).
    pub checkpoint_capture: Histogram,
    /// One journal-into-base compaction fold.
    pub checkpoint_compact: Histogram,
    /// Compaction folds performed.
    pub compactions: Counter,
    /// Failed attempts re-enqueued for a backoff retry.
    pub retries: Counter,
    /// Submissions shed by an open (or probe-saturated half-open)
    /// circuit breaker.
    pub circuit_shed: Counter,
}

const DISPATCH: &str = "service_dispatch_total";
const DISPATCH_HELP: &str = "Submissions moved from the queue to execution, by who ran them";

impl ServiceObs {
    pub(crate) fn new(registry: &Registry) -> Self {
        ServiceObs {
            queue_wait: registry.histogram(
                "service_queue_wait_seconds",
                "Time a submission spent queued before dispatch",
                &[],
                1e-9,
            ),
            conflict_probe: registry.histogram(
                "service_conflict_probe_seconds",
                "Scheduler conflict-probe (pick) latency",
                &[],
                1e-9,
            ),
            worker_run: registry.histogram(
                "service_worker_run_seconds",
                "Workflow execution time on a worker",
                &[],
                1e-9,
            ),
            ticket_wait: registry.histogram(
                "service_ticket_wait_seconds",
                "Time a submitter blocked waiting on its ticket",
                &[],
                1e-9,
            ),
            dispatch_worker: registry.counter(DISPATCH, DISPATCH_HELP, &[("by", "worker")]),
            dispatch_waiter: registry.counter(DISPATCH, DISPATCH_HELP, &[("by", "waiter")]),
            barrier_stalls: registry.counter(
                "service_barrier_stalls_total",
                "Worker wait rounds spent parked behind a barrier workflow",
                &[],
            ),
            checkpoint_capture: registry.histogram(
                "restore_checkpoint_capture_seconds",
                "Incremental checkpoint capture duration",
                &[],
                1e-9,
            ),
            checkpoint_compact: registry.histogram(
                "restore_checkpoint_compact_seconds",
                "Journal-into-base compaction duration",
                &[],
                1e-9,
            ),
            compactions: registry.counter(
                "restore_checkpoint_compactions_total",
                "Journal-into-base compaction folds performed",
                &[],
            ),
            retries: registry.counter(
                "restore_retries_total",
                "Failed attempts re-enqueued for a backoff retry",
                &[],
            ),
            circuit_shed: registry.counter(
                "restore_circuit_shed_total",
                "Submissions shed by an open circuit breaker",
                &[],
            ),
        }
    }
}
