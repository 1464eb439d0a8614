//! Completion tickets: futures-free handles on submitted workflows.

use crate::service::Shared;
use crate::ServiceError;
use restore_core::QueryExecution;
use restore_telemetry::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Instant;

/// Shared slot filled by whoever ran the workflow — a pool thread or a
/// waiting submitter — when it finishes for good (a failed attempt that
/// will be retried leaves it empty).
#[derive(Debug, Default)]
pub(crate) struct Ticket {
    slot: Mutex<Slot>,
    done: Condvar,
    /// Driver tick of the completed execution (0 = not yet known or the
    /// workflow failed) — the key into the reuse-decision trace.
    tick: AtomicU64,
    /// Records the submitter's time in [`SubmitHandle::wait`], running
    /// its own submission included. The default (detached) histogram
    /// records into the void, so tickets built outside the service
    /// (scheduler tests) cost nothing.
    wait_hist: Histogram,
}

#[derive(Debug, Default)]
struct Slot {
    result: Option<Result<QueryExecution, ServiceError>>,
    /// Threads parked on `done`; completion signals it only for them.
    parked: usize,
}

impl Ticket {
    /// A ticket whose wait time records into `wait_hist`.
    pub(crate) fn with_wait_hist(wait_hist: Histogram) -> Self {
        Ticket { wait_hist, ..Default::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn complete(&self, result: Result<QueryExecution, ServiceError>) {
        if let Ok(exec) = &result {
            self.tick.store(exec.tick, Ordering::SeqCst);
        }
        let mut slot = self.lock();
        slot.result = Some(result);
        if slot.parked > 0 {
            self.done.notify_all();
        }
    }

    /// The completed execution's driver tick; `None` until the workflow
    /// finishes successfully.
    pub(crate) fn tick(&self) -> Option<u64> {
        match self.tick.load(Ordering::SeqCst) {
            0 => None,
            t => Some(t),
        }
    }

    /// Return the result, first giving the caller one chance —
    /// `run_own`, called only if the ticket is still empty — to produce
    /// it on this thread, then parking until someone does.
    fn wait(&self, run_own: impl FnOnce()) -> Result<QueryExecution, ServiceError> {
        let t0 = Instant::now();
        let mut slot = self.lock();
        if slot.result.is_none() {
            drop(slot);
            run_own();
            slot = self.lock();
        }
        loop {
            // The result stays in the slot so `wait` is idempotent and
            // the handle remains usable afterwards (e.g. for
            // `RestoreService::trace`).
            if let Some(result) = slot.result.as_ref() {
                let result = result.clone();
                drop(slot);
                self.wait_hist.record_elapsed(t0);
                return result;
            }
            slot.parked += 1;
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
            slot.parked -= 1;
        }
    }

    fn is_done(&self) -> bool {
        self.lock().result.is_some()
    }
}

/// Handle on one submitted workflow. Obtained from
/// [`RestoreService::submit`](crate::RestoreService::submit); redeem it
/// with [`SubmitHandle::wait`].
#[derive(Debug)]
pub struct SubmitHandle {
    pub(crate) id: u64,
    pub(crate) tenant: Option<String>,
    pub(crate) ticket: Arc<Ticket>,
    /// Weak, so a handle kept after `shutdown` pins neither the pool
    /// nor the driver session behind it.
    pub(crate) pool: Weak<Shared>,
}

impl SubmitHandle {
    /// Service-assigned submission id (monotonic per service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this submission executes as.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Has the workflow finished (successfully or not)?
    pub fn is_done(&self) -> bool {
        self.ticket.is_done()
    }

    /// Block until the workflow completes and return its result.
    ///
    /// A waiting submitter runs its own submission: if no pool thread
    /// has taken it yet and it is what the scheduler would start next
    /// (dispatch not paused, no conflicting earlier submission queued
    /// or running, no barrier in flight), it executes on the calling
    /// thread — same failure policy, same accounting — instead of being
    /// carried to a pool thread and back. In every other case the
    /// caller parks until a pool thread has run it. Either way the
    /// result is the one a pool thread would have produced.
    ///
    /// Idempotent, from any number of threads: the workflow runs once,
    /// every caller gets its result, and the handle stays usable, so a
    /// completed submission can still be explained with
    /// [`RestoreService::trace`](crate::RestoreService::trace).
    pub fn wait(&self) -> Result<QueryExecution, ServiceError> {
        self.ticket.wait(|| {
            if let Some(pool) = self.pool.upgrade() {
                pool.run_own(self.id);
            }
        })
    }
}
