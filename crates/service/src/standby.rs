//! The warm-standby endpoint: a [`ReplicaSession`] tailing a
//! replication transport, promotable into a serving
//! [`RestoreService`].
//!
//! A standby is a fresh driver session in (typically) another process
//! slot, continuously replaying the primary's shipped journal records
//! — its repository, provenance, and counters track the primary at
//! shipping granularity. **Promotion** is then the whole failover
//! story: stop tailing, drain whatever shipments are still queued,
//! verify seq parity with everything the primary announced, and start
//! a worker pool over the already-warm session. No disk is touched —
//! the state was never serialized to a checkpoint file on this path.
//!
//! Divergence handling is delegated to the replay layer: when
//! [`ReplicaSession::apply_shipment`] reports a seq gap or a lineage
//! mismatch, the tailer requests a full-base resync over the
//! transport's back channel and keeps tailing — the primary's next
//! pump ships a fresh base.

use crate::{RestoreService, ServiceConfig, ServiceError};
use restore_core::{ReStore, ReplicaSession, ReplicationError, ReplicationTransport};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A standby session attached to the far end of a replication
/// transport. Build with [`Standby::attach`] (background tail thread)
/// or [`Standby::attach_manual`] (caller-driven, deterministic);
/// promote with [`Standby::promote`]. Dropping a standby stops the
/// tailer and closes the transport, which detaches it from the primary
/// at its next shipping beat.
pub struct Standby {
    tail: Arc<Tail>,
    stop: Arc<AtomicBool>,
    tailer: Option<JoinHandle<()>>,
}

/// What tailing needs, shared between the standby handle and its
/// background thread.
struct Tail {
    replica: Arc<ReplicaSession>,
    transport: Arc<dyn ReplicationTransport>,
    /// Receive-and-apply steps in progress. Raised *before* a shipment
    /// leaves the queue and lowered after it is applied, so "queue empty
    /// and nothing in flight" means every received shipment has moved
    /// the parity target.
    in_flight: AtomicUsize,
}

impl Tail {
    /// Receive and apply one queued shipment, if any. Divergence (seq
    /// gap, diverged lineage, corruption) requests a full-base resync —
    /// always the remedy — and surfaces the typed error.
    fn apply_next(&self) -> Option<Result<(), ReplicationError>> {
        self.in_flight.fetch_add(1, SeqCst);
        let applied = self.transport.try_recv().map(|shipment| {
            self.replica.apply_shipment(&shipment).inspect_err(|_| self.transport.request_resync())
        });
        self.in_flight.fetch_sub(1, SeqCst);
        applied
    }
}

impl Standby {
    /// Attach `restore` (a fresh session over the standby's engine) as
    /// a continuously tailing standby: a background thread receives and
    /// applies shipments as they arrive, requesting a resync on any
    /// divergence.
    pub fn attach(restore: ReStore, transport: Arc<dyn ReplicationTransport>) -> Standby {
        let mut standby = Standby::attach_manual(restore, transport);
        let tail = standby.tail.clone();
        let stop = standby.stop.clone();
        standby.tailer = Some(std::thread::spawn(move || {
            while !stop.load(SeqCst) {
                if tail.apply_next().is_none()
                    && !tail.transport.wait_queued(Duration::from_millis(25))
                    && tail.transport.is_closed()
                {
                    break;
                }
            }
        }));
        standby
    }

    /// Attach without a tail thread: the caller drives replay with
    /// [`Standby::tail_once`] / [`Standby::tail_all`]. Deterministic
    /// tests and benchmarks use this to control exactly when (and how
    /// much) replay happens.
    pub fn attach_manual(restore: ReStore, transport: Arc<dyn ReplicationTransport>) -> Standby {
        Standby {
            tail: Arc::new(Tail {
                replica: Arc::new(ReplicaSession::over(Arc::new(restore))),
                transport,
                in_flight: AtomicUsize::new(0),
            }),
            stop: Arc::new(AtomicBool::new(false)),
            tailer: None,
        }
    }

    /// The replay-side session state (applied seq, sync status, resync
    /// count, the wrapped driver).
    pub fn replica(&self) -> &Arc<ReplicaSession> {
        &self.tail.replica
    }

    /// Apply one queued shipment, if any. Divergence requests a resync
    /// (like the background tailer) and surfaces the typed error.
    pub fn tail_once(&self) -> Result<bool, ReplicationError> {
        self.tail.apply_next().map_or(Ok(false), |applied| applied.map(|()| true))
    }

    /// Drain the replay queue; returns shipments consumed. Divergent
    /// shipments request a resync and are dropped (the healing base is
    /// usually already behind them in the queue), matching the
    /// background tailer's behavior.
    pub fn tail_all(&self) -> usize {
        std::iter::from_fn(|| self.tail.apply_next()).count()
    }

    /// Block until the standby is synced, has *applied* everything the
    /// primary announced (nothing queued, nothing received but still
    /// being applied, seq parity) — or `timeout` passes. Returns whether
    /// it caught up.
    pub fn wait_caught_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // In-flight is read after the queue: a shipment seen in
            // neither place has been applied, because the marker rises
            // before the shipment leaves the queue.
            if self.tail.replica.is_synced()
                && self.tail.transport.queued() == 0
                && self.tail.in_flight.load(SeqCst) == 0
                && self.tail.replica.verify_parity().is_ok()
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Promote this standby into a serving primary: stop the tailer,
    /// drain every shipment still queued, close the transport, verify
    /// seq parity (every record the primary announced was applied — a
    /// shortfall is a typed [`ServiceError::Replication`]), and start a
    /// worker pool over the warm session. The session's journal seq
    /// continues from the replayed stream, so the promoted service can
    /// itself checkpoint or replicate onward without a re-anchor.
    pub fn promote(mut self, config: ServiceConfig) -> Result<RestoreService, ServiceError> {
        self.halt_tailer();
        while let Some(shipment) = self.tail.transport.try_recv() {
            self.tail.replica.apply_shipment(&shipment).map_err(ServiceError::Replication)?;
        }
        self.tail.transport.close();
        self.tail.replica.verify_parity().map_err(ServiceError::Replication)?;
        let driver = self.tail.replica.driver().clone();
        Ok(RestoreService::over(driver, config))
    }

    fn halt_tailer(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(tailer) = self.tailer.take() {
            let _ = tailer.join();
        }
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.halt_tailer();
        // Detach from the primary: its next shipping beat observes the
        // closed link and drops the journal tap.
        self.tail.transport.close();
    }
}
