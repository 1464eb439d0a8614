//! Journal-shipped warm standby replication.
//!
//! The snapshot journal is already an ordered, idempotent, seq-anchored
//! record stream — exactly what a warm standby needs to tail. This
//! module ships it: a [`Replicator`] on the primary forwards every
//! sealed journal segment (plus an anchoring `restore-state` base)
//! through a [`ReplicationTransport`], and a [`ReplicaSession`] on the
//! standby replays the records continuously through the same
//! idempotent `apply_record` path recovery uses. Failover is then a
//! queue drain, not a disk walk: the standby's tables are already
//! populated, so promotion serves warm immediately (the second ReStore
//! line of work — Hübner et al. — benchmarks exactly this axis:
//! recovery *time*, not just steady-state overhead).
//!
//! # Shipping protocol
//!
//! A shipment is either a full base or a batch of sealed segments
//! ([`Shipment`]); both carry the primary's **lineage token**. Segment
//! shipments additionally carry `last_seq`, the highest record seq
//! inside — the standby's catch-up target.
//!
//! * **Attach order.** The replicator registers its journal tap
//!   *before* capturing the anchoring base, so a record sealed during
//!   the capture cannot slip between the base and the first shipped
//!   segment. Segments that seal early carry seqs the base already
//!   covers; the standby skips them idempotently.
//! * **Shared seal.** Shipping seals the live segment
//!   (`Journal::seal`) without consuming the sealed queue, so the
//!   service's checkpoint keeper and replication observe the *same*
//!   segments — neither steals from the other.
//!
//! # Divergence rule
//!
//! The standby accepts a segment iff (a) the shipment's lineage equals
//! the lineage of its applied base and (b) the first record past its
//! `applied_seq` is exactly `applied_seq + 1` with the rest dense.
//! Records at or below `applied_seq` are idempotent redelivery and are
//! skipped. Anything else is a typed [`ReplicationError`] — a seq gap
//! means lost records, a lineage mismatch means the primary's state
//! was replaced by an un-journaled replay (recovery bumps the token) —
//! and the standby's remedy is always the same: request a **full-base
//! resync** over the transport's back channel and count it in
//! `restore_replica_resyncs`.
//!
//! # Telemetry
//!
//! The primary records `restore_replication_lag_seconds` (the
//! staleness window each shipment closes) and
//! `restore_replication_records_shipped_total`; the standby records
//! `restore_replica_resyncs_total`. All land in the respective
//! session's registry and render through the normal exposition.

use crate::driver::ReStore;
use crate::journal::{self, JournalConfig, Record, TapId};
use restore_common::Error;
use restore_telemetry::{Counter, Histogram};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a shipment was refused or a link failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicationError {
    /// The shipped record stream is not dense past the standby's
    /// applied seq: records were lost (or duplicated within one
    /// segment). The standby cannot reconcile by replay.
    SeqGap { expected: u64, got: u64 },
    /// The shipment's lineage token differs from the standby's base
    /// lineage: the primary's state was replaced by an un-journaled
    /// replay (recovery) since the standby anchored.
    DivergedLineage { ours: u64, theirs: u64 },
    /// Segments arrived before any base; the standby has nothing to
    /// replay onto.
    NotSynced,
    /// A shipped segment failed to decode. Shipped segments are sealed
    /// and complete, so even a torn tail is corruption here, not a
    /// crash artifact.
    Corrupt(Error),
    /// Applying a shipped base or record to the standby session failed.
    Apply(Error),
    /// The transport refused the shipment (peer gone, link closed).
    Disconnected,
    /// Promotion's parity check failed: the primary announced records
    /// the standby never applied.
    Parity { shipped: u64, applied: u64 },
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::SeqGap { expected, got } => {
                write!(f, "record seq gap: expected {expected}, got {got}")
            }
            ReplicationError::DivergedLineage { ours, theirs } => {
                write!(f, "diverged lineage: standby anchored at {ours}, shipment carries {theirs}")
            }
            ReplicationError::NotSynced => write!(f, "standby has no base to replay onto"),
            ReplicationError::Corrupt(e) => write!(f, "shipped segment corrupt: {e}"),
            ReplicationError::Apply(e) => write!(f, "replay failed: {e}"),
            ReplicationError::Disconnected => write!(f, "replication transport disconnected"),
            ReplicationError::Parity { shipped, applied } => {
                write!(f, "seq parity failed: primary shipped through {shipped}, standby applied {applied}")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

/// One unit shipped primary → standby.
#[derive(Debug, Clone)]
pub enum Shipment {
    /// A full `restore-state` document anchoring (or re-anchoring) the
    /// standby.
    Base { lineage: u64, state: String },
    /// Sealed journal segments; `last_seq` is the highest record seq
    /// inside — the standby's catch-up target.
    Segments { lineage: u64, last_seq: u64, segments: Vec<String> },
}

/// One replication link between a primary and a standby. The in-process
/// implementation below is a channel; the trait is deliberately
/// transport-shaped (blocking receive with timeout, back-channel resync
/// flag, explicit close) so a socket implementation can slot in without
/// touching either endpoint.
pub trait ReplicationTransport: Send + Sync {
    /// Primary side: enqueue a shipment for the standby.
    fn ship(&self, shipment: Shipment) -> Result<(), ReplicationError>;
    /// Standby side: block up to `timeout` until a shipment is queued,
    /// without receiving it. `false` on timeout or when the link is
    /// closed and drained. Waiting and receiving are separate calls so a
    /// tailer can mark itself busy *before* a shipment leaves the queue.
    fn wait_queued(&self, timeout: Duration) -> bool;
    /// Standby side: next shipment if one is already queued.
    fn try_recv(&self) -> Option<Shipment>;
    /// Standby → primary back channel: request a full-base resync.
    /// Idempotent; the flag holds until the primary consumes it.
    fn request_resync(&self);
    /// Primary side: consume a pending resync request.
    fn take_resync_request(&self) -> bool;
    /// Tear the link down: later ships fail, receives drain then stop.
    fn close(&self);
    fn is_closed(&self) -> bool;
    /// Shipments queued and not yet received.
    fn queued(&self) -> usize;
}

#[derive(Default)]
struct LinkState {
    queue: VecDeque<Shipment>,
    resync: bool,
    closed: bool,
}

/// The in-process [`ReplicationTransport`]: a mutex-and-condvar channel
/// for a standby living in the same process as its primary.
#[derive(Default)]
pub struct InProcessLink {
    state: Mutex<LinkState>,
    arrived: Condvar,
}

impl InProcessLink {
    pub fn new() -> Arc<InProcessLink> {
        Arc::new(InProcessLink::default())
    }
}

impl ReplicationTransport for InProcessLink {
    fn ship(&self, shipment: Shipment) -> Result<(), ReplicationError> {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return Err(ReplicationError::Disconnected);
        }
        state.queue.push_back(shipment);
        self.arrived.notify_one();
        Ok(())
    }

    fn wait_queued(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().unwrap();
        loop {
            if !state.queue.is_empty() {
                return true;
            }
            if state.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self.arrived.wait_timeout(state, deadline - now).unwrap();
            state = next;
        }
    }

    fn try_recv(&self) -> Option<Shipment> {
        self.state.lock().unwrap().queue.pop_front()
    }

    fn request_resync(&self) {
        self.state.lock().unwrap().resync = true;
    }

    fn take_resync_request(&self) -> bool {
        std::mem::take(&mut self.state.lock().unwrap().resync)
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.arrived.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }

    fn queued(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }
}

/// State shared between the [`Replicator`] handle and the journal tap
/// it registers. Holds no reference back to the session, so the
/// `ReStore → Journal → tap` chain cannot cycle.
struct ShipCore {
    transport: Arc<dyn ReplicationTransport>,
    /// Highest record seq shipped (segments) or covered by a shipped
    /// base — a standby at or past this can catch up from segments
    /// alone.
    shipped_seq: AtomicU64,
    records_shipped: Counter,
    /// Staleness window each shipment closes: seconds since the
    /// previous shipment left this link.
    lag: Histogram,
    last_ship: Mutex<Instant>,
}

impl ShipCore {
    fn note_ship(&self) {
        let mut last = self.last_ship.lock().unwrap();
        self.lag.record_elapsed(*last);
        *last = Instant::now();
    }

    /// Journal tap: forward one sealed segment. Ship failures (closed
    /// link) are dropped here — the pump surfaces the disconnect.
    fn ship_segment(&self, lineage: u64, segment: &str) {
        let Some((_, last_seq, frames)) = journal::segment_seq_span(segment) else {
            return;
        };
        let shipment =
            Shipment::Segments { lineage, last_seq, segments: vec![segment.to_string()] };
        if self.transport.ship(shipment).is_ok() {
            self.shipped_seq.fetch_max(last_seq, SeqCst);
            self.records_shipped.add(frames as u64);
            self.note_ship();
        }
    }
}

/// Primary-side shipping driver: owns one transport to one standby,
/// taps the session journal for sealed segments, and ships anchoring
/// bases on attach and on resync requests. Dropping the replicator
/// removes its tap; the standby keeps whatever it has applied.
pub struct Replicator {
    driver: Arc<ReStore>,
    core: Arc<ShipCore>,
    tap: TapId,
}

impl Replicator {
    /// Attach a standby behind `transport`: enable the journal if it is
    /// off, register the segment tap, and ship the anchoring base. The
    /// tap goes in *before* the base capture — see the module docs for
    /// why that ordering closes the attach race.
    pub fn attach(
        driver: Arc<ReStore>,
        transport: Arc<dyn ReplicationTransport>,
    ) -> Result<Replicator, ReplicationError> {
        if !driver.journal_enabled() {
            driver.enable_journal(JournalConfig::default());
        }
        let registry = driver.registry();
        let core = Arc::new(ShipCore {
            transport,
            shipped_seq: AtomicU64::new(0),
            records_shipped: registry.counter(
                "restore_replication_records_shipped_total",
                "Journal records shipped to standbys",
                &[],
            ),
            lag: registry.histogram(
                "restore_replication_lag_seconds",
                "Staleness window closed by each replication shipment",
                &[],
                1e-9,
            ),
            last_ship: Mutex::new(Instant::now()),
        });
        let tap_core = core.clone();
        let tap = driver
            .journal
            .add_tap(Arc::new(move |lineage, seg| tap_core.ship_segment(lineage, seg)));
        let replicator = Replicator { driver, core, tap };
        replicator.ship_base()?;
        Ok(replicator)
    }

    /// Capture and ship a full anchoring base; returns its anchor seq.
    pub fn ship_base(&self) -> Result<u64, ReplicationError> {
        let (state, seq, lineage) = self.driver.save_state_anchored();
        self.core.transport.ship(Shipment::Base { lineage, state })?;
        self.core.shipped_seq.fetch_max(seq, SeqCst);
        self.core.note_ship();
        Ok(seq)
    }

    /// One shipping beat: honor a pending resync request (full base),
    /// then flush the lazily tracked state and seal the live segment —
    /// sealed segments flow to the standby through the tap. The service
    /// calls this after every completed workflow.
    pub fn pump(&self) -> Result<(), ReplicationError> {
        if self.core.transport.is_closed() {
            return Err(ReplicationError::Disconnected);
        }
        if self.core.transport.take_resync_request() {
            self.ship_base()?;
        }
        self.driver.flush_and_seal_journal().map_err(ReplicationError::Apply)
    }

    /// Ship whatever a standby whose applied seq is `seq` is missing: a
    /// full base when `seq` is behind what segments alone can replay
    /// (the standby attached late or lost shipments), otherwise just a
    /// pump.
    pub fn ship_from(&self, seq: u64) -> Result<(), ReplicationError> {
        if seq < self.core.shipped_seq.load(SeqCst) {
            self.ship_base()?;
        }
        self.pump()
    }

    /// Highest record seq shipped or covered by a shipped base.
    pub fn shipped_seq(&self) -> u64 {
        self.core.shipped_seq.load(SeqCst)
    }

    /// Records journaled but not yet shipped (the live segment the next
    /// pump will seal).
    pub fn lag_records(&self) -> u64 {
        self.driver.journal_stats().seq.saturating_sub(self.shipped_seq())
    }
}

impl Drop for Replicator {
    fn drop(&mut self) {
        self.driver.journal.remove_tap(self.tap);
    }
}

/// Standby-side replay state around a [`ReStore`] session: applies
/// shipped bases via the recovery path and shipped segments via the
/// idempotent record-replay path, enforcing the divergence rule from
/// the module docs. The wrapped session's journal stays paused during
/// every replay, so the standby never re-records its primary's records.
pub struct ReplicaSession {
    driver: Arc<ReStore>,
    /// Lineage token of the applied base (meaningless until synced).
    lineage: AtomicU64,
    synced: AtomicBool,
    /// Highest record seq applied (or covered by the applied base).
    applied_seq: AtomicU64,
    /// Highest `last_seq` any accepted-lineage shipment announced —
    /// promotion's parity target.
    shipped_target: AtomicU64,
    records_applied: AtomicU64,
    records_skipped: AtomicU64,
    resyncs: Counter,
}

impl ReplicaSession {
    /// Wrap a (typically fresh) session as the standby.
    pub fn over(driver: Arc<ReStore>) -> ReplicaSession {
        let resyncs = driver.registry().counter(
            "restore_replica_resyncs_total",
            "Full-base resyncs applied after divergence",
            &[],
        );
        ReplicaSession {
            driver,
            lineage: AtomicU64::new(0),
            synced: AtomicBool::new(false),
            applied_seq: AtomicU64::new(0),
            shipped_target: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            records_skipped: AtomicU64::new(0),
            resyncs,
        }
    }

    /// The wrapped session. Read-only introspection is safe while the
    /// standby tails; promotion hands the session to a service.
    pub fn driver(&self) -> &Arc<ReStore> {
        &self.driver
    }

    pub fn is_synced(&self) -> bool {
        self.synced.load(SeqCst)
    }

    /// Highest record seq applied (or covered by the applied base).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(SeqCst)
    }

    /// Highest record seq the primary has announced on the current
    /// lineage; `applied_seq` must reach this for parity at promotion.
    pub fn shipped_target(&self) -> u64 {
        self.shipped_target.load(SeqCst)
    }

    /// `(records applied, records skipped as idempotent redelivery)`.
    pub fn record_counts(&self) -> (u64, u64) {
        (self.records_applied.load(SeqCst), self.records_skipped.load(SeqCst))
    }

    /// Full-base resyncs applied after the initial anchor.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.get()
    }

    /// Apply one shipment of either kind.
    pub fn apply_shipment(&self, shipment: &Shipment) -> Result<(), ReplicationError> {
        match shipment {
            Shipment::Base { lineage, state } => self.apply_base(*lineage, state),
            Shipment::Segments { lineage, last_seq, segments } => {
                if !self.is_synced() {
                    return Err(ReplicationError::NotSynced);
                }
                let ours = self.lineage.load(SeqCst);
                if *lineage != ours {
                    return Err(ReplicationError::DivergedLineage { ours, theirs: *lineage });
                }
                // Advance the parity target only for accepted-lineage
                // shipments (a stale-lineage target would outlive the
                // resync that voids it) but *before* applying: a seq
                // gap must leave the target ahead of `applied_seq` so
                // promotion cannot silently pass over lost records.
                self.shipped_target.fetch_max(*last_seq, SeqCst);
                for segment in segments {
                    self.apply_segment(segment)?;
                }
                Ok(())
            }
        }
    }

    /// Anchor (or re-anchor) the standby on a full base. Replays
    /// through the recovery path with an empty segment list; counted as
    /// a resync when the standby was already synced.
    fn apply_base(&self, lineage: u64, state: &str) -> Result<(), ReplicationError> {
        let report = self.driver.recover(state, &[]).map_err(ReplicationError::Apply)?;
        if self.synced.swap(true, SeqCst) {
            self.resyncs.inc();
        }
        self.lineage.store(lineage, SeqCst);
        self.applied_seq.store(report.base_seq, SeqCst);
        // A re-anchor voids every target announced before it (the
        // primary may have legitimately rolled back to a lower seq).
        self.shipped_target.store(report.base_seq, SeqCst);
        Ok(())
    }

    /// Replay one sealed segment: decode (any tear is corruption —
    /// shipped segments are complete), merge-sort by seq, skip records
    /// the standby already covers, verify the rest are exactly dense
    /// from `applied_seq + 1`, and apply. Returns `(applied, skipped)`.
    pub fn apply_segment(&self, segment: &str) -> Result<(usize, usize), ReplicationError> {
        if !self.is_synced() {
            return Err(ReplicationError::NotSynced);
        }
        let (records, _torn) =
            journal::decode_segment(segment, 0, false).map_err(ReplicationError::Corrupt)?;
        let mut records: Vec<(u64, Record)> = records;
        records.sort_by_key(|&(seq, _)| seq);
        let covered = self.applied_seq.load(SeqCst);
        let mut expected = covered + 1;
        let mut skipped = 0usize;
        let mut to_apply: Vec<Record> = Vec::new();
        for (seq, record) in records {
            if seq <= covered {
                // Idempotent redelivery: a segment sealed around the
                // anchoring base (or re-shipped) repeats covered seqs.
                skipped += 1;
                continue;
            }
            if seq != expected {
                // Missing seqs (gap) or a repeated seq within the new
                // range (duplicate) — both unreconcilable by replay.
                return Err(ReplicationError::SeqGap { expected, got: seq });
            }
            expected += 1;
            to_apply.push(record);
        }
        let applied = to_apply.len();
        if applied > 0 {
            let last = expected - 1;
            self.driver.replay_shipped(to_apply, last).map_err(ReplicationError::Apply)?;
            self.applied_seq.store(last, SeqCst);
        }
        self.records_applied.fetch_add(applied as u64, SeqCst);
        self.records_skipped.fetch_add(skipped as u64, SeqCst);
        Ok((applied, skipped))
    }

    /// Promotion's parity gate: every record the primary announced on
    /// the current lineage must have been applied.
    pub fn verify_parity(&self) -> Result<(), ReplicationError> {
        if !self.is_synced() {
            return Err(ReplicationError::NotSynced);
        }
        let shipped = self.shipped_target();
        let applied = self.applied_seq();
        if shipped != applied {
            return Err(ReplicationError::Parity { shipped, applied });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_link_ships_receives_and_closes() {
        let link = InProcessLink::new();
        assert_eq!(link.queued(), 0);
        link.ship(Shipment::Base { lineage: 1, state: "x".into() }).unwrap();
        assert_eq!(link.queued(), 1);
        assert!(matches!(link.try_recv(), Some(Shipment::Base { lineage: 1, .. })));
        assert!(!link.wait_queued(Duration::from_millis(5)));
        link.close();
        assert!(link.is_closed());
        assert_eq!(
            link.ship(Shipment::Base { lineage: 1, state: "x".into() }),
            Err(ReplicationError::Disconnected)
        );
    }

    #[test]
    fn resync_flag_is_sticky_until_taken() {
        let link = InProcessLink::new();
        assert!(!link.take_resync_request());
        link.request_resync();
        link.request_resync();
        assert!(link.take_resync_request());
        assert!(!link.take_resync_request());
    }

    #[test]
    fn queue_drains_after_close() {
        let link = InProcessLink::new();
        link.ship(Shipment::Base { lineage: 1, state: "x".into() }).unwrap();
        link.close();
        assert!(link.wait_queued(Duration::from_millis(5)));
        assert_eq!(link.queued(), 1, "waiting receives nothing");
        assert!(link.try_recv().is_some());
        assert!(!link.wait_queued(Duration::from_millis(5)));
    }
}
