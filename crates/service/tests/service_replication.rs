//! Warm-standby replication at the service layer: an attached standby
//! tails the primary's journal shipments while the worker pool runs,
//! failover is a promote (queue drain + parity check) that serves warm
//! **without touching any checkpoint**, lost shipments fail promotion
//! with a typed parity error, and a service-level rollback diverges the
//! lineage and self-heals through the tailer's resync request.

use restore_core::{
    InProcessLink, ReStore, ReStoreConfig, ReplicationError, ReplicationTransport, Shipment,
};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::{datagen, queries, DataScale};
use restore_service::{CheckpointConfig, RestoreService, ServiceConfig, ServiceError, Standby};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 0xFA11;

fn shared_dfs() -> Dfs {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    dfs
}

fn session_over(dfs: Dfs) -> ReStore {
    let engine = Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
    );
    ReStore::new(engine, ReStoreConfig::default())
}

fn service_config(workers: usize) -> ServiceConfig {
    ServiceConfig { workers, queue_depth: 256, max_inflight_per_tenant: 64 }
}

fn service_over(dfs: Dfs, workers: usize) -> RestoreService {
    RestoreService::new(session_over(dfs), service_config(workers))
}

/// The failover story end to end: a standby tailing a live two-worker
/// service catches up to byte parity, survives the primary's shutdown,
/// and promotes into a service that answers the old workload warm —
/// with no checkpoint set ever captured or restored.
#[test]
fn standby_promotes_warm_after_primary_shutdown() {
    let dfs = shared_dfs();
    let primary = service_over(dfs.clone(), 2);
    let link = InProcessLink::new();
    primary.attach_standby(link.clone()).expect("attach");
    assert_eq!(primary.standby_count(), 1);
    let standby = Standby::attach(session_over(dfs), link);

    for round in 0..3 {
        let mut handles = Vec::new();
        for (tenant, q) in [("ana", 0), ("bo", 1)] {
            let out = format!("/out/fo/r{round}t{tenant}");
            let wf = format!("/wf/fo/r{round}t{tenant}");
            let query = if q == 0 { queries::l3(&out) } else { queries::l8(&out) };
            handles.push(primary.submit(Some(tenant), &query, &wf).expect("admitted"));
        }
        for h in handles {
            h.wait().expect("completes");
        }
    }
    primary.drain();
    primary.ship_now();
    assert!(standby.wait_caught_up(Duration::from_secs(30)), "standby must catch up");
    assert_eq!(primary.replication_lag_records(), 0);

    let reference = primary.driver().save_state();
    assert_eq!(
        standby.replica().driver().save_state(),
        reference,
        "caught-up standby must be byte-identical"
    );
    let metrics = primary.render_metrics();
    for family in ["restore_replication_lag_seconds", "restore_replication_records_shipped"] {
        assert!(metrics.contains(family), "primary must expose {family}");
    }
    assert!(metrics.contains("restore_replication_standbys 1"), "standby gauge renders");

    // Kill the primary; promote the standby. No checkpoint set exists
    // anywhere in this test — the promoted state came only from the
    // shipped record stream.
    primary.shutdown();
    let promoted = standby.promote(service_config(2)).expect("promotion");
    assert_eq!(promoted.driver().save_state(), reference, "promotion preserves the warm state");

    let h = promoted
        .submit(Some("ana"), &queries::l3("/out/fo/r0tana"), "/wf/fo/warm")
        .expect("admitted");
    let e = h.wait().expect("completes");
    assert!(
        e.jobs_skipped > 0 || !e.rewrites.is_empty(),
        "promoted standby must serve the old workload warm"
    );
}

/// Losing a shipment mid-stream must surface at promotion: the standby
/// saw a later shipment announce records it could not apply (seq gap),
/// so the parity gate refuses to promote over the hole.
#[test]
fn promote_refuses_parity_over_lost_shipments() {
    let dfs = shared_dfs();
    let primary = service_over(dfs.clone(), 1);
    let link = InProcessLink::new();
    primary.attach_standby(link.clone()).expect("attach");
    let standby = Standby::attach_manual(session_over(dfs), link.clone());
    assert!(standby.tail_all() > 0, "the anchoring base must arrive");

    // First workflow's shipments are lost in transit.
    primary.submit(Some("ana"), &queries::l3("/out/lp/a"), "/wf/lp/a").unwrap().wait().unwrap();
    primary.drain();
    primary.ship_now();
    while link.try_recv().is_some() {}

    // The second workflow's segment announces seqs past the hole.
    primary.submit(Some("bo"), &queries::l8("/out/lp/b"), "/wf/lp/b").unwrap().wait().unwrap();
    primary.drain();
    primary.ship_now();
    assert!(standby.tail_all() > 0, "the post-loss segment must arrive");
    assert!(standby.replica().verify_parity().is_err());

    match standby.promote(service_config(1)) {
        Err(ServiceError::Replication(ReplicationError::Parity { shipped, applied })) => {
            assert!(shipped > applied, "the gap is visible in the parity pair");
        }
        Ok(_) => panic!("promotion must refuse a standby with lost records"),
        Err(e) => panic!("expected a parity refusal, got {e}"),
    }
}

/// A service-level rollback (`restore_incremental`) replays state the
/// journal never shipped: the standby's tailer sees the lineage break,
/// requests a resync on its own, and the next shipping beat re-anchors
/// it to byte parity with the rolled-back primary.
#[test]
fn rollback_on_the_primary_diverges_and_the_tailer_self_heals() {
    let dfs = shared_dfs();
    let primary = service_over(dfs.clone(), 1);
    primary.checkpoint_begin(CheckpointConfig::default());
    let link = InProcessLink::new();
    primary.attach_standby(link.clone()).expect("attach");
    let standby = Standby::attach(session_over(dfs), link);

    // Epoch 1, checkpointed; epoch 2 diverges; then roll back.
    primary.submit(Some("ana"), &queries::l3("/out/rh/e1"), "/wf/rh/e1").unwrap().wait().unwrap();
    primary.drain();
    primary.checkpoint_incremental().expect("capture");
    let epoch1 = primary.checkpoint_set().expect("enabled");
    primary.submit(Some("bo"), &queries::l8("/out/rh/e2"), "/wf/rh/e2").unwrap().wait().unwrap();
    primary.drain();
    primary.restore_incremental(&epoch1).expect("rollback");

    // New work on the restored lineage: shipped segments now carry a
    // lineage token the standby has never anchored. The tailer refuses
    // them and requests a resync; each shipping beat below gives the
    // primary a chance to honor it.
    primary.submit(Some("ana"), &queries::l3("/out/rh/e3"), "/wf/rh/e3").unwrap().wait().unwrap();
    primary.drain();
    let mut healed = false;
    for _ in 0..100 {
        primary.ship_now();
        if standby.wait_caught_up(Duration::from_millis(100)) && standby.replica().resyncs() > 0 {
            healed = true;
            break;
        }
    }
    assert!(healed, "the tailer must resync past the lineage break on its own");
    assert_eq!(
        standby.replica().driver().save_state(),
        primary.driver().save_state(),
        "post-resync standby must match the rolled-back primary"
    );
    let resync_metrics = standby.replica().driver().registry().render();
    assert!(
        resync_metrics.contains("restore_replica_resyncs"),
        "standby must expose the resync counter"
    );
}

/// A link whose `try_recv`, once armed, takes the shipment off the queue
/// and then parks until released: the shipment is received but not yet
/// applied for exactly as long as the test wants.
struct ParkingLink {
    inner: Arc<InProcessLink>,
    /// `(received, release)`: armed when present.
    park: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl ReplicationTransport for ParkingLink {
    fn ship(&self, shipment: Shipment) -> Result<(), ReplicationError> {
        self.inner.ship(shipment)
    }
    fn wait_queued(&self, timeout: Duration) -> bool {
        self.inner.wait_queued(timeout)
    }
    fn try_recv(&self) -> Option<Shipment> {
        let shipment = self.inner.try_recv();
        if let Some((received, release)) = self.park.lock().unwrap().take() {
            received.send(()).unwrap();
            release.recv().unwrap();
        }
        shipment
    }
    fn request_resync(&self) {
        self.inner.request_resync()
    }
    fn take_resync_request(&self) -> bool {
        self.inner.take_resync_request()
    }
    fn close(&self) {
        self.inner.close()
    }
    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }
    fn queued(&self) -> usize {
        self.inner.queued()
    }
}

/// "Caught up" means *applied*. A shipment the tailer has taken off the
/// queue but not finished applying leaves the queue empty and the parity
/// target where it was — the window in which `wait_caught_up` used to
/// answer one segment early.
#[test]
fn wait_caught_up_stays_false_while_a_received_shipment_is_unapplied() {
    let dfs = shared_dfs();
    let primary = service_over(dfs.clone(), 1);
    let link = InProcessLink::new();
    primary.attach_standby(link.clone()).expect("attach");
    let parking = Arc::new(ParkingLink { inner: link.clone(), park: Mutex::new(None) });
    let standby = Standby::attach_manual(session_over(dfs), parking.clone());
    assert!(standby.tail_all() > 0, "the anchoring base must arrive");

    primary.submit(Some("ana"), &queries::l3("/out/pk/a"), "/wf/pk/a").unwrap().wait().unwrap();
    primary.drain();
    primary.ship_now();
    assert!(link.queued() > 0, "the workflow's records must ship");
    while link.queued() > 1 {
        assert!(standby.tail_once().expect("applies"));
    }

    let (received_tx, received_rx) = channel();
    let (release_tx, release_rx) = channel();
    *parking.park.lock().unwrap() = Some((received_tx, release_rx));
    std::thread::scope(|scope| {
        let tailing = scope.spawn(|| standby.tail_once());
        received_rx.recv().expect("the tailer takes the last shipment");
        // Observe first, release, then assert: a failed assertion must
        // not leave the tailer parked inside the scope.
        let queued = link.queued();
        let parity_unmoved = standby.replica().verify_parity().is_ok();
        let caught_up = standby.wait_caught_up(Duration::from_millis(50));
        release_tx.send(()).unwrap();
        assert!(tailing.join().unwrap().expect("applies"));
        assert_eq!(queued, 0, "the queue was empty");
        assert!(parity_unmoved, "the parity target had not moved yet");
        assert!(!caught_up, "a received-but-unapplied shipment is not caught up");
    });
    assert!(standby.wait_caught_up(Duration::from_secs(30)));
    assert_eq!(standby.replica().driver().save_state(), primary.driver().save_state());
}
