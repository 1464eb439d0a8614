//! Lockstep replication parity: a warm standby tailing the primary's
//! journal shipments is **byte-identical** to the primary at every
//! shipped boundary, and every divergence (lineage break, lost
//! shipment, segments before a base) is a typed refusal healed by a
//! full-base resync.

use proptest::prelude::*;
use restore_core::{
    InProcessLink, ReStore, ReStoreConfig, ReplicaSession, ReplicationError, ReplicationTransport,
    Replicator, Shipment,
};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use std::sync::Arc;

fn dfs() -> Dfs {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
    dfs
}

fn engine_over(dfs: Dfs) -> Engine {
    Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
}

fn session(dfs: Dfs) -> Arc<ReStore> {
    Arc::new(ReStore::new(engine_over(dfs), ReStoreConfig::default()))
}

fn sum_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         R = foreach G generate group, SUM(A.n);
         store R into '{out}';"
    )
}

fn join_query(out: &str) -> String {
    format!(
        "A = load '/data/pv' as (user, revenue:int);
         B = load '/data/users' as (name, city);
         C = join B by name, A by user;
         D = group C by $0;
         E = foreach D generate group, SUM(C.revenue);
         store E into '{out}';"
    )
}

/// One step of the generated workload: cold queries in two namespaces,
/// warm reruns (note-use records), config changes — every record kind
/// the journal ships.
fn run_op(rs: &ReStore, op: u8, i: usize) {
    match op % 4 {
        0 => {
            rs.execute_query(&sum_query(&format!("/out/p{i}")), &format!("/wf/p{i}")).unwrap();
        }
        1 => {
            rs.execute_query_as(Some("ana"), &join_query(&format!("/out/t{i}")), "/wf/t").unwrap();
        }
        2 => {
            rs.execute_query(&sum_query(&format!("/out/w{i}")), "/wf/warm").unwrap();
        }
        _ => {
            rs.set_config_as(
                Some("tuned"),
                ReStoreConfig { register_final_outputs: i.is_multiple_of(2), ..Default::default() },
            );
        }
    }
}

fn drain(replica: &ReplicaSession, link: &InProcessLink) {
    while let Some(s) = link.try_recv() {
        replica.apply_shipment(&s).expect("healthy shipment applies");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole property: execute an arbitrary workload on the
    /// primary, ship after every step, and the standby's full dump is
    /// byte-identical to the primary's at **every** shipped boundary.
    #[test]
    fn standby_is_byte_identical_at_every_shipped_boundary(
        ops in proptest::collection::vec(0u8..4, 1..6),
    ) {
        let dfs = dfs();
        let primary = session(dfs.clone());
        let standby = session(dfs);
        let link = InProcessLink::new();
        let rep = Replicator::attach(primary.clone(), link.clone()).expect("attach");
        let replica = ReplicaSession::over(standby);
        drain(&replica, &link);
        prop_assert!(replica.is_synced());
        prop_assert_eq!(replica.driver().save_state(), primary.save_state());

        for (i, &op) in ops.iter().enumerate() {
            run_op(&primary, op, i);
            rep.pump().expect("shipping beat");
            drain(&replica, &link);
            prop_assert_eq!(
                replica.driver().save_state(),
                primary.save_state(),
                "standby diverged after op {} (kind {})", i, op % 4
            );
            prop_assert_eq!(replica.applied_seq(), rep.shipped_seq());
        }
        prop_assert!(replica.verify_parity().is_ok());
        prop_assert_eq!(replica.resyncs(), 0, "a healthy run never resyncs");
    }
}

#[test]
fn segments_before_a_base_are_refused() {
    let standby = session(dfs());
    let replica = ReplicaSession::over(standby);
    let shipment = Shipment::Segments { lineage: 1, last_seq: 5, segments: Vec::new() };
    assert_eq!(replica.apply_shipment(&shipment), Err(ReplicationError::NotSynced));
    assert_eq!(replica.verify_parity(), Err(ReplicationError::NotSynced));
}

/// An un-journaled replay on the primary (`recover`) replaces state the
/// record stream never described: the lineage token moves, the standby
/// refuses the next segment with a typed mismatch, and a full-base
/// resync re-anchors it back to byte parity.
#[test]
fn recovery_on_the_primary_breaks_lineage_and_resync_heals() {
    let dfs = dfs();
    let primary = session(dfs.clone());
    let link = InProcessLink::new();
    let rep = Replicator::attach(primary.clone(), link.clone()).expect("attach");
    let replica = ReplicaSession::over(session(dfs));
    drain(&replica, &link);

    primary.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    rep.pump().unwrap();
    drain(&replica, &link);
    assert_eq!(replica.driver().save_state(), primary.save_state());

    // Roll the primary back through the recovery path — a state change
    // no journal record describes.
    let checkpoint = primary.save_state();
    primary.recover(&checkpoint, &[]).unwrap();
    primary.execute_query(&sum_query("/out/b"), "/wf/b").unwrap();
    rep.pump().unwrap();

    let mut diverged = false;
    while let Some(s) = link.try_recv() {
        match replica.apply_shipment(&s) {
            Ok(()) => {}
            Err(ReplicationError::DivergedLineage { ours, theirs }) => {
                assert_ne!(ours, theirs);
                diverged = true;
                link.request_resync();
            }
            Err(e) => panic!("expected a lineage refusal, got {e}"),
        }
    }
    assert!(diverged, "the post-recovery segment must be refused");

    // The next shipping beat honors the resync request with a fresh
    // base; the standby re-anchors and is byte-identical again.
    rep.pump().unwrap();
    drain(&replica, &link);
    assert_eq!(replica.resyncs(), 1);
    assert!(replica.verify_parity().is_ok());
    assert_eq!(replica.driver().save_state(), primary.save_state());
}

/// A lost segment shipment leaves a hole in the record stream: the next
/// segment is refused as a seq gap (never silently applied), and
/// `ship_from` at the standby's applied seq heals with a full base.
#[test]
fn lost_shipment_is_a_seq_gap_and_ship_from_heals() {
    let dfs = dfs();
    let primary = session(dfs.clone());
    let link = InProcessLink::new();
    let rep = Replicator::attach(primary.clone(), link.clone()).expect("attach");
    let replica = ReplicaSession::over(session(dfs));
    drain(&replica, &link);

    // Lose everything this query shipped.
    primary.execute_query(&sum_query("/out/a"), "/wf/a").unwrap();
    rep.pump().unwrap();
    while link.try_recv().is_some() {}

    primary.execute_query(&join_query("/out/b"), "/wf/b").unwrap();
    rep.pump().unwrap();
    let mut gapped = false;
    while let Some(s) = link.try_recv() {
        match replica.apply_shipment(&s) {
            Ok(()) => {}
            Err(ReplicationError::SeqGap { expected, got }) => {
                assert!(got > expected, "the gap skips lost records");
                gapped = true;
            }
            Err(e) => panic!("expected a seq gap, got {e}"),
        }
    }
    assert!(gapped, "the post-loss segment must be refused");
    // The refused shipment still advanced the parity target: promotion
    // could not pass over the lost records.
    assert!(replica.verify_parity().is_err());

    rep.ship_from(replica.applied_seq()).expect("resync from the standby's seq");
    drain(&replica, &link);
    assert_eq!(replica.resyncs(), 1);
    assert!(replica.verify_parity().is_ok());
    assert_eq!(replica.driver().save_state(), primary.save_state());
}
