//! Continuous incremental checkpointing at the service layer: captures
//! complete **without draining in-flight workflows**, checkpoint sets
//! recover to the exact session state, and compaction folds the
//! journal into a fresh base without ever pausing dispatch.

use restore_core::{JournalConfig, ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::EngineConfig;
use restore_pigmix::{datagen, queries, DataScale};
use restore_service::{
    CheckpointConfig, FaultInjector, RestoreService, ServiceConfig, ServiceError,
};
use restore_testkit::{engine_over, small_dfs};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SEED: u64 = 0xC0FFEE;

fn shared_dfs() -> Dfs {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None }),
        &[],
    );
    datagen::generate(&dfs, &DataScale::tiny(), SEED).expect("data generation");
    dfs
}

fn service_over(dfs: Dfs, workers: usize) -> RestoreService {
    let engine =
        engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 2 }));
    let rs = ReStore::new(engine, ReStoreConfig::default());
    RestoreService::new(
        rs,
        ServiceConfig { workers, queue_depth: 256, max_inflight_per_tenant: 64 },
    )
}

#[test]
fn checkpoint_before_begin_is_rejected() {
    let svc = service_over(shared_dfs(), 1);
    assert!(matches!(svc.checkpoint_incremental(), Err(ServiceError::CheckpointsNotEnabled)));
    assert!(svc.checkpoint_set().is_none());
}

/// A fault injector that holds the first attempt it sees inside the
/// injector — in flight, on whichever thread dispatched it — until the
/// test lets go. Every later attempt passes straight through.
struct HoldFirst {
    entered: Mutex<Sender<u64>>,
    release: Mutex<Option<Receiver<()>>>,
}

impl FaultInjector for HoldFirst {
    fn inject(&self, _tenant: Option<&str>, id: u64, _attempt: u32) -> Option<String> {
        let held = self.release.lock().unwrap().take();
        if let Some(release) = held {
            let _ = self.entered.lock().unwrap().send(id);
            // A test that failed has dropped the sender: carry on, so
            // the service under it can wind down.
            let _ = release.recv();
        }
        None
    }
}

/// The acceptance property: a capture taken while a workflow is in
/// flight returns with that workflow **still in flight** — the
/// incremental path never drain-quiesces the pool. The workflow is held
/// in flight by the fault injector, so the property is checked whatever
/// the thread timing: a sub-millisecond run cannot be caught in flight
/// by polling `stats()` on a host that gives the test one core.
#[test]
fn checkpoint_incremental_completes_with_zero_drain() {
    let svc = service_over(shared_dfs(), 2);
    svc.checkpoint_begin(CheckpointConfig::default());
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    svc.set_fault_injector(Some(Arc::new(HoldFirst {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(Some(release_rx)),
    })));

    // Eight multi-job L3 workflows through two workers: whichever
    // starts first stays in flight, the rest run and journal around it.
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let query = queries::l3(&format!("/out/zd/q{i}"));
            svc.submit(Some("ana"), &query, &format!("/wf/zd/q{i}")).expect("admitted")
        })
        .collect();
    entered.recv_timeout(Duration::from_secs(20)).expect("the pool starts one");
    assert!(svc.stats().running > 0);

    let outcome = svc.checkpoint_incremental().expect("capture under load");
    assert!(svc.stats().running > 0, "the capture returned with a workflow still in flight");
    assert!(outcome.base_bytes > 0);

    release.send(()).unwrap();
    for h in handles {
        h.wait().expect("workflow completes");
    }
}

/// Checkpoint sets taken across a workload recover to the exact
/// session state of the moment the last delta was captured.
#[test]
fn checkpoint_set_recovers_the_session_byte_identically() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 2);
    svc.checkpoint_begin(CheckpointConfig::default());

    for round in 0..3 {
        let mut handles = Vec::new();
        for (tenant, q) in [("ana", 0), ("bo", 1)] {
            let out = format!("/out/ck/r{round}t{tenant}");
            let wf = format!("/wf/ck/r{round}t{tenant}");
            let query = if q == 0 { queries::l3(&out) } else { queries::l8(&out) };
            handles.push(svc.submit(Some(tenant), &query, &wf).expect("admitted"));
        }
        for h in handles {
            h.wait().expect("completes");
        }
        svc.checkpoint_incremental().expect("capture");
    }
    // Quiesce so the live reference state stops moving, then take one
    // final delta so the set covers everything.
    svc.drain();
    svc.checkpoint_incremental().expect("final capture");
    let set = svc.checkpoint_set().expect("enabled");
    let reference = svc.driver().save_state();

    let resumed = service_over(dfs, 2);
    let report = resumed.restore_incremental(&set).expect("recovery");
    assert!(report.torn_tail.is_none());
    assert_eq!(resumed.driver().save_state(), reference, "recovered state must match the live one");

    // And the recovered service serves warm hits from the journaled
    // repository.
    let h =
        resumed.submit(Some("ana"), &queries::l3("/out/ck/r0tana"), "/wf/warm").expect("admitted");
    let e = h.wait().expect("completes");
    assert!(
        e.jobs_skipped > 0 || !e.rewrites.is_empty(),
        "recovered repository must keep serving reuse"
    );
}

/// Restoring onto a service that is itself checkpointing rebases the
/// keeper: post-restore captures describe the restored lineage, not a
/// splice of old and new.
#[test]
fn restore_rebases_the_checkpoint_keeper() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 2);
    svc.checkpoint_begin(CheckpointConfig::default());

    // Epoch 1: some work, checkpointed.
    svc.submit(Some("ana"), &queries::l3("/out/rb/e1"), "/wf/rb/e1").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    let epoch1 = svc.checkpoint_set().unwrap();

    // Epoch 2: diverge, then roll back to epoch 1.
    svc.submit(Some("bo"), &queries::l8("/out/rb/e2"), "/wf/rb/e2").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    svc.restore_incremental(&epoch1).expect("rollback");

    // Epoch 3: new work on the restored lineage; the set taken now
    // must reproduce the live state exactly (no epoch-2 residue, no
    // stale base).
    svc.submit(Some("ana"), &queries::l3("/out/rb/e3"), "/wf/rb/e3").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    let set = svc.checkpoint_set().unwrap();
    let reference = svc.driver().save_state();

    let resumed = service_over(dfs, 1);
    resumed.restore_incremental(&set).expect("recovery");
    assert_eq!(
        resumed.driver().save_state(),
        reference,
        "post-restore checkpoint sets must describe the restored lineage"
    );
}

/// A set with no segments is a plain `save_state` document: restoring
/// it reproduces the dump byte for byte — the one way a dump comes back
/// into a service.
#[test]
fn restore_incremental_of_a_bare_base_reproduces_it_byte_for_byte() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 2);
    svc.driver().set_config_as(
        Some("bo"),
        ReStoreConfig { register_final_outputs: false, ..Default::default() },
    );
    svc.submit(Some("ana"), &queries::l3("/out/bb/a"), "/wf/bb/a").unwrap().wait().unwrap();
    svc.submit(Some("bo"), &queries::l8("/out/bb/b"), "/wf/bb/b").unwrap().wait().unwrap();
    svc.drain();
    let base = svc.driver().save_state();

    let resumed = service_over(dfs, 1);
    let set = restore_service::CheckpointSet { base: base.clone(), segments: Vec::new() };
    let report = resumed.restore_incremental(&set).expect("a bare base restores");
    assert_eq!((report.records_applied, report.records_skipped), (0, 0));
    assert!(report.torn_tail.is_none());
    assert_eq!(resumed.driver().save_state(), base);
}

/// Crash **mid-compaction**: a fold writes `keeper.base` and then
/// clears the segment list; a process dying between the two persists a
/// fresh base still carrying the pre-fold segments. Sequence anchoring
/// makes that splice harmless — every stale record is at or below the
/// new base's anchor, so recovery skips them all and lands on the same
/// state as the uninterrupted set.
#[test]
fn crash_between_fold_and_segment_clear_recovers_identically() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 2);
    // Default ratio: no fold triggers on its own, so the segment list
    // below is exactly what a fold would find (and fail to clear).
    svc.checkpoint_begin(CheckpointConfig::default());

    svc.submit(Some("ana"), &queries::l3("/out/mc/e1"), "/wf/mc/e1").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    svc.submit(Some("bo"), &queries::l8("/out/mc/e2"), "/wf/mc/e2").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    let pre_fold = svc.checkpoint_set().unwrap();
    assert!(!pre_fold.segments.is_empty(), "the splice needs stale segments to carry");

    // The torn artifact: the fold's fresh base has been written, the
    // old segments have not been cleared.
    let fresh_base = svc.driver().save_state();
    let spliced =
        restore_service::CheckpointSet { base: fresh_base.clone(), segments: pre_fold.segments };

    let interrupted = service_over(dfs, 1);
    let report = interrupted.restore_incremental(&spliced).expect("spliced recovery");
    assert_eq!(report.records_applied, 0, "every stale record sits at or below the fold anchor");
    assert!(report.records_skipped > 0, "the splice must actually carry stale records");
    assert_eq!(
        interrupted.driver().save_state(),
        fresh_base,
        "a crash between fold and clear must not change the recovered state"
    );
}

/// A tight compaction ratio folds the journal into a fresh base; the
/// compacted set stays recoverable and keeps shrinking its segment
/// list.
#[test]
fn compaction_folds_segments_into_a_fresh_base() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 2);
    // Ratio 0: any journaled byte triggers a fold — every capture
    // compacts.
    svc.checkpoint_begin(CheckpointConfig {
        journal: JournalConfig { segment_bytes: 4 * 1024 },
        compact_ratio: 0.0,
    });

    let mut saw_compaction = false;
    for round in 0..3 {
        let out = format!("/out/cp/r{round}");
        let h = svc.submit(None, &queries::l3(&out), &format!("/wf/cp/r{round}")).unwrap();
        h.wait().expect("completes");
        let outcome = svc.checkpoint_incremental().expect("capture");
        saw_compaction |= outcome.compacted;
        if outcome.compacted {
            assert_eq!(outcome.journal_bytes, 0, "a fold leaves no journal riding the base");
        }
    }
    assert!(saw_compaction, "ratio 0 must compact");
    assert!(svc.checkpoint_compactions() > 0);

    svc.drain();
    svc.checkpoint_incremental().expect("final capture");
    let set = svc.checkpoint_set().unwrap();
    let reference = svc.driver().save_state();
    let resumed = service_over(dfs, 1);
    resumed.restore_incremental(&set).expect("recovery");
    assert_eq!(resumed.driver().save_state(), reference);
}

/// A checkpoint set can name a stored file that is gone by the time it
/// is restored. Restored into the same session — whose provenance check
/// last found everything present, with no DFS change since — the first
/// query after the restore must still find the file missing and forget
/// it: the restored table is new, whatever the DFS clock says.
#[test]
fn the_first_query_after_a_restore_forgets_a_missing_path() {
    let dfs = shared_dfs();
    let svc = service_over(dfs.clone(), 1);
    svc.checkpoint_begin(CheckpointConfig::default());
    svc.submit(None, &queries::l3("/out/mp/l3"), "/wf/mp/a").unwrap().wait().unwrap();
    svc.submit(None, &queries::l8("/out/mp/l8"), "/wf/mp/b").unwrap().wait().unwrap();
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    let set = svc.checkpoint_set().unwrap();
    let entries = |svc: &RestoreService| svc.driver().stats_as(None).provenance_entries;
    let recorded = entries(&svc);

    // Gone behind the session's back: the next query forgets it, and a
    // job-free rerun after that finds the table whole.
    assert!(dfs.delete("/out/mp/l8"));
    let warm = |wf: &str| {
        let e = svc.submit(None, &queries::l3("/out/mp/l3b"), wf).unwrap().wait().unwrap();
        assert!(e.job_results.is_empty(), "answered from the repository");
    };
    warm("/wf/mp/c");
    assert_eq!(entries(&svc), recorded - 1);
    warm("/wf/mp/d");

    // The set still names the file.
    svc.restore_incremental(&set).expect("restore");
    assert_eq!(entries(&svc), recorded);
    assert!(!dfs.exists("/out/mp/l8"));
    warm("/wf/mp/e");
    assert_eq!(entries(&svc), recorded - 1, "the first query after the restore forgets it");
    svc.drain();
    svc.checkpoint_incremental().unwrap();
    let segments = svc.checkpoint_set().unwrap().segments.concat();
    assert!(segments.contains("\nforget \"/out/mp/l8\"\n"), "and journals the forget");
}
