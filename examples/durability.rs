//! Durability end to end, in three acts over one setup: a two-tenant
//! PigMix workload (L3 + L7 per tenant) served by `RestoreService`, and
//! three ways its session outlives the process that built it. In every
//! act only the DFS and the named artefact survive, and the warm rerun
//! must be answered from the recovered repositories.
//!
//! 1. **Quiesced snapshot → restart.** `RestoreService::snapshot`
//!    drain-quiesces the pool and serializes every tenant namespace
//!    (repository, provenance, per-tenant policy overrides, counters); a
//!    fresh service restored from that string alone carries on.
//! 2. **Continuous checkpoint → torn tail → `restore_incremental`.** A
//!    base checkpoint is anchored once, then cheap deltas are captured
//!    between rounds without pausing dispatch. The "crash" truncates the
//!    last journal segment at pseudo-random byte offsets — what a
//!    process death mid-append leaves on disk — and recovery loads the
//!    base, replays the journal and truncates the torn tail.
//! 3. **Warm standby → divergence resync → `promote`.** The primary
//!    ships every sealed segment to a standby that replays it
//!    continuously. Rolling the primary back through
//!    `restore_incremental` replays state the record stream never
//!    described, so the standby refuses the next segment (lineage
//!    mismatch), asks for a full-base resync over the back channel and
//!    re-anchors on its own; then the primary is killed and the standby
//!    promotes into a serving service with **no checkpoint file read**.
//!
//! ```sh
//! cargo run --example durability
//! ```

use restore_suite::core::{Heuristic, InProcessLink, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{CheckpointConfig, RestoreService, ServiceConfig, Standby};
use std::time::{Duration, Instant};

/// A simulated cluster with PigMix data. The DFS is the durable side:
/// it survives every "crash" below.
fn cluster(seed: u64) -> Dfs {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 4096, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), seed).expect("datagen");
    dfs
}

fn new_session(dfs: &Dfs) -> ReStore {
    let engine = Engine::new(
        dfs.clone(),
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
    ReStore::new(engine, ReStoreConfig::default())
}

fn service_config() -> ServiceConfig {
    ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() }
}

fn new_service(dfs: &Dfs) -> RestoreService {
    RestoreService::new(new_session(dfs), service_config())
}

/// Both tenants submit L3 and L7 at once; returns the jobs answered
/// from the repository instead of executed.
fn run_round(service: &RestoreService, tag: &str) -> usize {
    let mut handles = Vec::new();
    for t in ["ana", "bo"] {
        for (name, q) in [
            ("l3", queries::l3(&format!("/out/{tag}/{t}/l3"))),
            ("l7", queries::l7(&format!("/out/{tag}/{t}/l7"))),
        ] {
            let prefix = format!("/wf/{tag}/{t}/{name}");
            handles.push(service.submit(Some(t), &q, &prefix).expect("admitted"));
        }
    }
    handles.into_iter().map(|h| h.wait().expect("query completes").jobs_skipped).sum()
}

/// Act 1: a consistent snapshot carries the session across a restart.
fn snapshot_restart() {
    let dfs = cluster(0xF00D);
    let service = new_service(&dfs);
    service.set_tenant_config(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
    println!("cold round: {} job(s) skipped", run_round(&service, "r0"));

    // `snapshot()` pauses dispatch, waits for in-flight workflows,
    // serializes every tenant namespace, and resumes.
    let snapshot = service.snapshot();
    service.shutdown();
    println!("process restart: {} bytes of restore-state carry the session", snapshot.len());

    let service = new_service(&dfs);
    service.restore(&snapshot).expect("snapshot restores");
    assert_eq!(
        service.tenant_config(Some("ana")).heuristic,
        Heuristic::Conservative,
        "per-tenant policy overrides are part of the durable state",
    );
    let skipped = run_round(&service, "r1");
    println!("warm round after restart: {skipped} job(s) skipped");
    assert!(skipped > 0, "warm round must be served from the restored repositories");
    for t in &service.stats().tenants {
        println!(
            "  tenant {:?}: {} repository entries, {} reuse(s)",
            t.tenant, t.repository.repository_entries, t.repository.total_uses,
        );
    }
    service.shutdown();
}

/// Act 2: continuous checkpointing, a kill mid-journal, recovery from
/// the torn checkpoint set — at several offsets, to show recovery is
/// offset-independent.
fn torn_journal_recovery() {
    let dfs = cluster(0xC0_FFEE);
    let service = new_service(&dfs);
    let begin = service.checkpoint_begin(CheckpointConfig::default());
    println!("base checkpoint anchored: {} bytes", begin.base_bytes);
    for round in 0..3 {
        let skipped = run_round(&service, &format!("r{round}"));
        let outcome = service.checkpoint_incremental().expect("capture");
        println!(
            "round {round}: {skipped} job(s) skipped; delta captured {} segment(s) \
             ({} journal bytes on a {}-byte base{})",
            outcome.segments_added,
            outcome.journal_bytes,
            outcome.base_bytes,
            if outcome.compacted { ", compacted" } else { "" },
        );
    }
    service.drain();
    service.checkpoint_incremental().expect("final capture");
    let reference = service.driver().save_state();
    let set = service.checkpoint_set().expect("checkpointing enabled");
    drop(service); // the crash: only the DFS and the checkpoint set survive

    let last = set.segments.last().expect("journaled work").clone();
    let mut lcg: u64 = 0x9E3779B97F4A7C15;
    let mut offsets: Vec<usize> = (0..4)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) as usize % last.len()
        })
        .collect();
    offsets.push(last.len()); // and the clean-shutdown case

    for cut in offsets {
        let mut torn_set = set.clone();
        *torn_set.segments.last_mut().unwrap() = last[..cut].to_string();

        let resumed = new_service(&dfs);
        let report = resumed.restore_incremental(&torn_set).expect("recovery");
        println!(
            "kill at byte {cut}/{}: {} record(s) replayed, torn tail {}",
            last.len(),
            report.records_applied,
            match report.torn_tail {
                Some(t) => format!("truncated at offset {}", t.offset),
                None => "none (clean boundary)".to_string(),
            },
        );
        // A full, untorn set must reproduce the live session exactly.
        if cut == last.len() {
            assert_eq!(
                resumed.driver().save_state(),
                reference,
                "untorn recovery must be byte-identical to the crashed session"
            );
        }
        // Whatever prefix we recovered is internally consistent: it
        // serves the warm rerun.
        let warm = run_round(&resumed, &format!("warm{cut}"));
        println!("  warm rerun after recovery: {warm} job(s) skipped");
        assert!(warm > 0, "recovered repositories must serve reuse");
        resumed.shutdown();
    }
}

/// Act 3: a standby tails the primary's journal, heals a lineage break
/// by itself, and takes over warm when the primary dies.
fn standby_failover() {
    // One DFS, shared by primary and standby the way two processes
    // share a cluster.
    let dfs = cluster(0xFA11);
    let primary = new_service(&dfs);
    primary.checkpoint_begin(CheckpointConfig::default());
    let link = InProcessLink::new();
    primary.attach_standby(link.clone()).expect("attach");
    let standby = Standby::attach(new_session(&dfs), link);
    println!("standby attached ({} link)", primary.standby_count());

    for round in 0..3 {
        let skipped = run_round(&primary, &format!("r{round}"));
        println!("round {round}: {skipped} job(s) skipped");
    }
    primary.drain();
    primary.ship_now();
    assert!(standby.wait_caught_up(Duration::from_secs(30)), "standby catches up");
    println!(
        "standby caught up: applied seq {}, unshipped lag {} record(s)",
        standby.replica().applied_seq(),
        primary.replication_lag_records(),
    );

    // Divergence: roll the primary back to its checkpoint — an
    // un-journaled replay.
    primary.checkpoint_incremental().expect("capture");
    let set = primary.checkpoint_set().expect("checkpointing");
    run_round(&primary, "diverge");
    primary.drain();
    primary.restore_incremental(&set).expect("rollback");
    run_round(&primary, "post-rollback");
    primary.drain();
    let healed = (0..200).any(|_| {
        primary.ship_now();
        standby.wait_caught_up(Duration::from_millis(50)) && standby.replica().resyncs() > 0
    });
    assert!(healed, "tailer must resync past the lineage break");
    println!("lineage break healed: {} full-base resync(s)", standby.replica().resyncs());
    assert_eq!(
        standby.replica().driver().save_state(),
        primary.driver().save_state(),
        "post-resync standby must match the primary byte for byte"
    );

    // Failover: promotion drains the replay queue and checks seq parity
    // — no checkpoint set, no DFS walk, no journal file.
    let reference = primary.driver().save_state();
    primary.shutdown();
    let t0 = Instant::now();
    let promoted = standby.promote(service_config()).expect("promotion");
    println!("promoted in {:?}", t0.elapsed());
    assert_eq!(promoted.driver().save_state(), reference, "promotion preserves state");

    let warm = run_round(&promoted, "r0");
    println!("warm rerun on the promoted standby: {warm} job(s) skipped");
    assert!(warm > 0, "promoted standby must serve reuse");
    promoted.shutdown();
}

fn main() {
    println!("-- act 1: quiesced snapshot, restart --");
    snapshot_restart();
    println!("-- act 2: continuous checkpoint, torn journal tail --");
    torn_journal_recovery();
    println!("-- act 3: warm standby, divergence resync, promotion --");
    standby_failover();
    println!("durability OK: restart, torn-tail recovery and failover all served the warm rerun");
}
