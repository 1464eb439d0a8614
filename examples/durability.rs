//! Durability end to end: a two-tenant PigMix workload (L3 + L7 per
//! tenant) served by `RestoreService`, and the one way its session
//! outlives the process that built it — the checkpoint set. Only the DFS
//! and the checkpoint set survive the "crash", and the warm rerun must
//! be answered from the recovered repositories.
//!
//! A base checkpoint — every tenant namespace: repository with the record
//! of every stored file, per-tenant policy overrides, counters — is
//! anchored once, then cheap
//! deltas are captured between rounds without pausing dispatch. The
//! crash truncates the last journal segment at pseudo-random byte
//! offsets — what a process death mid-append leaves on disk — and
//! `restore_incremental` on a fresh service loads the base, replays the
//! journal and truncates the torn tail. Last, a cold round is
//! checkpointed without compaction and its segment cut at each of its
//! record boundaries: each recovered prefix holds every entry together
//! with its file's record, and every record names its file at the tick
//! it holds, because a wave's entries and records are one journal
//! record. And the base itself, cut at each of its record boundaries
//! or with one byte flipped in each of its frames, is refused, and the
//! session that refuses it keeps what it held.
//!
//! ```sh
//! cargo run --example durability
//! ```

use restore_suite::core::journal::segment_boundaries;
use restore_suite::core::{Heuristic, ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::{datagen, queries, DataScale};
use restore_suite::service::{CheckpointConfig, RestoreService, ServiceConfig};
use std::time::Instant;

/// A simulated cluster with PigMix data. The DFS is the durable side:
/// it survives every "crash" below.
fn cluster(seed: u64) -> Dfs {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 4096, replication: 2, node_capacity: None });
    datagen::generate(&dfs, &DataScale::tiny(), seed).expect("datagen");
    dfs
}

fn new_driver(dfs: &Dfs) -> ReStore {
    let engine = Engine::new(
        dfs.clone(),
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
    );
    ReStore::new(engine, ReStoreConfig::default())
}

fn new_service(dfs: &Dfs) -> RestoreService {
    RestoreService::new(
        new_driver(dfs),
        ServiceConfig { workers: 2, queue_depth: 64, ..Default::default() },
    )
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

/// Continuous checkpointing, a kill mid-journal, recovery from the torn
/// checkpoint set — at several offsets, to show recovery is
/// offset-independent.
fn torn_journal_recovery() {
    let dfs = cluster(0xC0_FFEE);
    let service = new_service(&dfs);
    service.driver().set_config_as(
        Some("ana"),
        ReStoreConfig { heuristic: Heuristic::Conservative, ..Default::default() },
    );
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
        let t0 = Instant::now();
        let report = resumed.restore_incremental(&torn_set).expect("recovery");
        println!(
            "kill at byte {cut}/{}: restored in {:?}, {} record(s) replayed, torn tail {}",
            last.len(),
            t0.elapsed(),
            report.records_applied,
            match report.torn_tail {
                Some(t) => format!("truncated at offset {}", t.offset),
                None => "none (clean boundary)".to_string(),
            },
        );
        assert_eq!(
            resumed.driver().config_as(Some("ana")).heuristic,
            Heuristic::Conservative,
            "per-tenant policy overrides are part of the durable state",
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

/// Both tenants' cold round, checkpointed with compaction off so the
/// set's last segment holds every wave, recovered with that segment cut
/// at each of its record boundaries: does every entry of both tenants
/// have its file's record, and does every record name its file at the
/// tick it holds?
fn every_boundary_recovers_records_at_their_ticks() -> bool {
    let dfs = cluster(0xB0_0DA1);
    let service = new_service(&dfs);
    service
        .checkpoint_begin(CheckpointConfig { compact_ratio: f64::INFINITY, ..Default::default() });
    run_round(&service, "cold");
    service.checkpoint_incremental().expect("capture");
    let set = service.checkpoint_set().expect("checkpointing enabled");
    service.shutdown();
    let last = set.segments.last().expect("journaled waves");
    segment_boundaries(last).into_iter().all(|cut| {
        let mut segments = set.segments.clone();
        *segments.last_mut().unwrap() = last[..cut].to_string();
        let rs = new_driver(&dfs);
        rs.recover(&set.base, &segments).expect("recovery at a record boundary");
        ["ana", "bo"].into_iter().all(|t| {
            let repo = rs.repository_as(Some(t));
            let at_tick = |path: &str, tick| dfs.status(path).is_ok_and(|s| s.mtime == tick);
            repo.entries().iter().all(|e| repo.file(&e.file.path) == Some(&e.file))
                && repo.files().all(|f| at_tick(&f.path, f.tick))
        })
    })
}

/// A base taken after both tenants' cold round, cut at each of its
/// record boundaries and, separately, with one byte flipped in each of
/// its frames: is every such base refused, leaving a session that held
/// the whole base holding it still?
fn every_cut_or_flipped_base_is_refused() -> bool {
    let dfs = cluster(0xBA5E);
    let service = new_service(&dfs);
    run_round(&service, "cold");
    service.checkpoint_begin(CheckpointConfig::default());
    let base = service.checkpoint_set().expect("checkpointing enabled").base;
    service.shutdown();
    let bounds = segment_boundaries(&base);
    let cuts = bounds[..bounds.len() - 1].iter().map(|&cut| base[..cut].to_string());
    let flips = bounds.windows(2).map(|frame| {
        let mut bytes = base.clone().into_bytes();
        let mid = (frame[0] + frame[1]) / 2;
        let at = (mid..frame[1]).find(|&i| bytes[i].is_ascii()).expect("an ASCII byte");
        bytes[at] ^= 1;
        String::from_utf8(bytes).expect("still UTF-8")
    });
    let rs = new_driver(&dfs);
    rs.recover(&base, &[]).expect("the whole base recovers");
    let mut bad = cuts.chain(flips).peekable();
    assert!(bad.peek().is_some(), "the base has records");
    bad.all(|bad| rs.recover(&bad, &[]).is_err() && rs.save_state() == base)
}

fn main() {
    torn_journal_recovery();
    let kept = every_boundary_recovers_records_at_their_ticks();
    println!("every record-boundary prefix recovers each record at its file's tick: {kept}");
    assert!(kept, "a recovered entry lost its record, or a record names a moved file");
    let refused = every_cut_or_flipped_base_is_refused();
    println!("every cut or flipped base is refused: {refused}");
    assert!(refused, "a cut or flipped base recovered, or its refusal changed the session");
    println!("durability OK: every torn-tail recovery served the warm rerun");
}
