//! The benchmark's environment, identical for all workloads: a seeded
//! PigMix data set on a 14-node DFS, an engine calibrated to the paper's
//! testbed, and service sessions over it.
//!
//! Built here rather than borrowed from the experiment harness, so that
//! editing that harness cannot move these numbers.

use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::datagen::{self, PigMixData};
use restore_pigmix::DataScale;
use restore_service::{CheckpointConfig, RestoreService, ServiceConfig};

pub const DFS_NODES: usize = 14;
pub const REPLICATION: usize = 3;
pub const REDUCE_TASKS: usize = 28;
pub const SERVICE_WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;

/// Logical processors of this host. Client and engine threads are capped
/// by it, so a one-core host measures no contention it cannot have.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Env {
    pub data: PigMixData,
    pub engine: Engine,
}

impl Env {
    /// Generate the data once to learn its volume, then again into a DFS
    /// whose block size gives the paper's split count, under a cost model
    /// scaled to the paper's data volume.
    pub fn build(scale: DataScale, seed: u64) -> Env {
        let probe = Dfs::new(DfsConfig {
            nodes: DFS_NODES,
            block_size: 8 << 20,
            replication: 1,
            node_capacity: None,
        });
        let pv_bytes =
            datagen::generate(&probe, &scale, seed).expect("probe generation").page_views_bytes;
        drop(probe);

        let dfs = Dfs::new(DfsConfig {
            nodes: DFS_NODES,
            block_size: scale.block_size(pv_bytes),
            replication: REPLICATION,
            node_capacity: None,
        });
        let data = datagen::generate(&dfs, &scale, seed).expect("data generation");
        let engine = Engine::new(
            dfs,
            ClusterConfig::paper_testbed(scale.byte_scale(data.page_views_bytes)),
            EngineConfig { worker_threads: nproc().min(2), default_reduce_tasks: REDUCE_TASKS },
        );
        Env { data, engine }
    }

    pub fn dfs(&self) -> &Dfs {
        self.engine.dfs()
    }

    /// A fresh service session over the shared engine. ReStore-on
    /// sessions turn the journal on, so it is on the write path as in
    /// the serving examples.
    pub fn session(&self, config: ReStoreConfig) -> RestoreService {
        let journal = config.reuse_enabled;
        let service = RestoreService::new(
            ReStore::new(self.engine.clone(), config),
            ServiceConfig {
                workers: SERVICE_WORKERS,
                queue_depth: QUEUE_DEPTH,
                ..Default::default()
            },
        );
        if journal {
            service.checkpoint_begin(CheckpointConfig::default());
        }
        service
    }

    /// The sequential no-reuse driver the correctness oracle and the
    /// traced baseline pass run on.
    pub fn reference_driver(&self) -> ReStore {
        ReStore::new(
            self.engine.clone(),
            ReStoreConfig { wave_parallel: false, ..ReStoreConfig::baseline() },
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
