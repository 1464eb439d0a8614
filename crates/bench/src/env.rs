//! Experiment environments: DFS + generated data + calibrated engine.

use restore_core::{Heuristic, ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_pigmix::datagen::{self, PigMixData};
use restore_pigmix::synthetic;
use restore_pigmix::DataScale;

/// A ready-to-run PigMix environment at one scale.
pub struct PigMixEnv {
    pub scale: DataScale,
    pub data: PigMixData,
    pub engine: Engine,
    /// Multiplier from actual bytes to paper-equivalent bytes.
    pub byte_scale: f64,
}

/// Deterministic seed used by all experiments.
pub const SEED: u64 = 0x5E_57_0E;

/// Build a PigMix environment: generate once to learn the data volume,
/// then rebuild the DFS with a block size giving the paper's split count
/// and a cost model scaled to the paper's data volume.
pub fn pigmix_env(scale: DataScale) -> PigMixEnv {
    // Probe pass: measure generated size.
    let probe =
        Dfs::new(DfsConfig { nodes: 14, block_size: 8 << 20, replication: 1, node_capacity: None });
    let probe_data = datagen::generate(&probe, &scale, SEED).expect("probe generation");
    let pv_bytes = probe_data.page_views_bytes;

    // Real pass.
    let dfs = Dfs::new(DfsConfig {
        nodes: 14,
        block_size: scale.block_size(pv_bytes),
        replication: 3,
        node_capacity: None,
    });
    let data = datagen::generate(&dfs, &scale, SEED).expect("data generation");
    let byte_scale = scale.byte_scale(data.page_views_bytes);
    let engine =
        Engine::new(dfs, ClusterConfig::paper_testbed(byte_scale), EngineConfig::default());
    PigMixEnv { scale, data, engine, byte_scale }
}

/// A synthetic (§7.5) environment.
pub struct SyntheticEnv {
    pub engine: Engine,
    pub byte_scale: f64,
    pub total_bytes: u64,
}

/// Build the §7.5 synthetic environment: `rows` scaled-down rows standing
/// in for the paper's 200M-row / 40 GB file.
pub fn synthetic_env(rows: usize) -> SyntheticEnv {
    let paper_bytes = 40u64 << 30;
    let probe =
        Dfs::new(DfsConfig { nodes: 14, block_size: 8 << 20, replication: 1, node_capacity: None });
    let actual = synthetic::generate(&probe, rows, SEED).expect("probe generation");
    let byte_scale = paper_bytes as f64 / actual.max(1) as f64;
    let block = ((64u64 << 20) as f64 / byte_scale) as u64;

    let dfs = Dfs::new(DfsConfig {
        nodes: 14,
        block_size: block.clamp(4 << 10, 64 << 20),
        replication: 3,
        node_capacity: None,
    });
    let total_bytes = synthetic::generate(&dfs, rows, SEED).expect("generation");
    let engine =
        Engine::new(dfs, ClusterConfig::paper_testbed(byte_scale), EngineConfig::default());
    SyntheticEnv { engine, byte_scale, total_bytes }
}

/// Fresh ReStore driver in "paper experiment" mode on a shared engine:
/// empty repository, final outputs not registered (the §7 experiments
/// reuse intermediate jobs and sub-jobs only), unique repo prefix so
/// concurrent modes don't collide in the DFS.
pub fn paper_driver(engine: &Engine, heuristic: Heuristic, reuse: bool, tag: &str) -> ReStore {
    ReStore::new(
        engine.clone(),
        ReStoreConfig {
            reuse_enabled: reuse,
            heuristic,
            repo_prefix: format!("/restore/{tag}"),
            register_final_outputs: false,
            ..Default::default()
        },
    )
}

/// Fresh plain-Pig baseline driver.
pub fn baseline_driver(engine: &Engine) -> ReStore {
    ReStore::new(engine.clone(), ReStoreConfig::baseline())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_env_builds_and_scales() {
        let env = pigmix_env(DataScale::tiny());
        assert!(env.byte_scale > 1.0);
        assert!(env.engine.dfs().exists(datagen::PAGE_VIEWS));
        // Block size chosen so the paper's split count is approximated.
        let splits = env.engine.dfs().splits(datagen::PAGE_VIEWS).unwrap().len();
        assert!(splits >= 1);
    }

    #[test]
    fn synthetic_env_builds() {
        let env = synthetic_env(200);
        assert!(env.engine.dfs().exists(synthetic::SYNTH));
        assert!(env.total_bytes > 0);
    }
}
