//! MapReduce execution engine over the simulated DFS.
//!
//! Hadoop stand-in for the ReStore reproduction. Jobs *really execute*:
//! mappers consume decoded tuples from block-aligned input splits, a
//! hash-partitioned sort-merge shuffle groups map output by key (and by
//! input tag, so Join/CoGroup see co-grouped bags), and reducers write the
//! final output back to the DFS. Injected `Store` operators surface as
//! **side outputs** — extra files written during map or reduce, exactly how
//! ReStore materializes sub-jobs.
//!
//! "Execution time" in the paper is wall-clock on a 15-node cluster; here
//! it is produced by [`cost::CostModel`], an analytical model implementing
//! the paper's Equation (2) (`ET(Job) = T_load + Σ ET(op_i) + T_sort +
//! T_store`) fed with the *measured* counters of the real in-process run.
//! [`workflow`] implements Equation (1): a job's total time is its own
//! execution time plus the slowest chain of jobs it depends on.
//!
//! The split between this crate and `restore-dataflow` mirrors
//! Hadoop/Pig: this crate knows nothing about query plans — it executes
//! [`task::Mapper`]/[`task::Reducer`] implementations provided by the
//! dataflow layer.

pub mod config;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod job;
pub mod phases;
pub mod shuffle;
pub mod split_reader;
pub mod task;
pub mod workflow;

pub use config::{ClusterConfig, EngineConfig};
pub use cost::{CostModel, JobTimes};
pub use counters::Counters;
pub use engine::{Engine, JobResult};
pub use job::{Format, JobInput, JobSpec};
pub use phases::PhaseTimes;
pub use task::{
    Chunk, MapContext, Mapper, MapperFactory, ReduceContext, Reducer, ReducerFactory, TaskOutput,
};
