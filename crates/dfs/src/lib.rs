//! Simulated HDFS-like distributed file system.
//!
//! The paper stores every job and sub-job output in HDFS and reasons about
//! the storage and I/O cost of doing so (Table 1, Figures 11/14). This
//! crate reproduces the observable surface ReStore needs:
//!
//! * a **namenode** namespace mapping paths to block lists, with
//!   per-file replication factor and the logical clock's tick at the
//!   file's commit, which is its version (ReStore's eviction Rule 4
//!   watches for modified inputs);
//! * **datanodes** holding replicated block payloads with optional
//!   capacity limits and per-node usage accounting;
//! * **block-granular placement** (round-robin with a per-file rotation)
//!   so input splits have locality hosts like Hadoop's;
//! * **metrics** for bytes read/written (including replication traffic),
//!   which drive the cluster cost model and the Table 1 reproduction.
//!
//! The cluster is cheaply clonable (`Arc` inside) and thread safe; map
//! tasks read splits concurrently during job execution.

pub mod block;
pub mod cluster;
pub mod datanode;
pub mod metrics;
pub mod namenode;

pub use block::{BlockId, FileSplit};
pub use cluster::{Dfs, DfsConfig, DfsReader, DfsWriter};
pub use metrics::MetricsSnapshot;
pub use namenode::FileStatus;
