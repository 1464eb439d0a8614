//! ReStore: reusing results of MapReduce jobs (the paper's contribution).
//!
//! ReStore sits between the dataflow compiler (`restore-dataflow`) and the
//! MapReduce engine (`restore-mapreduce`), exactly where the paper places
//! it relative to Pig's `JobControlCompiler` and Hadoop (§6.2). For every
//! job of an incoming workflow it:
//!
//! 1. **matches** the job's physical plan against the repository of
//!    stored job outputs and **rewrites** it to load stored results (§3,
//!    Algorithm 1: one pure function of a plan and a repository snapshot
//!    in `matching.rs`, over [`matcher`] and [`rewriter`]);
//! 2. **enumerates candidate sub-jobs** and injects `Split`+`Store`
//!    operators to materialize them ([`enumerator`], §4 — Conservative,
//!    Aggressive, and No-Heuristic policies);
//! 3. executes the instrumented job and **registers** its outputs, plans,
//!    and statistics in the [`repository`];
//! 4. applies the keep/evict rules of §5 ([`selector`]).
//!
//! Plans in the repository are kept at **base level**: a `Load` of a path
//! that was itself produced by a job is expanded ([`provenance`]) into the
//! producing plan its record holds — the repository keeps one record per
//! stored file, [`StoredFile`], with its plan, tick and inputs — so jobs
//! submitted at different times and chained through temporary files all
//! match against the same canonical shapes.

pub mod driver;
pub mod enumerator;
pub mod failure;
mod introspect;
pub mod journal;
pub mod matcher;
mod matching;
pub mod obs;
mod persist;
pub mod pin;
pub mod plan_text;
pub mod provenance;
pub mod rcu;
pub mod repository;
pub mod rewriter;
pub mod selector;
mod spaces;
mod state;

pub use driver::{QueryExecution, ReStore, ReStoreConfig, ReStoreStats};
pub use enumerator::Heuristic;
pub use failure::{FailureDisposition, FailurePolicy};
pub use journal::{JournalConfig, JournalStats, RecoveryReport, TornTail};
pub use obs::{ReuseDecision, ReuseTraceEvent};
pub use pin::PinSet;
pub use rcu::Rcu;
pub use repository::{
    MatchProbe, ProbedCandidate, RepoBatch, RepoEntry, RepoSnapshot, RepoStats, Repository,
    StoredFile,
};
pub use selector::SelectionPolicy;
pub use state::EPOCH;
