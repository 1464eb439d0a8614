//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§7).
//!
//! * [`env`](mod@env) — builds the scaled-down PigMix / synthetic environments
//!   with a cost model parameterized like the paper's 15-node cluster;
//! * [`figures`] — one runner per experiment (Figures 9–17, Tables 1–2),
//!   each returning typed rows;
//! * [`model`] — every PigMix job's modeled terms beside its measured
//!   phases, and how alike the two rank the jobs (`model-check`);
//! * [`report`] — fixed-width table rendering for the harness binary.
//!
//! Run `cargo run -p restore-bench --release --bin experiments -- all`
//! to regenerate everything; see EXPERIMENTS.md for paper-vs-measured.

pub mod env;
pub mod figures;
pub mod model;
pub mod report;
