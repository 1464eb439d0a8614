//! Pig-Latin-subset dataflow system.
//!
//! Reproduces the compiler stack §6.1 of the paper describes for Pig 0.8:
//!
//! 1. [`parser`] — syntactic check of the query text into an AST;
//! 2. [`logical`] — alias resolution into a logical plan DAG with schemas;
//! 3. [`optimizer`] — rule-based logical rewrites;
//! 4. [`lower`] — lowering to a [`physical`] operator DAG;
//! 5. [`mr_compiler`] — segmentation into a workflow of MapReduce jobs at
//!    blocking operators (Join/Group/CoGroup/Distinct/Order), each job
//!    carrying its own physical plan;
//! 6. [`exec`] — plan-driven `Mapper`/`Reducer` implementations so the
//!    `restore-mapreduce` engine can run compiled jobs.
//!
//! [`template`] compiles a query once per shape: the workflow of a text
//! whose store paths are marks, with this submission's paths bound in.
//!
//! The **physical plan of a MapReduce job** ([`physical::PhysicalPlan`])
//! is the currency of the whole reproduction: ReStore's matcher,
//! rewriter, and sub-job enumerator in `restore-core` all operate on it,
//! exactly as the paper prescribes ("matching, sub-job enumeration, and
//! enumerated sub-job selection are based on physical plans").

pub mod analyzer;
pub mod ast;
pub mod dot;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod logical;
pub mod lower;
pub mod mr_compiler;
pub mod optimizer;
pub mod parser;
pub mod physical;
pub mod template;

pub use expr::{AggFunc, CmpOp, Expr, ScalarFunc};
pub use logical::LogicalPlan;
pub use mr_compiler::{CompiledJob, CompiledWorkflow, WorkflowIoPaths};
pub use physical::{NodeId, PhysicalOp, PhysicalPlan};

use restore_common::Result;

/// Compile query text all the way to a workflow of MapReduce jobs.
///
/// `out_prefix` namespaces the temporary files created at job boundaries
/// so concurrent queries do not collide.
///
/// ```
/// // The paper's Q2 splits into two jobs at the Group operator.
/// let wf = restore_dataflow::compile(
///     "A = load '/pv' as (user, rev:double);
///      U = load '/users' as (name);
///      C = join U by name, A by user;
///      G = group C by $0;
///      S = foreach G generate group, SUM(C.rev);
///      store S into '/out';",
///     "/wf/q2",
/// ).unwrap();
/// assert_eq!(wf.jobs.len(), 2);
/// assert_eq!(wf.jobs[1].deps, vec![0]); // group job waits for the join
/// ```
pub fn compile(query: &str, out_prefix: &str) -> Result<CompiledWorkflow> {
    let program = parser::parse(query)?;
    let logical = logical::LogicalPlan::from_ast(&program)?;
    let logical = optimizer::optimize(logical);
    let physical = lower::lower(&logical)?;
    mr_compiler::compile_plan(&physical, out_prefix)
}

/// Like [`compile`], but run the [`analyzer`]'s canonicalization passes
/// over the lowered plan before segmenting it into jobs, so
/// semantically-equal paraphrases compile to the same workflow. Also
/// returns the per-pass wall time, in [`analyzer::PASS_NAMES`] order,
/// for the driver's `restore_canon_stage_seconds` telemetry.
///
/// ```
/// // A filter chain and the equivalent single conjunction compile to
/// // workflows with identical plan signatures once canonicalized.
/// let chain = "A = load '/pv' as (user, rev);
///              B = filter A by rev > 10;
///              C = filter B by user == 'u1';
///              store C into '/out';";
/// let conj = "A = load '/pv' as (user, rev);
///             C = filter A by user == 'u1' and rev > 10;
///             store C into '/out';";
/// let (a, _) = restore_dataflow::compile_canonical(chain, "/wf/a").unwrap();
/// let (b, _) = restore_dataflow::compile_canonical(conj, "/wf/b").unwrap();
/// assert_eq!(a.jobs[0].plan.signature(), b.jobs[0].plan.signature());
/// ```
pub fn compile_canonical(
    query: &str,
    out_prefix: &str,
) -> Result<(CompiledWorkflow, [(&'static str, std::time::Duration); 3])> {
    let program = parser::parse(query)?;
    let logical = logical::LogicalPlan::from_ast(&program)?;
    let logical = optimizer::optimize(logical);
    let mut physical = lower::lower(&logical)?;
    let timings = analyzer::canonicalize_timed(&mut physical);
    let wf = mr_compiler::compile_plan(&physical, out_prefix)?;
    Ok((wf, timings))
}
