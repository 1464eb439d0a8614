//! The analyzer: a pass pipeline that rewrites every physical plan to a
//! canonical form before compilation and matching.
//!
//! ReStore's matcher (§3 of the paper) is syntactic: two workflows that
//! compute the same result but phrase it differently — swapped
//! commutative operands, a filter chain instead of one conjunction, a
//! repeated subquery spelled out twice — produce different plan trees
//! and miss the repository. Canonicalization folds each class of
//! paraphrase onto one representative tree so the existing structural
//! machinery (tip-signature index, pairwise §3 traversal) sees them as
//! the same plan.
//!
//! Three passes run in a fixed order, and the whole sequence repeats
//! until the plan stops changing:
//!
//! 1. `placement` — operator placement: merge single-consumer
//!    Project/Project and Filter/Filter chains, sink every Filter below
//!    the Project feeding it (the optimizer's pushdown direction), so
//!    pass 2 sees whole conjunctions and pass 3 sees maximal subtrees.
//! 2. `exprs` — expression normalization: flatten AND/OR chains and
//!    order their legs by a deterministic structural hash (only when
//!    every leg is total — reordering may change *which* error
//!    surfaces, never a value), put literals on the right of
//!    comparisons by mirroring the operator, and order the operands of
//!    total `+`/`*` the same way.
//! 3. `cse` — common-subplan extraction: hash-cons the DAG so
//!    repeated subtrees share one node (the executor already fans a
//!    multi-consumer node out to each consumer).
//!
//! The order matters: placement creates the conjunctions that
//! expression normalization sorts, and normalized expressions are what
//! make structurally-equal subtrees *byte*-equal so CSE can intern
//! them. A CSE merge can in turn collapse two consumers into one and
//! expose a fresh single-consumer placement pattern, hence the outer
//! fixpoint — which is also what makes canonicalization idempotent:
//! `canonicalize` only returns once another full sweep is a no-op, so a
//! second call starts (and ends) at that fixpoint.
//!
//! Each pass reports whether it changed the plan, and the loop stops
//! after the first sweep in which none did; no sweep copies the plan to
//! find out. A pass may over-report (that costs one more sweep) but must
//! never under-report, or the loop would stop short of the fixpoint.
//! `tests/prop_canon.rs` keeps the clone-and-compare loop as the oracle.
//!
//! Every rewrite here preserves executed output byte-for-byte (property
//! tested in `tests/prop_canon.rs`): transforms that could change
//! error or row-duplication behavior — reordering non-total expression
//! legs, reordering Join/Union *inputs* (the executor concatenates and
//! cross-products in input order), merging through `MapExpr` — are
//! deliberately excluded.

mod cse;
mod exprs;
mod placement;

use crate::physical::PhysicalPlan;
use std::time::{Duration, Instant};

/// Pass names, in execution order — the `pass` label values of the
/// driver's `restore_canon_stage_seconds` histogram family.
pub const PASS_NAMES: [&str; 3] = ["placement", "exprs", "cse"];

/// Upper bound on fixpoint sweeps. Each sweep that changes the plan
/// strictly shrinks a bounded measure (live node count + total filter
/// depth), so real plans converge in two or three; the cap is a
/// belt-and-braces guard against an unforeseen oscillation — hitting it
/// leaves a still-correct, merely less canonical plan.
const MAX_SWEEPS: usize = 64;

/// Rewrite `plan` to its canonical form in place.
pub fn canonicalize(plan: &mut PhysicalPlan) {
    let _ = canonicalize_timed(plan);
}

/// [`canonicalize`], returning wall time spent in each pass (summed
/// across fixpoint sweeps), in [`PASS_NAMES`] order.
pub fn canonicalize_timed(plan: &mut PhysicalPlan) -> [(&'static str, Duration); 3] {
    let mut timings = [
        (PASS_NAMES[0], Duration::ZERO),
        (PASS_NAMES[1], Duration::ZERO),
        (PASS_NAMES[2], Duration::ZERO),
    ];
    for _ in 0..MAX_SWEEPS {
        if !sweep(plan, &mut timings) {
            break;
        }
    }
    timings
}

/// One sweep: the three passes in order, each one's wall time added to
/// `timings`. Returns whether any pass reported a change. Public only
/// for the clone-and-compare oracle in `tests/prop_canon.rs`.
#[doc(hidden)]
pub fn sweep(plan: &mut PhysicalPlan, timings: &mut [(&'static str, Duration); 3]) -> bool {
    let t = Instant::now();
    let mut changed = placement::run(plan);
    timings[0].1 += t.elapsed();
    let t = Instant::now();
    changed |= exprs::run(plan);
    timings[1].1 += t.elapsed();
    let t = Instant::now();
    changed |= cse::run(plan);
    timings[2].1 += t.elapsed();
    changed
}

/// The canonical fingerprint of a plan: the Merkle signature of its
/// canonical form. Two semantically-equal paraphrases (within the
/// classes the passes cover) fingerprint identically, so this is the
/// key that makes the repository's tip-signature index paraphrase-
/// insensitive. The input plan is not modified.
pub fn fingerprint(plan: &PhysicalPlan) -> u64 {
    let mut p = plan.clone();
    canonicalize(&mut p);
    p.signature()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp, Expr};
    use crate::physical::{PhysicalOp, PhysicalPlan};

    fn lit(v: i64) -> Expr {
        Expr::Lit(v.into())
    }

    fn store_chain(ops: Vec<PhysicalOp>) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let mut prev = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        for op in ops {
            prev = p.add(op, vec![prev]);
        }
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![prev]);
        p
    }

    #[test]
    fn chained_filters_merge_into_sorted_conjunction() {
        let chain = store_chain(vec![
            PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) },
            PhysicalOp::Filter { pred: Expr::col_eq(1, 2i64) },
        ]);
        let conjunct = store_chain(vec![PhysicalOp::Filter {
            pred: Expr::And(Box::new(Expr::col_eq(1, 2i64)), Box::new(Expr::col_eq(0, 1i64))),
        }]);
        assert_eq!(fingerprint(&chain), fingerprint(&conjunct));
    }

    #[test]
    fn literal_first_comparison_mirrors() {
        let a = store_chain(vec![PhysicalOp::Filter {
            pred: Expr::Cmp(Box::new(lit(5)), CmpOp::Lt, Box::new(Expr::col(0))),
        }]);
        let b = store_chain(vec![PhysicalOp::Filter {
            pred: Expr::Cmp(Box::new(Expr::col(0)), CmpOp::Gt, Box::new(lit(5))),
        }]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn commutative_arithmetic_orders_operands() {
        let a = store_chain(vec![PhysicalOp::MapExpr {
            exprs: vec![Expr::Arith(Box::new(Expr::col(0)), ArithOp::Add, Box::new(Expr::col(1)))],
        }]);
        let b = store_chain(vec![PhysicalOp::MapExpr {
            exprs: vec![Expr::Arith(Box::new(Expr::col(1)), ArithOp::Add, Box::new(Expr::col(0)))],
        }]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // Subtraction is not commutative: operand order must survive.
        let c = store_chain(vec![PhysicalOp::MapExpr {
            exprs: vec![Expr::Arith(Box::new(Expr::col(0)), ArithOp::Sub, Box::new(Expr::col(1)))],
        }]);
        let d = store_chain(vec![PhysicalOp::MapExpr {
            exprs: vec![Expr::Arith(Box::new(Expr::col(1)), ArithOp::Sub, Box::new(Expr::col(0)))],
        }]);
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }

    #[test]
    fn repeated_subtrees_share_one_node() {
        // JOIN of the same filtered load spelled out twice vs. shared.
        let mut dup = PhysicalPlan::new();
        let l1 = dup.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let f1 = dup.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l1]);
        let l2 = dup.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let f2 = dup.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l2]);
        let j = dup.add(PhysicalOp::Join { keys: vec![vec![0], vec![1]] }, vec![f1, f2]);
        dup.add(PhysicalOp::Store { path: "/o".into() }, vec![j]);

        let mut canon = dup.clone();
        canonicalize(&mut canon);
        assert_eq!(canon.loads().len(), 1, "duplicate scans interned");
        // The guard keeps the join's two input edges distinct.
        let join = canon.ids().find(|&i| matches!(canon.op(i), PhysicalOp::Join { .. })).unwrap();
        let ins = canon.inputs(join);
        assert_ne!(ins[0], ins[1], "merged subtree re-teed through a Split");
        assert!(canon.ids().any(|i| matches!(canon.op(i), PhysicalOp::Split)));
    }

    #[test]
    fn preexisting_duplicate_edges_are_preserved() {
        // `union A, A` already means "one producer, one copy" to the
        // executor; canonicalization must not inflate it.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let u = p.add(PhysicalOp::Union, vec![l, l]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![u]);
        let mut c = p.clone();
        canonicalize(&mut c);
        let u = c.ids().find(|&i| matches!(c.op(i), PhysicalOp::Union)).unwrap();
        assert_eq!(c.inputs(u)[0], c.inputs(u)[1]);
        assert!(c.ids().all(|i| !matches!(c.op(i), PhysicalOp::Split)));
    }

    #[test]
    fn canonicalize_is_idempotent_on_samples() {
        let samples = vec![
            store_chain(vec![
                PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) },
                PhysicalOp::Project { cols: vec![0, 2] },
                PhysicalOp::Filter { pred: Expr::col_eq(1, 2i64) },
                PhysicalOp::Project { cols: vec![1] },
            ]),
            store_chain(vec![PhysicalOp::Filter {
                pred: Expr::Or(
                    Box::new(Expr::col_eq(2, 9i64)),
                    Box::new(Expr::And(
                        Box::new(Expr::col_eq(0, 1i64)),
                        Box::new(Expr::col_eq(1, 2i64)),
                    )),
                ),
            }]),
        ];
        for mut p in samples {
            canonicalize(&mut p);
            let again = {
                let mut q = p.clone();
                canonicalize(&mut q);
                q
            };
            assert_eq!(p, again, "canon(canon(p)) == canon(p)");
        }
    }

    #[test]
    fn timed_reports_every_pass() {
        let mut p = store_chain(vec![PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }]);
        let timings = canonicalize_timed(&mut p);
        let names: Vec<&str> = timings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, PASS_NAMES.to_vec());
    }
}
