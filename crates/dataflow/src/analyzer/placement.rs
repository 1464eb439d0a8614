//! Pass 1 — operator placement normalization.
//!
//! Folds the placement freedoms the language leaves a query author:
//!
//! * `Project` over `Project` composes into one projection;
//! * `Filter` over `Filter` composes into one conjunction (upstream
//!   predicate first, so the merged `And` short-circuits in exactly the
//!   order the chain evaluated);
//! * `Filter` over `Project` swaps to `Project` over `Filter` — the
//!   canonical position is "filter as low as possible", matching the
//!   direction the logical optimizer already pushes.
//!
//! Every rewrite requires the consumed node to have exactly one
//! consumer: a shared intermediate result feeds other branches whose
//! view of it must not change. Rewrites repeat to a fixpoint —
//! termination follows from a strictly decreasing measure (merges
//! shrink live chains, the swap strictly lowers a filter's depth and
//! never raises one).

use crate::expr::Expr;
use crate::physical::{NodeId, PhysicalOp, PhysicalPlan};

/// Returns whether any rewrite fired. Every rewrite changes the plan
/// (a merge re-points `id` past its input, a swap exchanges two
/// different operators), so the report is exact.
pub(super) fn run(plan: &mut PhysicalPlan) -> bool {
    let mut any = false;
    loop {
        let mut changed = false;
        for id in (0..plan.len() as u32).map(NodeId) {
            changed |= try_project_merge(plan, id)
                || try_filter_merge(plan, id)
                || try_filter_below_project(plan, id);
        }
        if !changed {
            return any;
        }
        any = true;
    }
}

/// Is `p` consumed only by `c`? (Merging `p` into `c` is only sound
/// when nothing else observes `p`'s output.) Callers pass a `c` that
/// reads `p`.
fn sole_consumer(plan: &PhysicalPlan, p: NodeId, c: NodeId) -> bool {
    plan.ids().all(|n| n == c || !plan.inputs(n).contains(&p))
}

/// `Project{inner}` → `Project{outer}` composes: output column `j` of
/// the pair is input column `inner[outer[j]]`.
fn try_project_merge(plan: &mut PhysicalPlan, id: NodeId) -> bool {
    let PhysicalOp::Project { cols: outer } = plan.op(id) else { return false };
    let p = plan.inputs(id)[0];
    let PhysicalOp::Project { cols: inner } = plan.op(p) else { return false };
    if !sole_consumer(plan, p, id) || outer.iter().any(|&j| j >= inner.len()) {
        return false;
    }
    let cols = outer.iter().map(|&j| inner[j]).collect();
    let grand = plan.inputs(p).to_vec();
    let node = plan.node_mut(id);
    node.op = PhysicalOp::Project { cols };
    node.inputs = grand;
    true
}

/// `Filter{a}` → `Filter{b}` composes into `Filter{And(a, b)}`. `And`
/// short-circuits left-to-right, so evaluation order, count, and any
/// surfaced error are byte-identical to the chain.
fn try_filter_merge(plan: &mut PhysicalPlan, id: NodeId) -> bool {
    let PhysicalOp::Filter { .. } = plan.op(id) else { return false };
    let p = plan.inputs(id)[0];
    let PhysicalOp::Filter { pred: inner } = plan.op(p) else { return false };
    if !sole_consumer(plan, p, id) {
        return false;
    }
    // `p` is left orphaned for CSE to collect, so its predicate is
    // copied, never moved.
    let inner = inner.clone();
    let grand = plan.inputs(p).to_vec();
    let node = plan.node_mut(id);
    let PhysicalOp::Filter { pred } = &mut node.op else { unreachable!("matched above") };
    let outer = std::mem::replace(pred, Expr::Col(0));
    *pred = Expr::And(Box::new(inner), Box::new(outer));
    node.inputs = grand;
    true
}

/// `Project{cols}` → `Filter{pred}` swaps in place to `Filter{pred'}` →
/// `Project{cols}` with `pred'` reading through the projection
/// (`pred'` on a raw row sees exactly the values `pred` saw on the
/// projected row, so results and errors are unchanged; rows the filter
/// drops were going to be projected by a total operator anyway). A
/// predicate referencing a column the projection does not produce
/// cannot be rewritten and is left where it is.
fn try_filter_below_project(plan: &mut PhysicalPlan, id: NodeId) -> bool {
    let PhysicalOp::Filter { pred } = plan.op(id) else { return false };
    let p = plan.inputs(id)[0];
    let PhysicalOp::Project { cols } = plan.op(p) else { return false };
    if !sole_consumer(plan, p, id) {
        return false;
    }
    let Some(below) = pred.remap_cols(&|i| cols.get(i).copied()) else { return false };
    let project = std::mem::replace(&mut plan.node_mut(p).op, PhysicalOp::Filter { pred: below });
    plan.node_mut(id).op = project;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(ops: Vec<PhysicalOp>) -> (PhysicalPlan, Vec<NodeId>) {
        let mut p = PhysicalPlan::new();
        let mut ids = vec![p.add(PhysicalOp::Load { path: "/d".into() }, vec![])];
        for op in ops {
            let prev = *ids.last().unwrap();
            ids.push(p.add(op, vec![prev]));
        }
        let prev = *ids.last().unwrap();
        ids.push(p.add(PhysicalOp::Store { path: "/o".into() }, vec![prev]));
        (p, ids)
    }

    #[test]
    fn projects_compose() {
        let (mut p, ids) = chain(vec![
            PhysicalOp::Project { cols: vec![2, 0, 1] },
            PhysicalOp::Project { cols: vec![1, 2] },
        ]);
        assert!(run(&mut p));
        assert!(matches!(p.op(ids[2]), PhysicalOp::Project { cols } if *cols == vec![0, 1]));
        assert_eq!(p.inputs(ids[2]), &[ids[0]], "inner project bypassed");
    }

    #[test]
    fn filters_compose_upstream_first() {
        let a = Expr::col_eq(0, 1i64);
        let b = Expr::col_eq(1, 2i64);
        let (mut p, ids) = chain(vec![
            PhysicalOp::Filter { pred: a.clone() },
            PhysicalOp::Filter { pred: b.clone() },
        ]);
        assert!(run(&mut p));
        let expect = Expr::And(Box::new(a), Box::new(b));
        assert!(matches!(p.op(ids[2]), PhysicalOp::Filter { pred } if *pred == expect));
    }

    #[test]
    fn filter_sinks_below_project() {
        let (mut p, ids) = chain(vec![
            PhysicalOp::Project { cols: vec![3, 1] },
            PhysicalOp::Filter { pred: Expr::col_eq(1, 7i64) },
        ]);
        assert!(run(&mut p));
        // In-place swap: node ids keep their positions, ops exchange.
        assert!(
            matches!(p.op(ids[1]), PhysicalOp::Filter { pred } if *pred == Expr::col_eq(1, 7i64)),
            "predicate re-reads column 1 through the projection (cols[1] = 1)"
        );
        assert!(matches!(p.op(ids[2]), PhysicalOp::Project { cols } if *cols == vec![3, 1]));
    }

    #[test]
    fn shared_node_blocks_merges() {
        // The inner Project also feeds a side Store: merging would
        // change what the side branch reads.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let inner = p.add(PhysicalOp::Project { cols: vec![0, 1] }, vec![l]);
        let _side = p.add(PhysicalOp::Store { path: "/side".into() }, vec![inner]);
        let outer = p.add(PhysicalOp::Project { cols: vec![1] }, vec![inner]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![outer]);
        let before = p.clone();
        assert!(!run(&mut p), "no rewrite fired");
        assert_eq!(p, before);
    }

    #[test]
    fn unmappable_predicate_stays_above_project() {
        let (mut p, _) = chain(vec![
            PhysicalOp::Project { cols: vec![0] },
            // Column 1 does not exist below the 1-column projection.
            PhysicalOp::Filter { pred: Expr::col_eq(1, 7i64) },
        ]);
        let before = p.clone();
        assert!(!run(&mut p), "no rewrite fired");
        assert_eq!(p, before);
    }
}
