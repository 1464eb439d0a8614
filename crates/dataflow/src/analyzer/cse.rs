//! Pass 3 — common-subplan extraction.
//!
//! Hash-cons the DAG: walking in topological order, a node whose
//! (operator, mapped inputs) pair was already built reuses the earlier
//! node instead of adding a new one, so a subquery spelled out twice
//! becomes one shared subtree. The executor already fans a
//! multi-consumer node's rows out to each consumer, and the MR
//! compiler already merges shared fragments, so sharing is free
//! downstream.
//!
//! Two kinds of node are never interned:
//!
//! * `Store` — two stores to the same path are still two stores;
//!   materialization points keep their identity.
//! * `Split` — a tee is pure plumbing; interning one would alias
//!   unrelated consumer fans.
//!
//! **Duplicate-edge guard.** The executor identifies an upstream by
//! *producer node*, so `Union(x, x)` delivers one copy of `x`'s rows,
//! not two — a plan that *already* says `union A, A` means exactly
//! that. But when interning turns two distinct (structurally equal)
//! subtrees into the same node, a consumer's edge list would collapse
//! the same way and silently halve its input. So any duplicate edge
//! *introduced by this pass* is re-teed through a fresh `Split`: the
//! consumer keeps two distinct producers and byte-identical input,
//! while signatures stay canonical because both paraphrases (spelled
//! out twice, or shared from the start) canonicalize to the same
//! guarded shape. Pre-existing duplicate edges pass through untouched.
//!
//! **Fixpoint.** Most sweeps meet a plan this pass would hand back
//! unchanged (every compile ends with one), so it checks for that first
//! and rebuilds nothing when it holds; see [`is_fixpoint`].

use crate::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::collections::hash_map::{Entry, HashMap};

/// Returns whether the plan changed; the report is exact.
pub(super) fn run(plan: &mut PhysicalPlan) -> bool {
    if is_fixpoint(plan) {
        return false;
    }
    let mut out = PhysicalPlan::new();
    let mut remap: Vec<Option<NodeId>> = vec![None; plan.len()];
    let mut interned: HashMap<(&PhysicalOp, Vec<NodeId>), NodeId> = HashMap::new();
    for old in plan.topo_order() {
        let node = plan.node(old);
        let mut mapped: Vec<NodeId> = node
            .inputs
            .iter()
            .map(|i| remap[i.index()].expect("inputs precede in topo order"))
            .collect();
        for i in 1..mapped.len() {
            if mapped[..i].contains(&mapped[i]) && !node.inputs[..i].contains(&node.inputs[i]) {
                mapped[i] = out.add(PhysicalOp::Split, vec![mapped[i]]);
            }
        }
        let new_id = match &node.op {
            PhysicalOp::Store { .. } | PhysicalOp::Split => out.add(node.op.clone(), mapped),
            op => match interned.entry((op, mapped)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let id = out.add(op.clone(), e.key().1.clone());
                    *e.insert(id)
                }
            },
        };
        remap[old.index()] = Some(new_id);
    }
    // Interning can orphan the loser of each merge (and placement
    // merges before us leave bypassed nodes behind); drop everything no
    // Store can reach. A store-less plan has no liveness root — leave
    // it whole. `out` is built in topological order, so a `gc` that
    // would keep every node would hand it back as it is.
    if has_store(&out) && !all_reach_a_store(&out) {
        out.gc();
    }
    if out == *plan {
        return false;
    }
    *plan = out;
    true
}

/// Would the rebuild in [`run`] hand `plan` back unchanged? It does
/// when
/// * every input precedes its consumer, so `topo_order` is the identity
///   and the rebuild keeps every id;
/// * no two internable nodes share operator and inputs, so nothing
///   interns, every input maps to itself and no duplicate edge is
///   introduced (none needs a `Split`);
/// * the plan has no Store, or every node reaches one, so nothing is
///   collected.
///
/// The pairwise check is quadratic in plan size, which is query-sized,
/// and compares operators only when the inputs already agree.
fn is_fixpoint(plan: &PhysicalPlan) -> bool {
    let topological = plan.ids().all(|id| plan.inputs(id).iter().all(|&i| i < id));
    let internable =
        |id: NodeId| !matches!(plan.op(id), PhysicalOp::Store { .. } | PhysicalOp::Split);
    let interns_nothing = plan.ids().filter(|&k| internable(k)).all(|k| {
        (0..k.0)
            .map(NodeId)
            .filter(|&j| internable(j))
            .all(|j| plan.inputs(j) != plan.inputs(k) || plan.op(j) != plan.op(k))
    });
    topological && interns_nothing && (!has_store(plan) || all_reach_a_store(plan))
}

fn has_store(plan: &PhysicalPlan) -> bool {
    plan.ids().any(|id| matches!(plan.op(id), PhysicalOp::Store { .. }))
}

/// Does every node reach a Store? `plan`'s ids must be topological:
/// walking them backwards, a node's consumers have all been seen by the
/// time it is, so one that is not yet live never will be.
fn all_reach_a_store(plan: &PhysicalPlan) -> bool {
    let mut live = vec![false; plan.len()];
    for id in (0..plan.len() as u32).rev().map(NodeId) {
        if !live[id.index()] && !matches!(plan.op(id), PhysicalOp::Store { .. }) {
            return false;
        }
        for &i in plan.inputs(id) {
            live[i.index()] = true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::physical::PhysicalNode;

    /// The pass as it was before it reported changes: always rebuild,
    /// cloning each op into the key and the new plan, then `gc`.
    fn rebuild_reference(plan: &PhysicalPlan) -> PhysicalPlan {
        let mut out = PhysicalPlan::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; plan.len()];
        let mut interned: HashMap<(PhysicalOp, Vec<NodeId>), NodeId> = HashMap::new();
        for old in plan.topo_order() {
            let node = plan.node(old).clone();
            let mut mapped: Vec<NodeId> =
                node.inputs.iter().map(|i| remap[i.index()].unwrap()).collect();
            for i in 1..mapped.len() {
                if mapped[..i].contains(&mapped[i]) && !node.inputs[..i].contains(&node.inputs[i]) {
                    mapped[i] = out.add(PhysicalOp::Split, vec![mapped[i]]);
                }
            }
            let new_id = match &node.op {
                PhysicalOp::Store { .. } | PhysicalOp::Split => out.add(node.op.clone(), mapped),
                op => *interned
                    .entry((op.clone(), mapped.clone()))
                    .or_insert_with(|| out.add(op.clone(), mapped.clone())),
            };
            remap[old.index()] = Some(new_id);
        }
        if !out.stores().is_empty() {
            out.gc();
        }
        out
    }

    /// `run` leaves what the reference rebuild leaves, and reports a
    /// change exactly when the reference returns a different plan.
    /// Returns the report.
    fn run_checked(plan: &PhysicalPlan) -> bool {
        let want = rebuild_reference(plan);
        let mut got = plan.clone();
        let changed = run(&mut got);
        assert_eq!(got, want);
        assert_eq!(changed, want != *plan, "change report for\n{}", plan.explain());
        changed
    }

    fn load(p: &mut PhysicalPlan) -> NodeId {
        p.add(PhysicalOp::Load { path: "/d".into() }, vec![])
    }

    fn store(p: &mut PhysicalPlan, input: NodeId) -> NodeId {
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![input])
    }

    #[test]
    fn a_canonical_plan_is_left_alone() {
        let mut p = PhysicalPlan::new();
        let l = load(&mut p);
        let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l]);
        let s = p.add(PhysicalOp::Split, vec![f]);
        p.add(PhysicalOp::Store { path: "/side".into() }, vec![s]);
        let d = p.add(PhysicalOp::Distinct, vec![s]);
        store(&mut p, d);
        assert!(!run_checked(&p));
        // Two stores of one node, and a store-less plan, are fixpoints too.
        let mut q = PhysicalPlan::new();
        let l = load(&mut q);
        store(&mut q, l);
        store(&mut q, l);
        assert!(!run_checked(&q));
        let mut r = PhysicalPlan::new();
        let l = load(&mut r);
        r.add(PhysicalOp::Distinct, vec![l]);
        assert!(!run_checked(&r));
    }

    #[test]
    fn ids_out_of_topological_order_are_renumbered() {
        // Built as Load, Store and then rewired: %0 = Store <- %1, %1 = Load.
        let mut p = PhysicalPlan::new();
        let a = load(&mut p);
        let b = store(&mut p, a);
        *p.node_mut(a) =
            PhysicalNode { op: PhysicalOp::Store { path: "/o".into() }, inputs: vec![b] };
        *p.node_mut(b) =
            PhysicalNode { op: PhysicalOp::Load { path: "/d".into() }, inputs: vec![] };
        assert!(run_checked(&p));
    }

    #[test]
    fn a_dead_node_is_collected() {
        let mut p = PhysicalPlan::new();
        let l = load(&mut p);
        p.add(PhysicalOp::Distinct, vec![l]);
        store(&mut p, l);
        assert!(run_checked(&p));
    }

    #[test]
    fn interning_and_introduced_duplicate_edges_change_the_plan() {
        // Two equal scans under a Union: interned, then re-teed.
        let mut p = PhysicalPlan::new();
        let l1 = load(&mut p);
        let l2 = load(&mut p);
        let u = p.add(PhysicalOp::Union, vec![l1, l2]);
        store(&mut p, u);
        assert!(run_checked(&p));
        // Two equal scans feeding two stores: interned, no tee.
        let mut q = PhysicalPlan::new();
        let l1 = load(&mut q);
        let l2 = load(&mut q);
        store(&mut q, l1);
        store(&mut q, l2);
        assert!(run_checked(&q));
    }

    #[test]
    fn a_preexisting_duplicate_edge_is_a_fixpoint() {
        let mut p = PhysicalPlan::new();
        let l = load(&mut p);
        let u = p.add(PhysicalOp::Union, vec![l, l]);
        store(&mut p, u);
        assert!(!run_checked(&p));
    }

    #[test]
    fn the_rebuild_is_reported_and_then_stable() {
        let mut p = PhysicalPlan::new();
        let l1 = load(&mut p);
        let f1 = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l1]);
        let l2 = load(&mut p);
        let f2 = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l2]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![1]] }, vec![f1, f2]);
        store(&mut p, j);
        assert!(run_checked(&p));
        run(&mut p);
        assert!(!run_checked(&p), "the rebuilt plan is a fixpoint");
    }

    #[test]
    fn identical_branches_intern_once() {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let f1 = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l1]);
        let l2 = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let f2 = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l2]);
        let s1 = p.add(PhysicalOp::Store { path: "/a".into() }, vec![f1]);
        let s2 = p.add(PhysicalOp::Store { path: "/b".into() }, vec![f2]);
        let _ = (s1, s2);
        assert!(run(&mut p));
        assert_eq!(p.loads().len(), 1);
        assert_eq!(p.stores().len(), 2, "stores are never interned");
        let filters = p.ids().filter(|&i| matches!(p.op(i), PhysicalOp::Filter { .. })).count();
        assert_eq!(filters, 1);
    }

    #[test]
    fn introduced_duplicate_edge_gets_a_split() {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let l2 = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let u = p.add(PhysicalOp::Union, vec![l1, l2]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![u]);
        run(&mut p);
        let u = p.ids().find(|&i| matches!(p.op(i), PhysicalOp::Union)).unwrap();
        let ins = p.inputs(u).to_vec();
        assert_ne!(ins[0], ins[1]);
        assert!(matches!(p.op(ins[1]), PhysicalOp::Split));
        assert_eq!(p.inputs(ins[1]), &[ins[0]]);
    }

    #[test]
    fn explicit_duplicate_edge_is_preserved() {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let u = p.add(PhysicalOp::Union, vec![l, l]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![u]);
        run(&mut p);
        let u = p.ids().find(|&i| matches!(p.op(i), PhysicalOp::Union)).unwrap();
        assert_eq!(p.inputs(u)[0], p.inputs(u)[1]);
    }

    #[test]
    fn different_store_paths_stay_distinct() {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        p.add(PhysicalOp::Store { path: "/a".into() }, vec![l]);
        p.add(PhysicalOp::Store { path: "/a".into() }, vec![l]);
        run(&mut p);
        assert_eq!(p.stores().len(), 2, "even same-path stores keep their identity");
    }
}
