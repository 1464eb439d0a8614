//! The plan-graph primitives against their reference.
//!
//! `PhysicalPlan::topo_order` and `PhysicalPlan::gc` skip work when the
//! arena is already topological and move surviving operators instead of
//! copying them. The functions below are the straightforward versions
//! they replaced, kept as the oracle: a consumer list per emitted node,
//! a ready list re-sorted on every push, an ancestor walk per Store and
//! a fresh plan built from clones. Both must agree with them exactly —
//! the same order, the same old-id → new-id map and the same plan — on
//! random DAGs whose ids are topological, shuffled, or disturbed the way
//! a rewrite disturbs them (a Load appended at the end that takes over a
//! node's consumers), with repeated inputs (`union A, A`) and dead
//! nodes; and on every compiled PigMix and paraphrase-suite plan.

use proptest::prelude::*;
use proptest::sample::Index;
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};
use restore_dataflow::{compile, compile_canonical};
use restore_pigmix::{paraphrase, queries};

/// Many more cases in an optimized build, where they are cheap.
const CASES: u32 = if cfg!(debug_assertions) { 2_000 } else { 100_000 };

fn consumers_reference(p: &PhysicalPlan, id: NodeId) -> Vec<NodeId> {
    p.ids().filter(|&n| p.inputs(n).contains(&id)).collect()
}

fn ancestors_reference(p: &PhysicalPlan, id: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; p.len()];
    let mut stack = p.inputs(id).to_vec();
    let mut out = Vec::new();
    while let Some(n) = stack.pop() {
        if seen[n.index()] {
            continue;
        }
        seen[n.index()] = true;
        out.push(n);
        stack.extend_from_slice(p.inputs(n));
    }
    out.sort();
    out
}

fn topo_order_reference(p: &PhysicalPlan) -> Vec<NodeId> {
    let n = p.len();
    let mut remaining_inputs: Vec<usize> = p.ids().map(|id| p.inputs(id).len()).collect();
    let mut ready: Vec<NodeId> =
        (0..n as u32).map(NodeId).filter(|id| remaining_inputs[id.index()] == 0).collect();
    ready.reverse(); // pop from the low end first
    let mut order = Vec::with_capacity(n);
    while let Some(id) = ready.pop() {
        order.push(id);
        for c in consumers_reference(p, id) {
            // A consumer can reference the same input in several
            // positions (e.g. `union A, A`); decrement per edge.
            let multiplicity = p.inputs(c).iter().filter(|&&i| i == id).count();
            remaining_inputs[c.index()] -= multiplicity;
            if remaining_inputs[c.index()] == 0 {
                ready.push(c);
                ready.sort_by(|a, b| b.cmp(a));
            }
        }
    }
    assert_eq!(order.len(), n, "plan contains a cycle");
    order
}

fn gc_reference(p: &mut PhysicalPlan) -> Vec<Option<NodeId>> {
    let mut live = vec![false; p.len()];
    for s in p.stores() {
        live[s.index()] = true;
        for a in ancestors_reference(p, s) {
            live[a.index()] = true;
        }
    }
    let mut out = PhysicalPlan::new();
    let mut remap: Vec<Option<NodeId>> = vec![None; p.len()];
    for id in topo_order_reference(p) {
        if !live[id.index()] {
            continue;
        }
        let node = p.node(id);
        let inputs: Vec<NodeId> =
            node.inputs.iter().map(|i| remap[i.index()].expect("live inputs precede")).collect();
        remap[id.index()] = Some(out.add(node.op.clone(), inputs));
    }
    *p = out;
    remap
}

/// `topo_order`, `consumers` and `gc` agree with the reference on `plan`.
fn assert_matches_reference(plan: &PhysicalPlan) {
    assert_eq!(plan.topo_order(), topo_order_reference(plan), "topo_order of\n{plan:?}");
    for id in plan.ids() {
        assert_eq!(plan.consumers(id), consumers_reference(plan, id), "consumers of {id:?}");
    }
    let (mut got, mut want) = (plan.clone(), plan.clone());
    let (got_remap, want_remap) = (got.gc(), gc_reference(&mut want));
    assert_eq!(got_remap, want_remap, "gc remap of\n{plan:?}");
    assert_eq!(got, want, "gc of\n{plan:?}");
}

/// How a generated DAG's ids relate to its edges.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// Every node reads lower ids (how plans are built).
    Topological,
    /// A random permutation of the topological ids.
    Shuffled(u64),
    /// Topological, then a Load appended at the end takes over one
    /// node's consumers — what a rewrite leaves before its GC.
    Rewritten(Index),
}

fn arb_ids() -> impl Strategy<Value = Ids> {
    (0u8..3, any::<u64>(), any::<Index>()).prop_map(|(kind, seed, at)| match kind {
        0 => Ids::Topological,
        1 => Ids::Shuffled(seed),
        _ => Ids::Rewritten(at),
    })
}

/// One node: an operator kind and where its inputs come from (an index
/// into the nodes before it; a second input repeats the first one time
/// in four, the `union A, A` shape).
fn arb_nodes() -> impl Strategy<Value = Vec<(u8, Index, Index, u8)>> {
    prop::collection::vec((0u8..7, any::<Index>(), any::<Index>(), 0u8..4), 1..20)
}

/// Build the DAG `nodes` describes, numbered as `ids` says.
fn build(nodes: &[(u8, Index, Index, u8)], ids: Ids) -> PhysicalPlan {
    // In topological positions first: (op, input positions).
    let mut shape: Vec<(PhysicalOp, Vec<usize>)> = Vec::new();
    for (k, &(kind, a, b, dup)) in nodes.iter().enumerate() {
        let kind = if k == 0 { 0 } else { kind };
        let a = if k > 0 { a.index(k) } else { 0 };
        let b = if dup == 0 || k == 0 { a } else { b.index(k) };
        shape.push(match kind {
            0 => (PhysicalOp::Load { path: format!("/d{k}") }, vec![]),
            1 => (PhysicalOp::Filter { pred: Expr::col_eq(0, k as i64) }, vec![a]),
            2 => (PhysicalOp::Union, vec![a, b]),
            3 => (PhysicalOp::Join { keys: vec![vec![0], vec![1]] }, vec![a, b]),
            4 => (PhysicalOp::Split, vec![a]),
            5 => (PhysicalOp::Project { cols: vec![k % 3] }, vec![a]),
            _ => (PhysicalOp::Store { path: format!("/o{k}") }, vec![a]),
        });
    }
    let n = shape.len();
    let mut id_of: Vec<u32> = (0..n as u32).collect();
    if let Ids::Shuffled(mut seed) = ids {
        for i in (1..n).rev() {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            id_of.swap(i, ((seed >> 33) % (i as u64 + 1)) as usize);
        }
    }
    let mut pos_of = vec![0; n];
    for (pos, &id) in id_of.iter().enumerate() {
        pos_of[id as usize] = pos;
    }
    let mut plan = PhysicalPlan::new();
    for &pos in &pos_of {
        plan.add(shape[pos].0.clone(), vec![]);
    }
    for (pos, (_, inputs)) in shape.iter().enumerate() {
        plan.node_mut(NodeId(id_of[pos])).inputs =
            inputs.iter().map(|&i| NodeId(id_of[i])).collect();
    }
    if let Ids::Rewritten(at) = ids {
        let tip = NodeId(at.index(n) as u32);
        let load = plan.add(PhysicalOp::Load { path: "/stored".into() }, vec![]);
        plan.redirect(tip, load);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn primitives_match_the_reference_on_random_dags(nodes in arb_nodes(), ids in arb_ids()) {
        assert_matches_reference(&build(&nodes, ids));
    }
}

#[test]
fn repeated_inputs_and_non_topological_ids_match_the_reference() {
    // `union A, A` read by a node with a lower id.
    let mut p = PhysicalPlan::new();
    let store = p.add(PhysicalOp::Store { path: "/o".into() }, vec![]);
    let union = p.add(PhysicalOp::Union, vec![]);
    let load = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
    p.node_mut(union).inputs = vec![load, load];
    p.node_mut(store).inputs = vec![union];
    assert_eq!(p.topo_order(), vec![load, union, store]);
    assert_matches_reference(&p);
    let remap = p.gc();
    assert_eq!(remap, vec![Some(NodeId(2)), Some(NodeId(1)), Some(NodeId(0))]);
    assert_eq!(p.inputs(NodeId(1)), [NodeId(0), NodeId(0)]);
}

#[test]
fn compiled_plans_match_the_reference() {
    let mut texts: Vec<String> =
        queries::standard_workload("/out").into_iter().map(|(_, q)| q).collect();
    for case in paraphrase::paraphrase_suite("/out") {
        texts.push(case.original);
        texts.extend(case.paraphrases);
    }
    for q in &texts {
        let plain = compile(q, "/wf").unwrap();
        let (canonical, _) = compile_canonical(q, "/wf").unwrap();
        for job in plain.jobs.iter().chain(&canonical.jobs) {
            assert_matches_reference(&job.plan);
            // Every operator a rewrite could replace with a Load.
            for tip in job.plan.ids() {
                let mut rewritten = job.plan.clone();
                let load = rewritten.add(PhysicalOp::Load { path: "/stored".into() }, vec![]);
                rewritten.redirect(tip, load);
                assert_matches_reference(&rewritten);
            }
        }
    }
}
