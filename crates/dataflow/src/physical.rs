//! Physical operator plans — the currency of ReStore.
//!
//! A [`PhysicalPlan`] is an arena-allocated DAG of [`PhysicalOp`]s. Leaves
//! are `Load` operators, roots are `Store` operators. A whole query lowers
//! to one plan; the MR compiler segments it into per-job plans; ReStore's
//! repository stores per-job plans; the matcher tests containment between
//! them; the rewriter splices `Load`s of stored outputs into them; and the
//! sub-job enumerator injects `Split`+`Store` pairs into them.
//!
//! Operator parameters implement `Eq + Hash`, giving the paper's operator
//! equivalence ("perform functions that produce the same output data")
//! a structural definition, and enabling Merkle-style plan signatures used
//! to deduplicate repository entries.

use crate::expr::{AggFunc, Expr};
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

/// Index of a node within its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One output field of an [`PhysicalOp::Aggregate`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggItem {
    /// Pass through an input column (typically the group key).
    Key(usize),
    /// Apply an aggregate to field `field` of the bag at `bag_col`
    /// (`field = None` is COUNT(*) over the bag).
    Agg { func: AggFunc, bag_col: usize, field: Option<usize> },
}

/// Physical operators. The set mirrors Pig's: "Each language has a fixed
/// set of physical operators such as Filter, Select, and Join" (§1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhysicalOp {
    /// Read a dataset from the DFS. Leaf.
    Load { path: String },
    /// Write the input to the DFS. Root (no consumers).
    Store { path: String },
    /// Keep the listed columns, in order.
    Project { cols: Vec<usize> },
    /// Generalized FOREACH: one output column per expression.
    MapExpr { exprs: Vec<Expr> },
    /// Keep rows whose predicate is truthy.
    Filter { pred: Expr },
    /// Inner equi-join of n inputs; `keys[i]` are key columns of input i.
    /// Output rows concatenate the fields of all inputs in input order.
    Join { keys: Vec<Vec<usize>> },
    /// Group a single input by key columns (empty = GROUP ALL). Output:
    /// (key..., bag) — or ("all", bag) for GROUP ALL.
    Group { keys: Vec<usize> },
    /// Co-group n inputs; output: (key..., bag_0, ..., bag_{n-1}).
    CoGroup { keys: Vec<Vec<usize>> },
    /// Aggregate over grouped rows (input rows carry bags).
    Aggregate { items: Vec<AggItem> },
    /// One output row per tuple in the bag at `bag_col`; the bag column is
    /// replaced by the flattened tuple's fields.
    Flatten { bag_col: usize },
    /// Remove duplicate rows.
    Distinct,
    /// Concatenate inputs (schemas must align).
    Union,
    /// Global sort by (column, ascending) keys.
    OrderBy { keys: Vec<(usize, bool)> },
    /// Keep the first `n` rows.
    Limit { n: u64 },
    /// Tee: pass rows through to every consumer (used to feed injected
    /// Store operators, like Pig's Split).
    Split,
}

impl PhysicalOp {
    /// Operators that force a map/reduce boundary (they need the shuffle).
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            PhysicalOp::Join { .. }
                | PhysicalOp::Group { .. }
                | PhysicalOp::CoGroup { .. }
                | PhysicalOp::Distinct
                | PhysicalOp::OrderBy { .. }
                | PhysicalOp::Limit { .. }
        )
    }

    /// Short operator name for display and signatures.
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalOp::Load { .. } => "Load",
            PhysicalOp::Store { .. } => "Store",
            PhysicalOp::Project { .. } => "Project",
            PhysicalOp::MapExpr { .. } => "MapExpr",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::Join { .. } => "Join",
            PhysicalOp::Group { .. } => "Group",
            PhysicalOp::CoGroup { .. } => "CoGroup",
            PhysicalOp::Aggregate { .. } => "Aggregate",
            PhysicalOp::Flatten { .. } => "Flatten",
            PhysicalOp::Distinct => "Distinct",
            PhysicalOp::Union => "Union",
            PhysicalOp::OrderBy { .. } => "OrderBy",
            PhysicalOp::Limit { .. } => "Limit",
            PhysicalOp::Split => "Split",
        }
    }

    /// Per-record CPU weight for the cost model's `Σ ET(op_i)` term.
    pub fn cost_weight(&self) -> f64 {
        match self {
            PhysicalOp::Load { .. } | PhysicalOp::Store { .. } => 0.0,
            PhysicalOp::Project { cols } => 0.1 + 0.02 * cols.len() as f64,
            PhysicalOp::MapExpr { exprs } => {
                0.1 + exprs.iter().map(|e| e.cost_weight()).sum::<f64>()
            }
            PhysicalOp::Filter { pred } => 0.1 + pred.cost_weight(),
            PhysicalOp::Join { keys } => 1.5 + 0.5 * keys.len() as f64,
            PhysicalOp::Group { .. } => 1.5,
            PhysicalOp::CoGroup { keys } => 1.2 + 0.4 * keys.len() as f64,
            PhysicalOp::Aggregate { items } => 0.4 + 0.1 * items.len() as f64,
            PhysicalOp::Flatten { .. } => 0.3,
            PhysicalOp::Distinct => 1.0,
            PhysicalOp::Union => 0.05,
            PhysicalOp::OrderBy { .. } => 1.5,
            PhysicalOp::Limit { .. } => 0.05,
            PhysicalOp::Split => 0.05,
        }
    }
}

/// A node: operator plus ordered input edges.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalNode {
    pub op: PhysicalOp,
    pub inputs: Vec<NodeId>,
}

/// An arena DAG of physical operators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalPlan {
    nodes: Vec<PhysicalNode>,
}

impl PhysicalPlan {
    pub fn new() -> Self {
        PhysicalPlan::default()
    }

    /// An empty plan with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        PhysicalPlan { nodes: Vec::with_capacity(n) }
    }

    /// Add a node, returning its id.
    pub fn add(&mut self, op: PhysicalOp, inputs: Vec<NodeId>) -> NodeId {
        for i in &inputs {
            assert!(i.index() < self.nodes.len(), "input {i:?} out of range");
        }
        self.nodes.push(PhysicalNode { op, inputs });
        NodeId(self.nodes.len() as u32 - 1)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut PhysicalNode {
        &mut self.nodes[id.index()]
    }

    pub fn op(&self, id: NodeId) -> &PhysicalOp {
        &self.nodes[id.index()].op
    }

    pub fn inputs(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].inputs
    }

    /// All node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Nodes consuming `id`'s output, in id order.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.ids().filter(|&n| self.nodes[n.index()].inputs.contains(&id)).collect()
    }

    /// All Load nodes, in id order.
    pub fn loads(&self) -> Vec<NodeId> {
        self.ids().filter(|&n| matches!(self.op(n), PhysicalOp::Load { .. })).collect()
    }

    /// All Store nodes, in id order.
    pub fn stores(&self) -> Vec<NodeId> {
        self.ids().filter(|&n| matches!(self.op(n), PhysicalOp::Store { .. })).collect()
    }

    /// The file the Load or Store `id` reads or writes.
    pub fn path(&self, id: NodeId) -> &str {
        match self.op(id) {
            PhysicalOp::Load { path } | PhysicalOp::Store { path } => path,
            op => unreachable!("{op:?} has no path"),
        }
    }

    /// Topological order (inputs before consumers): Kahn's algorithm,
    /// always taking the lowest ready id next. The arena is built
    /// bottom-up, so ids are usually topological already and the order is
    /// the ids themselves; rewrites can disturb that, and then it is
    /// computed.
    pub fn topo_order(&self) -> Vec<NodeId> {
        if self.is_topological() {
            return self.ids().collect();
        }
        let n = self.nodes.len();
        let mut remaining: Vec<usize> = self.nodes.iter().map(|nd| nd.inputs.len()).collect();
        let mut ready: BinaryHeap<Reverse<u32>> =
            (0..n as u32).filter(|&i| remaining[i as usize] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(id)) = ready.pop() {
            let id = NodeId(id);
            order.push(id);
            for (c, node) in self.nodes.iter().enumerate() {
                // A consumer can reference the same input in several
                // positions (e.g. `union A, A`); decrement per edge.
                let edges = node.inputs.iter().filter(|&&i| i == id).count();
                if edges > 0 {
                    remaining[c] -= edges;
                    if remaining[c] == 0 {
                        ready.push(Reverse(c as u32));
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), n, "plan contains a cycle");
        order
    }

    /// Does every node read only lower ids? Then the id order is
    /// [`PhysicalPlan::topo_order`].
    pub fn is_topological(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, nd)| nd.inputs.iter().all(|x| x.index() < i))
    }

    /// Point every input edge that reads `from` at `to` instead. Returns
    /// whether there was one.
    pub fn redirect(&mut self, from: NodeId, to: NodeId) -> bool {
        let mut any = false;
        for input in self.nodes.iter_mut().flat_map(|nd| nd.inputs.iter_mut()) {
            if *input == from {
                *input = to;
                any = true;
            }
        }
        any
    }

    /// Ancestors of `id` (nodes it transitively reads), excluding `id`.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = self.inputs(id).to_vec();
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            out.push(n);
            stack.extend_from_slice(self.inputs(n));
        }
        out.sort();
        out
    }

    /// Extract the sub-plan consisting of `id` and all its ancestors, with
    /// a fresh `Store{store_path}` appended as root. This is the paper's
    /// candidate sub-job `J_P` for operator `P = id` (§4). `Split` nodes
    /// that would become pass-through stubs are elided.
    pub fn prefix_plan(&self, id: NodeId, store_path: &str) -> PhysicalPlan {
        let mut in_cone = vec![false; self.nodes.len()];
        for a in self.ancestors(id) {
            in_cone[a.index()] = true;
        }
        in_cone[id.index()] = true;
        // Rewrites insert nodes out of id order, so walk topologically.
        let keep: Vec<NodeId> =
            self.topo_order().into_iter().filter(|n| in_cone[n.index()]).collect();
        let mut out = PhysicalPlan::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for old in keep {
            let node = &self.nodes[old.index()];
            // A Split inside a prefix has exactly one surviving consumer
            // path; elide it by aliasing to its input.
            if matches!(node.op, PhysicalOp::Split) {
                remap[old.index()] = remap[node.inputs[0].index()];
                continue;
            }
            let inputs: Vec<NodeId> = node
                .inputs
                .iter()
                .map(|i| remap[i.index()].expect("ancestors precede node"))
                .collect();
            let new_id = out.add(node.op.clone(), inputs);
            remap[old.index()] = Some(new_id);
        }
        let tip = remap[id.index()].expect("id was kept");
        out.add(PhysicalOp::Store { path: store_path.to_string() }, vec![tip]);
        out
    }

    /// Drop nodes not reachable (as an ancestor) from any Store. Returns
    /// the mapping old-id → new-id. Used after rewrites. The survivors
    /// keep their operators (moved, not copied) and are renumbered in
    /// [`PhysicalPlan::topo_order`].
    pub fn gc(&mut self) -> Vec<Option<NodeId>> {
        let n = self.nodes.len();
        let mut live = vec![false; n];
        let mut stack: Vec<NodeId> =
            self.ids().filter(|&id| matches!(self.op(id), PhysicalOp::Store { .. })).collect();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut live[id.index()], true) {
                stack.extend_from_slice(self.inputs(id));
            }
        }
        let mut remap: Vec<Option<NodeId>> = vec![None; n];
        if self.is_topological() {
            // The order is the ids: compact in place.
            for (next, (slot, _)) in remap.iter_mut().zip(&live).filter(|(_, &l)| l).enumerate() {
                *slot = Some(NodeId(next as u32));
            }
            let mut keep = live.iter();
            self.nodes.retain(|_| *keep.next().expect("one flag per node"));
        } else {
            let order = self.topo_order();
            let mut old = std::mem::take(&mut self.nodes);
            self.nodes.reserve_exact(live.iter().filter(|&&l| l).count());
            for id in order.into_iter().filter(|id| live[id.index()]) {
                remap[id.index()] = Some(NodeId(self.nodes.len() as u32));
                let hole = PhysicalNode { op: PhysicalOp::Split, inputs: Vec::new() };
                self.nodes.push(std::mem::replace(&mut old[id.index()], hole));
            }
        }
        for input in self.nodes.iter_mut().flat_map(|nd| nd.inputs.iter_mut()) {
            *input = remap[input.index()].expect("live inputs are live");
        }
        remap
    }

    /// Merkle-style signature of the sub-DAG rooted at `id`: hashes the
    /// operator (Store paths excluded — materialization location does not
    /// change what is computed) and the signatures of its inputs. A
    /// `Split` tee carries its input's signature, so two plans the
    /// matcher treats as equivalent (it walks through Splits) always
    /// sign alike — the property the repository's tip-signature index
    /// relies on to agree with the sequential scan.
    pub fn node_signature(&self, id: NodeId) -> u64 {
        let mut memo = vec![None; self.nodes.len()];
        self.node_signature_memo(id, &mut memo)
    }

    /// [`PhysicalPlan::node_signature`] of every node, indexed by node
    /// id, hashing each node once (one shared memo) instead of once per
    /// consumer path.
    pub fn node_signatures(&self) -> Vec<u64> {
        let mut memo = vec![None; self.nodes.len()];
        self.ids().map(|id| self.node_signature_memo(id, &mut memo)).collect()
    }

    fn node_signature_memo(&self, id: NodeId, memo: &mut Vec<Option<u64>>) -> u64 {
        if let Some(sig) = memo[id.index()] {
            return sig;
        }
        let node = &self.nodes[id.index()];
        let sig = if matches!(node.op, PhysicalOp::Split) {
            // A transparent tee: what flows out is what flowed in.
            self.node_signature_memo(node.inputs[0], memo)
        } else {
            let mut h = DefaultHasher::new();
            match &node.op {
                // Store is a materialization point: its path is
                // irrelevant to plan identity.
                PhysicalOp::Store { .. } => "Store".hash(&mut h),
                other => other.hash(&mut h),
            }
            for &i in &node.inputs {
                self.node_signature_memo(i, memo).hash(&mut h);
            }
            h.finish()
        };
        memo[id.index()] = Some(sig);
        sig
    }

    /// Signature of the whole plan: combined signatures of its Stores
    /// (order-independent XOR so Store enumeration order is irrelevant).
    pub fn signature(&self) -> u64 {
        let mut memo = vec![None; self.nodes.len()];
        self.ids()
            .filter(|&id| matches!(self.op(id), PhysicalOp::Store { .. }))
            .map(|s| self.node_signature_memo(s, &mut memo))
            .fold(0u64, |acc, s| acc ^ s)
    }

    /// Number of operators excluding Store/Split bookkeeping nodes.
    pub fn effective_len(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.op, PhysicalOp::Store { .. } | PhysicalOp::Split))
            .count()
    }

    /// Human-readable plan listing (topological).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for id in self.topo_order() {
            let node = &self.nodes[id.index()];
            let ins: Vec<String> = node.inputs.iter().map(|i| format!("%{}", i.0)).collect();
            out.push_str(&format!(
                "%{} = {}{}{}\n",
                id.0,
                node.op.name(),
                match &node.op {
                    PhysicalOp::Load { path } | PhysicalOp::Store { path } => format!("('{path}')"),
                    PhysicalOp::Project { cols } => format!("({cols:?})"),
                    PhysicalOp::Filter { pred } => format!("({pred:?})"),
                    PhysicalOp::MapExpr { exprs } => format!("({exprs:?})"),
                    PhysicalOp::Join { keys } | PhysicalOp::CoGroup { keys } =>
                        format!("({keys:?})"),
                    PhysicalOp::Group { keys } => format!("({keys:?})"),
                    PhysicalOp::Aggregate { items } => format!("({items:?})"),
                    PhysicalOp::Flatten { bag_col } => format!("({bag_col})"),
                    PhysicalOp::OrderBy { keys } => format!("({keys:?})"),
                    PhysicalOp::Limit { n } => format!("({n})"),
                    _ => String::new(),
                },
                if ins.is_empty() { String::new() } else { format!(" <- [{}]", ins.join(", ")) }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Load -> Project -> Filter -> Store with a Split tee to a side
    /// Store after Project.
    fn sample() -> (PhysicalPlan, NodeId, NodeId, NodeId) {
        let mut p = PhysicalPlan::new();
        let load = p.add(PhysicalOp::Load { path: "/data".into() }, vec![]);
        let proj = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![load]);
        let split = p.add(PhysicalOp::Split, vec![proj]);
        let _side = p.add(PhysicalOp::Store { path: "/side".into() }, vec![split]);
        let filt = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![split]);
        let _store = p.add(PhysicalOp::Store { path: "/out".into() }, vec![filt]);
        (p, load, proj, filt)
    }

    #[test]
    fn consumers_and_loads_stores() {
        let (p, load, proj, _) = sample();
        assert_eq!(p.consumers(load), vec![proj]);
        assert_eq!(p.loads(), vec![load]);
        assert_eq!(p.stores().len(), 2);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (p, ..) = sample();
        let order = p.topo_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for id in p.ids() {
            for &i in p.inputs(id) {
                assert!(pos(i) < pos(id), "{i:?} before {id:?}");
            }
        }
    }

    #[test]
    fn topo_order_handles_duplicate_edges() {
        // `union A, A`: one producer feeding two input positions.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let u = p.add(PhysicalOp::Union, vec![l, l]);
        let s = p.add(PhysicalOp::Store { path: "/o".into() }, vec![u]);
        assert_eq!(p.topo_order(), vec![l, u, s]);
        // Self-join shape: two distinct branches from one load.
        let mut q = PhysicalPlan::new();
        let l = q.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let j = q.add(PhysicalOp::Join { keys: vec![vec![0], vec![1]] }, vec![l, l]);
        q.add(PhysicalOp::Store { path: "/o".into() }, vec![j]);
        assert_eq!(q.topo_order().len(), 3);
    }

    #[test]
    fn redirect_moves_every_edge() {
        // `union A, A`: both positions read the load.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let u = p.add(PhysicalOp::Union, vec![l, l]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![u]);
        let m = p.add(PhysicalOp::Load { path: "/m".into() }, vec![]);
        assert!(p.redirect(l, m));
        assert_eq!(p.inputs(u), [m, m]);
        assert!(!p.redirect(l, m), "nothing reads it any more");
    }

    #[test]
    fn ancestors_are_transitive() {
        let (p, load, proj, filt) = sample();
        let anc = p.ancestors(filt);
        assert!(anc.contains(&load));
        assert!(anc.contains(&proj));
        assert!(!anc.contains(&filt));
    }

    #[test]
    fn prefix_plan_extracts_subjob() {
        let (p, _, proj, _) = sample();
        let sub = p.prefix_plan(proj, "/repo/1");
        // Load -> Project -> Store; the Split was elided.
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.stores().len(), 1);
        let store = sub.stores()[0];
        assert!(matches!(sub.op(store), PhysicalOp::Store { path } if path == "/repo/1"));
        let tip = sub.inputs(store)[0];
        assert!(matches!(sub.op(tip), PhysicalOp::Project { .. }));
    }

    #[test]
    fn prefix_plan_through_split_keeps_semantics() {
        let (p, _, _, filt) = sample();
        let sub = p.prefix_plan(filt, "/repo/2");
        // Load -> Project -> Filter -> Store (Split elided, side Store not
        // part of the ancestor cone).
        assert_eq!(sub.len(), 4);
        assert!(sub.ids().all(|id| !matches!(sub.op(id), PhysicalOp::Split)));
    }

    #[test]
    fn signature_ignores_store_path() {
        let mk = |out: &str| {
            let mut p = PhysicalPlan::new();
            let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
            let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(1, "x") }, vec![l]);
            p.add(PhysicalOp::Store { path: out.into() }, vec![f]);
            p
        };
        assert_eq!(mk("/a").signature(), mk("/b").signature());
    }

    #[test]
    fn signature_sensitive_to_ops_and_paths() {
        let mk = |load: &str, col: usize| {
            let mut p = PhysicalPlan::new();
            let l = p.add(PhysicalOp::Load { path: load.into() }, vec![]);
            let f = p.add(PhysicalOp::Project { cols: vec![col] }, vec![l]);
            p.add(PhysicalOp::Store { path: "/o".into() }, vec![f]);
            p
        };
        assert_eq!(mk("/d", 0).signature(), mk("/d", 0).signature());
        assert_ne!(mk("/d", 0).signature(), mk("/d", 1).signature());
        assert_ne!(mk("/d", 0).signature(), mk("/e", 0).signature());
    }

    #[test]
    fn signature_sees_through_split_tees() {
        // The sample's Filter reads Project through a Split; the same
        // chain without the tee must sign identically, node for node.
        let (teed, _, proj, filt) = sample();
        let mut plain = PhysicalPlan::new();
        let l = plain.add(PhysicalOp::Load { path: "/data".into() }, vec![]);
        let p = plain.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l]);
        let f = plain.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![p]);
        plain.add(PhysicalOp::Store { path: "/out".into() }, vec![f]);
        assert_eq!(teed.node_signature(filt), plain.node_signature(f));
        assert_eq!(teed.node_signature(proj), plain.node_signature(p));
        let sigs = teed.node_signatures();
        for id in teed.ids() {
            assert_eq!(sigs[id.index()], teed.node_signature(id), "shared memo == fresh memo");
        }
        let split = teed.ids().find(|&i| matches!(teed.op(i), PhysicalOp::Split)).unwrap();
        assert_eq!(sigs[split.index()], sigs[proj.index()]);
    }

    #[test]
    fn gc_removes_unreachable() {
        let (mut p, ..) = sample();
        // Add an orphan chain not connected to any Store.
        let orphan_load = p.add(PhysicalOp::Load { path: "/x".into() }, vec![]);
        let _orphan = p.add(PhysicalOp::Distinct, vec![orphan_load]);
        let before = p.len();
        p.gc();
        assert_eq!(p.len(), before - 2);
        assert_eq!(p.stores().len(), 2);
    }

    #[test]
    fn blocking_classification() {
        assert!(PhysicalOp::Join { keys: vec![] }.is_blocking());
        assert!(PhysicalOp::Group { keys: vec![] }.is_blocking());
        assert!(PhysicalOp::Distinct.is_blocking());
        assert!(!PhysicalOp::Filter { pred: Expr::col(0) }.is_blocking());
        assert!(!PhysicalOp::Union.is_blocking());
        assert!(!PhysicalOp::Split.is_blocking());
    }

    #[test]
    fn explain_lists_all_nodes() {
        let (p, ..) = sample();
        let text = p.explain();
        assert!(text.contains("Load('/data')"));
        assert!(text.contains("Project"));
        assert!(text.contains("Store('/out')"));
        assert_eq!(text.lines().count(), p.len());
    }

    #[test]
    fn effective_len_skips_bookkeeping() {
        let (p, ..) = sample();
        // 6 nodes total, minus 2 Stores and 1 Split.
        assert_eq!(p.effective_len(), 3);
    }
}
