//! Lineage expansion: a Load of a stored file becomes the plan that
//! produced it.
//!
//! ReStore matches one MapReduce job at a time, but jobs within a
//! workflow communicate through temporary files, and rewritten jobs load
//! repository outputs. To compare apples to apples, every plan that
//! enters the matcher or the repository is **lineage-expanded**: a `Load`
//! of a recorded path is replaced by the (base-level) plan that produced
//! it, read from the path's record in the repository snapshot
//! ([`crate::repository::StoredFile`], [`crate::RepoSnapshot::expand`]).

use crate::matcher::PlanMatch;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::borrow::Cow;
use std::ops::Range;

/// An expansion performed by [`expand`]: the `Load` of `path` was
/// replaced by its producing plan, whose output now flows from `tip`.
#[derive(Debug, Clone)]
pub struct Expansion {
    pub path: String,
    pub tip: NodeId,
    /// Ids the producing plan was inlined as (`tip` among them).
    nodes: Range<u32>,
}

/// A lineage-expanded plan plus enough bookkeeping to collapse unused
/// expansions back into plain Loads. A plan none of whose Loads has a
/// producer expands to itself, borrowed, with no expansions.
#[derive(Debug, Clone)]
pub struct ExpandedPlan<'a> {
    pub plan: Cow<'a, PhysicalPlan>,
    pub expansions: Vec<Expansion>,
}

/// Replace every `Load` of a path `producer` knows with its producing
/// plan (minus that plan's Store). A producing plan is base-level (none
/// of its Loads has a producer) and single-Store. Returns the expanded
/// plan and the list of expansion tips, so callers can collapse unused
/// expansions after rewriting. The plan is copied only when something
/// expands (or its ids are out of topological order, which the copy
/// puts right).
pub fn expand<'a, 'p>(
    plan: &'a PhysicalPlan,
    producer: impl Fn(&str) -> Option<&'p PhysicalPlan>,
) -> ExpandedPlan<'a> {
    let produced = |id: NodeId| match plan.op(id) {
        PhysicalOp::Load { path } => producer(path),
        _ => None,
    };
    if plan.is_topological() && !plan.ids().any(|id| produced(id).is_some()) {
        return ExpandedPlan { plan: Cow::Borrowed(plan), expansions: Vec::new() };
    }
    let mut out = PhysicalPlan::with_capacity(
        plan.len() + plan.ids().filter_map(produced).map(|p| p.len()).sum::<usize>(),
    );
    let mut remap: Vec<NodeId> = vec![NodeId(u32::MAX); plan.len()];
    let mut expansions = Vec::new();

    for id in plan.topo_order() {
        let node = plan.node(id);
        if let Some(producer) = produced(id) {
            let first = out.len() as u32;
            let tip = inline_producer(&mut out, producer);
            remap[id.index()] = tip;
            let nodes = first..out.len() as u32;
            expansions.push(Expansion { path: plan.path(id).to_string(), tip, nodes });
            continue;
        }
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.index()]).collect();
        remap[id.index()] = out.add(node.op.clone(), inputs);
    }
    ExpandedPlan { plan: Cow::Owned(out), expansions }
}

/// Copy `producer` (minus its Store) into `target`, returning the node
/// that carried the producer's output.
fn inline_producer(target: &mut PhysicalPlan, producer: &PhysicalPlan) -> NodeId {
    let store = producer.stores()[0];
    let mut remap: Vec<NodeId> = vec![NodeId(u32::MAX); producer.len()];
    for id in producer.topo_order() {
        if id == store {
            continue;
        }
        let node = producer.node(id);
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.index()]).collect();
        remap[id.index()] = target.add(node.op.clone(), inputs);
    }
    remap[producer.inputs(store)[0].index()]
}

impl ExpandedPlan<'_> {
    /// Would splicing a Load of `stored_path` in at `site` collapse
    /// straight back to the plan that was expanded? It does whenever
    /// the site lies inside an expansion — the expansion's tip survives
    /// the rewrite, so [`ExpandedPlan::collapse_unused`] restores the
    /// original Load above it — or is the tip of the expansion of
    /// `stored_path` itself (the plan already loads exactly that file).
    /// The match loop skips such sites at probe time instead of paying
    /// for a rewrite that cannot change the plan.
    pub fn collapses_back(&self, site: NodeId, stored_path: &str) -> bool {
        self.expansions
            .iter()
            .any(|e| e.nodes.contains(&site.0) && (site != e.tip || e.path == stored_path))
    }

    /// The §3 rewrite on a lineage-expanded plan: splice a Load of
    /// `stored_path` over the matched region, then collapse the lineage
    /// the match did not consume back into plain Loads.
    pub fn rewrite(mut self, m: &PlanMatch, stored_path: &str) -> PhysicalPlan {
        let mut plan = self.plan.into_owned();
        let remap = crate::rewriter::rewrite(&mut plan, m, stored_path);
        // Translate expansion tips through the GC remap; an expansion
        // whose tip vanished was consumed by the matched region and
        // needs no collapsing.
        self.expansions.retain_mut(|e| match remap.get(e.tip.index()).copied().flatten() {
            Some(t) => {
                e.tip = t;
                true
            }
            None => false,
        });
        collapse(&mut plan, &self.expansions);
        plan
    }

    /// Collapse every expansion whose tip is still present and consumed
    /// back into a plain `Load` of the produced path, then GC. Called
    /// after rewriting so unmatched lineage does not get re-executed.
    pub fn collapse_unused(self) -> PhysicalPlan {
        let mut plan = self.plan.into_owned();
        if !collapse(&mut plan, &self.expansions) {
            plan.gc();
        }
        plan
    }
}

/// Redirect the consumers of every expansion tip that is not already a
/// Load to a fresh Load of the expansion's path, and GC if any was.
/// Returns whether one was. Expansions are disjoint, so collapsing one
/// never changes another's tip, and one pass collapses them all.
fn collapse(plan: &mut PhysicalPlan, expansions: &[Expansion]) -> bool {
    let mut acted = false;
    for exp in expansions {
        let tip = exp.tip;
        if matches!(plan.op(tip), PhysicalOp::Load { .. })
            || !plan.ids().any(|c| plan.inputs(c).contains(&tip))
        {
            continue;
        }
        let load = plan.add(PhysicalOp::Load { path: exp.path.clone() }, vec![]);
        plan.redirect(tip, load);
        acted = true;
    }
    if acted {
        plan.gc();
    }
    acted
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dataflow::physical::PhysicalOp::*;

    fn producer() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(Load { path: "/base".into() }, vec![]);
        let pr = p.add(Project { cols: vec![0, 1] }, vec![l]);
        p.add(Store { path: "/tmp-0".into() }, vec![pr]);
        p
    }

    fn consumer() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(Load { path: "/tmp-0".into() }, vec![]);
        let g = p.add(Group { keys: vec![0] }, vec![l]);
        p.add(Store { path: "/out".into() }, vec![g]);
        p
    }

    /// `consumer` expanded with `/tmp-0` produced by `producer`.
    fn expanded<'a>(plan: &'a PhysicalPlan, tmp: &PhysicalPlan) -> ExpandedPlan<'a> {
        expand(plan, |path| (path == "/tmp-0").then_some(tmp))
    }

    #[test]
    fn expansion_inlines_producer() {
        let (plan, tmp) = (consumer(), producer());
        let exp = expanded(&plan, &tmp);
        // Load(/base) -> Project -> Group -> Store.
        assert_eq!(exp.plan.len(), 4);
        assert_eq!(exp.expansions.len(), 1);
        let loads = exp.plan.loads();
        assert_eq!(loads.len(), 1);
        assert!(matches!(exp.plan.op(loads[0]), Load { path } if path == "/base"));
    }

    #[test]
    fn plans_without_provenance_pass_through() {
        let c = consumer();
        let exp = expand(&c, |_| None);
        assert!(matches!(exp.plan, Cow::Borrowed(p) if *p == c));
        assert!(exp.expansions.is_empty());
    }

    #[test]
    fn collapse_restores_unmatched_expansion() {
        let (plan, tmp) = (consumer(), producer());
        let exp = expanded(&plan, &tmp);
        // No rewrite happened; collapsing must restore the original shape.
        let collapsed = exp.collapse_unused();
        assert_eq!(collapsed.loads().len(), 1);
        let l = collapsed.loads()[0];
        assert!(matches!(collapsed.op(l), Load { path } if path == "/tmp-0"));
        // Group and Store survive; producer ops are gone.
        assert_eq!(collapsed.len(), 3);
    }

    #[test]
    fn only_sites_a_rewrite_could_change_survive_the_veto() {
        // Load(/base) -> Project | -> Group -> Store; the expansion of
        // `/tmp-0` is the first two nodes, its tip the Project.
        let (plan, tmp) = (consumer(), producer());
        let exp = expanded(&plan, &tmp);
        let tip = exp.expansions[0].tip;
        let load = exp.plan.inputs(tip)[0];
        let group = exp.plan.consumers(tip)[0];
        assert!(exp.collapses_back(load, "/anything"), "inside the expansion");
        assert!(exp.collapses_back(tip, "/tmp-0"), "the file the plan already loads");
        assert!(!exp.collapses_back(tip, "/repo/7"), "same data stored elsewhere");
        assert!(!exp.collapses_back(group, "/tmp-0"), "outside every expansion");
    }
}
