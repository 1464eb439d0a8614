//! Plan matching — §3 of the paper.
//!
//! A repository plan *matches* an input job plan when it is **contained**
//! in it: every operator of the repository plan has an equivalent
//! operator in the input plan. Two operators are equivalent when "(1)
//! their inputs are pipelined from operators that are equivalent or from
//! the same data sets, and (2) they perform functions that produce the
//! same output data". We realize (2) structurally: operators are
//! equivalent when their kinds and parameters are identical (`PhysicalOp:
//! Eq`), with two normalizations — `Store` operators compare equal
//! regardless of target path (a materialization point does not change
//! what is computed), and `Split` tees are transparent.
//!
//! [`pairwise_plan_traversal`] implements the paper's Algorithm 1: a
//! simultaneous depth-first walk of both plans starting from their Load
//! frontiers. The walk delegates the per-pair decision to the memoized
//! recursive [`equivalent`] check, which resolves the ambiguity the
//! pseudocode leaves open for multi-input operators (Join inputs must
//! match *positionally*, because join keys are per-position).

use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::collections::HashMap;

/// Result of a successful containment test.
#[derive(Debug, Clone)]
pub struct PlanMatch {
    /// Node in the *input* plan equivalent to the repository plan's tip
    /// (the operator feeding its Store). Rewriting replaces this node's
    /// output with a Load of the stored result.
    pub tip: NodeId,
    /// repo node → input node correspondence for the matched region.
    pub mapping: HashMap<NodeId, NodeId>,
}

/// Skip through transparent `Split` tees.
fn through_splits(plan: &PhysicalPlan, mut id: NodeId) -> NodeId {
    while matches!(plan.op(id), PhysicalOp::Split) {
        id = plan.inputs(id)[0];
    }
    id
}

/// The operator feeding a single-Store plan's Store node.
pub fn plan_tip(plan: &PhysicalPlan) -> Option<NodeId> {
    let mut stores = plan.ids().filter(|&id| matches!(plan.op(id), PhysicalOp::Store { .. }));
    match (stores.next(), stores.next()) {
        (Some(s), None) => Some(through_splits(plan, plan.inputs(s)[0])),
        _ => None,
    }
}

struct Matcher<'a> {
    repo: &'a PhysicalPlan,
    input: &'a PhysicalPlan,
    memo: HashMap<(NodeId, NodeId), bool>,
}

impl<'a> Matcher<'a> {
    /// Recursive operator equivalence with memoization.
    fn equivalent(&mut self, r: NodeId, p: NodeId) -> bool {
        let r = through_splits(self.repo, r);
        let p = through_splits(self.input, p);
        if let Some(&hit) = self.memo.get(&(r, p)) {
            return hit;
        }
        // Insert a provisional false to break any accidental cycle.
        self.memo.insert((r, p), false);
        let result = self.equivalent_uncached(r, p);
        self.memo.insert((r, p), result);
        result
    }

    fn equivalent_uncached(&mut self, r: NodeId, p: NodeId) -> bool {
        let (rop, pop) = (self.repo.op(r), self.input.op(p));
        let params_equal = match (rop, pop) {
            // Same data set: Load paths must agree.
            (PhysicalOp::Load { path: a }, PhysicalOp::Load { path: b }) => a == b,
            // Store location does not change the computed data.
            (PhysicalOp::Store { .. }, PhysicalOp::Store { .. }) => true,
            (a, b) => a == b,
        };
        if !params_equal {
            return false;
        }
        let (rin, pin) = (self.repo.inputs(r), self.input.inputs(p));
        if rin.len() != pin.len() {
            return false;
        }
        // Positional input equivalence: parameters like join keys are
        // per-position, so inputs cannot be permuted.
        rin.iter().zip(pin.iter()).all(|(&ri, &pi)| self.equivalent(ri, pi))
    }

    /// Record the repo→input correspondence for a proven-equivalent pair.
    fn collect_mapping(&self, r: NodeId, p: NodeId, out: &mut HashMap<NodeId, NodeId>) {
        let r = through_splits(self.repo, r);
        let p = through_splits(self.input, p);
        if out.insert(r, p).is_some() {
            return;
        }
        for (&ri, &pi) in self.repo.inputs(r).iter().zip(self.input.inputs(p)) {
            self.collect_mapping(ri, pi, out);
        }
    }
}

/// The paper's Algorithm 1, `PairwisePlanTraversal`: traverse both plans
/// simultaneously from their Load operators, pairing equivalent
/// operators, and succeed when every operator of the repository plan has
/// an equivalent in the input plan.
///
/// Returns the match anchored at the repository plan's tip, or `None`.
pub fn pairwise_plan_traversal(
    repo_plan: &PhysicalPlan,
    input_plan: &PhysicalPlan,
) -> Option<PlanMatch> {
    // The traversal starts at the Load frontier (Algorithm 1 is invoked
    // with the Load operators of both plans); anchoring at the repo tip
    // and recursing toward the Loads visits exactly the same pairs in
    // depth-first order while keeping the containment decision exact.
    // Candidate anchor sites are scanned in topological order so the
    // first (deepest-upstream) occurrence wins deterministically.
    pairwise_plan_traversal_at(repo_plan, input_plan, input_plan.topo_order())
}

/// [`pairwise_plan_traversal`] restricted to the given anchor `sites` of
/// the input plan, tried in the order given: the repository's lookups
/// pass the sites a rewrite could actually use (and, through the
/// tip-signature index, only those whose signature can match at all).
pub(crate) fn pairwise_plan_traversal_at(
    repo_plan: &PhysicalPlan,
    input_plan: &PhysicalPlan,
    sites: impl IntoIterator<Item = NodeId>,
) -> Option<PlanMatch> {
    let r_tip = plan_tip(repo_plan)?;
    let memo = HashMap::with_capacity(repo_plan.len());
    let mut m = Matcher { repo: repo_plan, input: input_plan, memo };
    for p in sites {
        if matches!(input_plan.op(p), PhysicalOp::Store { .. } | PhysicalOp::Split) {
            continue;
        }
        if m.equivalent(r_tip, p) {
            let mut mapping = HashMap::with_capacity(repo_plan.len());
            m.collect_mapping(r_tip, p, &mut mapping);
            return Some(PlanMatch { tip: p, mapping });
        }
    }
    None
}

/// Subsumption test for repository ordering (§3, rule 1): plan `a`
/// subsumes plan `b` when all of `b`'s operators have equivalents in `a`
/// — i.e. `b` is contained in `a`.
pub fn subsumes(a: &PhysicalPlan, b: &PhysicalPlan) -> bool {
    pairwise_plan_traversal(b, a).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dataflow::expr::Expr;

    fn load_project_store(path: &str, cols: Vec<usize>, out: &str) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols }, vec![l]);
        p.add(PhysicalOp::Store { path: out.into() }, vec![pr]);
        p
    }

    /// The paper's Q1: two load+project branches joined, stored.
    fn q1_plan(out: &str) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let p1 = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l1]);
        let l2 = p.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p2 = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l2]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p1, p2]);
        p.add(PhysicalOp::Store { path: out.into() }, vec![j]);
        p
    }

    /// Q2's first job is Q1's join plan; its second job groups+aggregates.
    fn q2_job1(out: &str) -> PhysicalPlan {
        q1_plan(out)
    }

    #[test]
    fn identical_plans_match() {
        let a = q1_plan("/o1");
        let b = q1_plan("/o2");
        let m = pairwise_plan_traversal(&a, &b).unwrap();
        assert!(matches!(b.op(m.tip), PhysicalOp::Join { .. }));
        // Mapping covers load, project, join on both branches.
        assert_eq!(m.mapping.len(), 5);
    }

    #[test]
    fn store_path_does_not_matter() {
        let a = load_project_store("/d", vec![0], "/x");
        let b = load_project_store("/d", vec![0], "/y");
        assert!(pairwise_plan_traversal(&a, &b).is_some());
    }

    #[test]
    fn different_load_paths_do_not_match() {
        let a = load_project_store("/d1", vec![0], "/x");
        let b = load_project_store("/d2", vec![0], "/x");
        assert!(pairwise_plan_traversal(&a, &b).is_none());
    }

    #[test]
    fn different_params_do_not_match() {
        let a = load_project_store("/d", vec![0], "/x");
        let b = load_project_store("/d", vec![1], "/x");
        assert!(pairwise_plan_traversal(&a, &b).is_none());
    }

    #[test]
    fn sub_plan_is_contained_in_larger_plan() {
        // Repo holds Load(/pv) -> Project([0,2]) -> Store; Q1 contains it.
        let repo = load_project_store("/pv", vec![0, 2], "/stored");
        let q1 = q1_plan("/q1out");
        let m = pairwise_plan_traversal(&repo, &q1).unwrap();
        assert!(matches!(q1.op(m.tip), PhysicalOp::Project { .. }));
        // It matched the /pv branch, not the /users branch.
        let load_of_tip = q1.inputs(m.tip)[0];
        assert!(matches!(q1.op(load_of_tip), PhysicalOp::Load { path } if path == "/pv"));
    }

    #[test]
    fn larger_plan_is_not_contained_in_smaller() {
        let repo = q1_plan("/stored");
        let small = load_project_store("/pv", vec![0, 2], "/out");
        assert!(pairwise_plan_traversal(&repo, &small).is_none());
    }

    #[test]
    fn whole_job_match_of_q2_job1_against_stored_q1() {
        let repo = q1_plan("/q1out");
        let input = q2_job1("/tmp-0");
        let m = pairwise_plan_traversal(&repo, &input).unwrap();
        // Tip is the join — a whole-job match (tip feeds the Store).
        let store = input.stores()[0];
        assert_eq!(input.inputs(store)[0], m.tip);
    }

    #[test]
    fn join_branches_are_positional() {
        // Same branches, swapped: keys [0],[0] are symmetric here but the
        // branch *contents* differ per position, so no match.
        let mut swapped = PhysicalPlan::new();
        let l2 = swapped.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p2 = swapped.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l2]);
        let l1 = swapped.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let p1 = swapped.add(PhysicalOp::Project { cols: vec![0] }, vec![l1]);
        let j = swapped.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p2, p1]);
        swapped.add(PhysicalOp::Store { path: "/o".into() }, vec![j]);

        let a = q1_plan("/q1out");
        assert!(pairwise_plan_traversal(&a, &swapped).is_none());
        assert!(pairwise_plan_traversal(&swapped, &a).is_none());
    }

    #[test]
    fn splits_are_transparent() {
        // Input plan with an injected Split+side-Store between Project and
        // its consumer still matches a repo plan without the Split.
        let mut with_split = PhysicalPlan::new();
        let l = with_split.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let pr = with_split.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let sp = with_split.add(PhysicalOp::Split, vec![pr]);
        let _side = with_split.add(PhysicalOp::Store { path: "/side".into() }, vec![sp]);
        let f = with_split.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![sp]);
        let _main = with_split.add(PhysicalOp::Store { path: "/main".into() }, vec![f]);

        let mut repo = PhysicalPlan::new();
        let l2 = repo.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let p2 = repo.add(PhysicalOp::Project { cols: vec![0] }, vec![l2]);
        let f2 = repo.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![p2]);
        repo.add(PhysicalOp::Store { path: "/r".into() }, vec![f2]);

        let m = pairwise_plan_traversal(&repo, &with_split);
        assert!(m.is_some(), "split must be transparent to matching");
    }

    #[test]
    fn subsumption_order() {
        // Q1's full plan subsumes the Load+Project sub-plan (§3 rule 1
        // example: the Figure 2 plan subsumes the Figure 5 plans).
        let full = q1_plan("/o");
        let sub = load_project_store("/pv", vec![0, 2], "/s");
        assert!(subsumes(&full, &sub));
        assert!(!subsumes(&sub, &full));
        // Subsumption is reflexive.
        assert!(subsumes(&full, &q1_plan("/other")));
    }

    #[test]
    fn first_match_site_is_deterministic() {
        // Input contains the repo pattern twice (two identical branches);
        // matching must return the same site every time.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let a = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let b = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![a, b]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![j]);
        let repo = load_project_store("/d", vec![0], "/s");
        let m1 = pairwise_plan_traversal(&repo, &p).unwrap();
        let m2 = pairwise_plan_traversal(&repo, &p).unwrap();
        assert_eq!(m1.tip, m2.tip);
        assert_eq!(m1.tip, a, "topologically first site wins");
    }
}
