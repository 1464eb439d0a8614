//! Plan rewriting — the second half of §3.
//!
//! "Rewriting is done by identifying the part of the physical plan of the
//! input MapReduce job that matches the physical plan selected from the
//! repository. The matched part of the input physical plan is replaced
//! with a Load operator that reads the output of the repository plan from
//! the distributed file system."

use crate::matcher::PlanMatch;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};

/// Replace the matched region's output with a `Load` of the stored
/// result. Matched operators that feed no other (unmatched) consumer are
/// garbage-collected; operators shared with unmatched branches survive.
///
/// Returns the garbage collector's old-id → new-id mapping so callers
/// holding node ids into the plan (e.g. lineage-expansion tips) can
/// translate them.
pub fn rewrite(plan: &mut PhysicalPlan, m: &PlanMatch, stored_path: &str) -> Vec<Option<NodeId>> {
    let load = plan.add(PhysicalOp::Load { path: stored_path.to_string() }, vec![]);
    plan.redirect(m.tip, load);
    plan.gc()
}

/// Detect a rewritten-to-nothing job: a pure `Load → Store` copy, which
/// means the *whole* job was answered from the repository. The driver
/// skips such jobs and aliases their output path to the stored input
/// (§3: "other MapReduce jobs in the workflow that use the output of J as
/// input are rewritten so that they load their input data from the output
/// of the repository plan").
pub fn identity_copy(plan: &PhysicalPlan) -> Option<(&str, &str)> {
    if plan.len() != 2 {
        return None;
    }
    let (a, b) = (NodeId(0), NodeId(1));
    let (l, s) = if plan.inputs(b) == [a] { (a, b) } else { (b, a) };
    if plan.inputs(s) != [l] {
        return None;
    }
    match (plan.op(l), plan.op(s)) {
        (PhysicalOp::Load { path: src }, PhysicalOp::Store { path: dst }) => Some((src, dst)),
        _ => None,
    }
}

/// Substitute Load paths through an alias map (outputs of skipped jobs →
/// the stored paths that replaced them), following chains. Returns
/// whether any Load was rewritten.
pub fn apply_aliases(
    plan: &mut PhysicalPlan,
    aliases: &std::collections::HashMap<String, String>,
) -> bool {
    let mut rewrote = false;
    for id in plan.loads() {
        let PhysicalOp::Load { path } = plan.op(id) else { continue };
        let mut cur = path;
        let mut hops = 0;
        while let Some(next) = aliases.get(cur) {
            cur = next;
            hops += 1;
            if hops > aliases.len() {
                break; // defensive: alias cycle
            }
        }
        if hops > 0 {
            plan.node_mut(id).op = PhysicalOp::Load { path: cur.clone() };
            rewrote = true;
        }
    }
    rewrote
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::pairwise_plan_traversal;
    use restore_dataflow::expr::Expr;
    use std::collections::HashMap;

    fn q1_plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let p1 = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l1]);
        let l2 = p.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p2 = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l2]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p1, p2]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![j]);
        p
    }

    fn sub_plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l]);
        p.add(PhysicalOp::Store { path: "/stored/b".into() }, vec![pr]);
        p
    }

    #[test]
    fn rewrite_replaces_matched_branch_with_load() {
        // Figure 6: Q1 rewritten to reuse the stored Load+Project outputs.
        let mut input = q1_plan();
        let m = pairwise_plan_traversal(&sub_plan(), &input).unwrap();
        rewrite(&mut input, &m, "/stored/b");
        // The /pv branch is now a Load of the stored output.
        let loads = input.loads();
        assert_eq!(loads.len(), 2);
        let paths: Vec<&str> = loads.iter().map(|&l| input.path(l)).collect();
        assert!(paths.contains(&"/stored/b"));
        assert!(paths.contains(&"/users"));
        assert!(!paths.contains(&"/pv"));
        // One projection (the /users one) survives.
        let projects =
            input.ids().filter(|&i| matches!(input.op(i), PhysicalOp::Project { .. })).count();
        assert_eq!(projects, 1);
        // The join is intact.
        assert!(input.ids().any(|i| matches!(input.op(i), PhysicalOp::Join { .. })));
    }

    #[test]
    fn whole_job_rewrite_leaves_identity_copy() {
        // Figure 4's precursor: Q2's first job fully matches stored Q1.
        let mut input = q1_plan();
        let repo = q1_plan();
        let m = pairwise_plan_traversal(&repo, &input).unwrap();
        rewrite(&mut input, &m, "/stored/q1");
        let id = identity_copy(&input).unwrap();
        assert_eq!(id, ("/stored/q1", "/out"));
    }

    #[test]
    fn shared_nodes_survive_partial_rewrite() {
        // Load feeds both a matched Project and an unmatched Filter.
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(1, 5i64) }, vec![l]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![pr, f]);
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![j]);

        let mut repo = PhysicalPlan::new();
        let rl = repo.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let rp = repo.add(PhysicalOp::Project { cols: vec![0] }, vec![rl]);
        repo.add(PhysicalOp::Store { path: "/s".into() }, vec![rp]);

        let m = pairwise_plan_traversal(&repo, &p).unwrap();
        rewrite(&mut p, &m, "/s");
        // Load(/d) must survive for the Filter branch.
        let paths: Vec<&str> = p.loads().iter().map(|&l| p.path(l)).collect();
        assert!(paths.contains(&"/d"));
        assert!(paths.contains(&"/s"));
        assert!(p.ids().any(|i| matches!(p.op(i), PhysicalOp::Filter { .. })));
        // The matched Project is gone.
        assert!(!p.ids().any(|i| matches!(p.op(i), PhysicalOp::Project { .. })));
    }

    #[test]
    fn identity_copy_rejects_real_jobs() {
        assert!(identity_copy(&q1_plan()).is_none());
        assert!(identity_copy(&sub_plan()).is_none());
    }

    #[test]
    fn aliases_follow_chains() {
        let mut plan = PhysicalPlan::new();
        let l = plan.add(PhysicalOp::Load { path: "/tmp-1".into() }, vec![]);
        plan.add(PhysicalOp::Store { path: "/o".into() }, vec![l]);
        let mut aliases = HashMap::new();
        aliases.insert("/tmp-1".to_string(), "/tmp-0".to_string());
        aliases.insert("/tmp-0".to_string(), "/repo/7".to_string());
        assert!(apply_aliases(&mut plan, &aliases));
        assert!(matches!(
            plan.op(plan.loads()[0]),
            PhysicalOp::Load { path } if path == "/repo/7"
        ));
        assert!(!apply_aliases(&mut plan, &aliases), "nothing left to rewrite");
    }
}
