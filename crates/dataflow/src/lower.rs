//! Lowering: logical plan → physical plan.
//!
//! Logical and physical operators correspond 1:1 in this system (the
//! interesting physical decisions — map/reduce placement — happen in the
//! MR compiler), so lowering is a reachability-pruned structural copy.

use crate::logical::{LNodeId, LogicalOp, LogicalPlan};
use crate::physical::{NodeId, PhysicalOp, PhysicalPlan};
use restore_common::{Error, Result};

/// Lower a logical plan to a physical plan. Only nodes reachable from a
/// Store survive (dead aliases are dropped).
pub fn lower(logical: &LogicalPlan) -> Result<PhysicalPlan> {
    let stores = logical.stores();
    if stores.is_empty() {
        return Err(Error::Plan("logical plan has no Store".into()));
    }
    let mut phys = PhysicalPlan::with_capacity(logical.len());
    // Logical node → its lowered node, once lowered.
    let mut memo: Vec<Option<NodeId>> = vec![None; logical.len()];
    for s in stores {
        lower_node(logical, s, &mut phys, &mut memo)?;
    }
    Ok(phys)
}

fn lower_node(
    logical: &LogicalPlan,
    id: LNodeId,
    phys: &mut PhysicalPlan,
    memo: &mut [Option<NodeId>],
) -> Result<NodeId> {
    if let Some(done) = memo[id] {
        return Ok(done);
    }
    let node = logical.node(id);
    let mut inputs = Vec::with_capacity(node.inputs.len());
    for &i in &node.inputs {
        inputs.push(lower_node(logical, i, phys, memo)?);
    }
    let op = match &node.op {
        LogicalOp::Load { path } => PhysicalOp::Load { path: path.clone() },
        LogicalOp::Store { path } => PhysicalOp::Store { path: path.clone() },
        LogicalOp::Project { cols } => PhysicalOp::Project { cols: cols.clone() },
        LogicalOp::Foreach { exprs } => PhysicalOp::MapExpr { exprs: exprs.clone() },
        LogicalOp::Filter { pred } => PhysicalOp::Filter { pred: pred.clone() },
        LogicalOp::Join { keys } => PhysicalOp::Join { keys: keys.clone() },
        LogicalOp::Group { keys } => PhysicalOp::Group { keys: keys.clone() },
        LogicalOp::CoGroup { keys } => PhysicalOp::CoGroup { keys: keys.clone() },
        LogicalOp::Aggregate { items } => PhysicalOp::Aggregate { items: items.clone() },
        LogicalOp::Flatten { bag_col } => PhysicalOp::Flatten { bag_col: *bag_col },
        LogicalOp::Distinct => PhysicalOp::Distinct,
        LogicalOp::Union => PhysicalOp::Union,
        LogicalOp::OrderBy { keys } => PhysicalOp::OrderBy { keys: keys.clone() },
        LogicalOp::Limit { n } => PhysicalOp::Limit { n: *n },
    };
    let pid = phys.add(op, inputs);
    memo[id] = Some(pid);
    Ok(pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::parser::parse;

    fn lower_q(q: &str) -> PhysicalPlan {
        let l = optimize(LogicalPlan::from_ast(&parse(q).unwrap()).unwrap());
        lower(&l).unwrap()
    }

    #[test]
    fn q1_lowers_to_expected_shape() {
        let p = lower_q(
            "A = load 'pv' as (user, ts, rev:double, info, links);
             B = foreach A generate user, rev;
             alpha = load 'users' as (name, phone, addr, city);
             beta = foreach alpha generate name;
             C = join beta by name, B by user;
             store C into '/o';",
        );
        assert_eq!(p.loads().len(), 2);
        assert_eq!(p.stores().len(), 1);
        let join = p.ids().find(|&id| matches!(p.op(id), PhysicalOp::Join { .. })).unwrap();
        assert_eq!(p.inputs(join).len(), 2);
        // Both join inputs are projections over loads.
        for &i in p.inputs(join) {
            assert!(matches!(p.op(i), PhysicalOp::Project { .. }));
        }
    }

    #[test]
    fn dead_aliases_are_pruned() {
        let p = lower_q(
            "A = load '/a' as (x);
             Dead = load '/dead' as (y);
             B = filter A by x > 1;
             store B into '/o';",
        );
        assert_eq!(p.loads().len(), 1);
        assert!(matches!(p.op(p.loads()[0]), PhysicalOp::Load { path } if path == "/a"));
    }

    #[test]
    fn shared_alias_becomes_shared_node() {
        // The same Load feeds two branches — the DAG shares it.
        let p = lower_q(
            "A = load '/a' as (x, y);
             B = foreach A generate x;
             C = foreach A generate y;
             D = join B by x, C by y;
             store D into '/o';",
        );
        assert_eq!(p.loads().len(), 1);
        let load = p.loads()[0];
        assert_eq!(p.consumers(load).len(), 2);
    }

    #[test]
    fn group_aggregate_chain() {
        let p = lower_q(
            "A = load '/d' as (u, r:double);
             G = group A by u;
             S = foreach G generate group, SUM(A.r);
             store S into '/o';",
        );
        let order = p.topo_order();
        let kinds: Vec<&str> = order.iter().map(|&id| p.op(id).name()).collect();
        assert_eq!(kinds, vec!["Load", "Group", "Aggregate", "Store"]);
    }
}
