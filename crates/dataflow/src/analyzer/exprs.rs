//! Pass 2 — expression normalization.
//!
//! Folds the freedoms scalar expressions leave a query author:
//!
//! * `AND`/`OR` chains flatten, and their legs sort by a deterministic
//!   structural hash — but **only when every leg is total**. Reordering
//!   legs never changes a boolean result (evaluated operands yield
//!   plain truth values), but it can change *which* leg's error
//!   surfaces or whether a short-circuit skips a failing leg, so chains
//!   with fallible legs keep their order (the rebuild is then
//!   byte-identical to plain right-association of the original order).
//! * Comparisons put the literal on the right by mirroring the
//!   operator (`5 < n` ⇒ `n > 5`). Both operands of a comparison are
//!   always evaluated, so the flip is unconditionally sound.
//! * `+` and `*` order their operands by the same structural hash when
//!   both are total (IEEE addition and multiplication are commutative;
//!   the int/double widening test is symmetric).
//!
//! Totality is judged conservatively: arithmetic and negation can
//! error on non-numeric values, so any expression containing them is
//! treated as fallible and left in author order.

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Normalizes every Filter and MapExpr expression in place. Returns
/// whether any of them changed; the report is exact.
pub(super) fn run(plan: &mut PhysicalPlan) -> bool {
    let mut changed = false;
    for id in (0..plan.len() as u32).map(NodeId) {
        match &mut plan.node_mut(id).op {
            PhysicalOp::Filter { pred } => changed |= normalize(pred),
            PhysicalOp::MapExpr { exprs } => {
                for e in exprs {
                    changed |= normalize(e);
                }
            }
            _ => {}
        }
    }
    changed
}

/// Can evaluation never return an error, whatever the input tuple?
/// (`eval` only fails inside arithmetic and negation; every other
/// node is total whenever its children are.)
fn is_total(e: &Expr) -> bool {
    match e {
        Expr::Col(_) | Expr::Lit(_) => true,
        Expr::Arith(..) | Expr::Neg(_) => false,
        Expr::Not(x) | Expr::IsNull(x, _) => is_total(x),
        Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(a, _, b) => is_total(a) && is_total(b),
        Expr::Func(_, args) => args.iter().all(is_total),
    }
}

/// Deterministic structural sort key (`DefaultHasher` is fixed-key, so
/// the order is stable across processes and sessions).
fn key(e: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
}

/// Rewrite `e` to its normal form in place. Returns whether it changed:
/// every rewrite below fires only when its result differs (a swap only
/// when the operands differ, a chain rebuild only when the shape or
/// the leg order moves), so the report is exact.
fn normalize(e: &mut Expr) -> bool {
    match e {
        Expr::And(..) => normalize_chain(e, true),
        Expr::Or(..) => normalize_chain(e, false),
        Expr::Cmp(a, op, b) => {
            let changed = normalize(a) | normalize(b);
            if matches!(**a, Expr::Lit(_)) && !matches!(**b, Expr::Lit(_)) {
                std::mem::swap(a, b);
                *op = mirror(*op);
                return true;
            }
            changed
        }
        Expr::Arith(a, op, b) => {
            let changed = normalize(a) | normalize(b);
            if matches!(op, ArithOp::Add | ArithOp::Mul)
                && is_total(a)
                && is_total(b)
                && key(a) > key(b)
            {
                std::mem::swap(a, b);
                return true;
            }
            changed
        }
        Expr::Not(x) | Expr::Neg(x) | Expr::IsNull(x, _) => normalize(x),
        Expr::Func(_, args) => args.iter_mut().fold(false, |changed, a| normalize(a) | changed),
        Expr::Col(_) | Expr::Lit(_) => false,
    }
}

/// Flatten a connective chain, normalize the legs, sort them when all
/// are total, and rebuild right-associated. An unsorted rebuild
/// preserves exact left-to-right short-circuit order, so it is always
/// sound; only the sort needs the totality gate. A chain that is
/// already right-associated and in order is left where it is.
fn normalize_chain(e: &mut Expr, conj: bool) -> bool {
    let mut legs = Vec::new();
    let right_associated = flatten(e, conj, &mut legs);
    let mut changed = false;
    for leg in &mut legs {
        changed |= normalize(leg);
    }
    let sort = legs.iter().all(|l| is_total(l));
    let in_order = !sort || legs.is_sorted_by_key(|l| key(l));
    if right_associated && in_order {
        return changed;
    }
    let mut legs: Vec<Expr> =
        legs.into_iter().map(|l| std::mem::replace(l, Expr::Col(0))).collect();
    if sort {
        legs.sort_by_key(key); // stable: equal keys keep author order
    }
    *e = legs
        .into_iter()
        .rev()
        .reduce(|acc, l| {
            if conj {
                Expr::And(Box::new(l), Box::new(acc))
            } else {
                Expr::Or(Box::new(l), Box::new(acc))
            }
        })
        .expect("a connective has at least two legs");
    true
}

/// Collect the legs of the chain rooted at `e`, left to right. Returns
/// whether every link's left operand is a leg (the chain is already
/// right-associated).
fn flatten<'a>(e: &'a mut Expr, conj: bool, out: &mut Vec<&'a mut Expr>) -> bool {
    match (e, conj) {
        (Expr::And(a, b), true) | (Expr::Or(a, b), false) => {
            let left_is_leg =
                !matches!((&**a, conj), (Expr::And(..), true) | (Expr::Or(..), false));
            let left = flatten(a, conj, out);
            let right = flatten(b, conj, out);
            left_is_leg && left && right
        }
        (e, _) => {
            out.push(e);
            true
        }
    }
}

/// The comparison that holds after swapping the operands.
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Neq => CmpOp::Neq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarFunc;

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `e`'s normal form, checking on the way that `normalize` reported
    /// a change exactly when there was one.
    fn normalized(e: &Expr) -> Expr {
        let mut out = e.clone();
        let changed = normalize(&mut out);
        assert_eq!(changed, out != *e, "change report for {e:?}");
        out
    }

    #[test]
    fn and_legs_sort_regardless_of_nesting() {
        let (x, y, z) = (Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64), Expr::col_eq(2, 3i64));
        let left = and(and(x.clone(), y.clone()), z.clone());
        let right = and(z, and(y, x));
        assert_eq!(normalized(&left), normalized(&right));
    }

    #[test]
    fn fallible_legs_keep_author_order() {
        // `a / b == 1` can error on strings: its chain must not reorder.
        let fallible = Expr::Cmp(
            Box::new(Expr::Arith(Box::new(Expr::col(0)), ArithOp::Div, Box::new(Expr::col(1)))),
            CmpOp::Eq,
            Box::new(Expr::Lit(1i64.into())),
        );
        let total = Expr::col_eq(2, 3i64);
        let e = and(fallible.clone(), total.clone());
        assert_eq!(normalized(&e), and(fallible.clone(), total.clone()));
        let e = and(total.clone(), fallible.clone());
        assert_eq!(normalized(&e), and(total, fallible));
    }

    #[test]
    fn literal_moves_right_with_mirrored_op() {
        let e = Expr::Cmp(Box::new(Expr::Lit(5i64.into())), CmpOp::Le, Box::new(Expr::col(0)));
        let want = Expr::Cmp(Box::new(Expr::col(0)), CmpOp::Ge, Box::new(Expr::Lit(5i64.into())));
        assert_eq!(normalized(&e), want);
        // Two literals stay put — there is no preferred side.
        let ll = Expr::Cmp(
            Box::new(Expr::Lit(1i64.into())),
            CmpOp::Lt,
            Box::new(Expr::Lit(2i64.into())),
        );
        assert_eq!(normalized(&ll), ll);
    }

    #[test]
    fn add_orders_but_sub_does_not() {
        let ab = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Add, Box::new(Expr::col(1)));
        let ba = Expr::Arith(Box::new(Expr::col(1)), ArithOp::Add, Box::new(Expr::col(0)));
        assert_eq!(normalized(&ab), normalized(&ba));
        let sub = Expr::Arith(Box::new(Expr::col(1)), ArithOp::Sub, Box::new(Expr::col(0)));
        assert_eq!(normalized(&sub), sub);
    }

    #[test]
    fn normalize_is_idempotent() {
        let exprs = vec![
            and(
                Expr::Or(Box::new(Expr::col_eq(3, 1i64)), Box::new(Expr::col_eq(0, 9i64))),
                and(Expr::col_eq(2, 2i64), Expr::col_eq(1, 1i64)),
            ),
            Expr::Cmp(Box::new(Expr::Lit(5i64.into())), CmpOp::Lt, Box::new(Expr::col(0))),
            Expr::Arith(
                Box::new(Expr::Arith(Box::new(Expr::col(2)), ArithOp::Mul, Box::new(Expr::col(1)))),
                ArithOp::Add,
                Box::new(Expr::col(0)),
            ),
        ];
        for e in exprs {
            let once = normalized(&e);
            assert_eq!(normalized(&once), once);
        }
    }

    #[test]
    fn the_change_report_is_exact() {
        let (x, y, z) = (Expr::col_eq(0, 1i64), Expr::col_eq(1, 2i64), Expr::col_eq(2, 3i64));
        let mut legs = [x, y, z];
        legs.sort_by_key(key);
        let [x, y, z] = legs;
        let or = |a: Expr, b: Expr| Expr::Or(Box::new(a), Box::new(b));
        let cases = vec![
            // Canonical already: right-associated, legs in key order.
            and(x.clone(), and(y.clone(), z.clone())),
            // Same legs and order, left-associated: only the shape moves.
            and(and(x.clone(), y.clone()), z.clone()),
            // Right-associated, legs out of order.
            and(z.clone(), and(y.clone(), x.clone())),
            // A leg of another connective is normalized, not flattened.
            and(x.clone(), or(z.clone(), y.clone())),
            and(x.clone(), or(y.clone(), z.clone())),
            Expr::Not(Box::new(Expr::Cmp(
                Box::new(Expr::Lit(5i64.into())),
                CmpOp::Lt,
                Box::new(Expr::col(0)),
            ))),
            Expr::IsNull(Box::new(Expr::col(1)), true),
            Expr::Func(
                ScalarFunc::Abs,
                vec![Expr::Arith(Box::new(Expr::col(1)), ArithOp::Mul, Box::new(Expr::col(0)))],
            ),
            Expr::Neg(Box::new(Expr::col(0))),
        ];
        for e in cases {
            let once = normalized(&e);
            assert_eq!(normalized(&once), once);
        }
        assert_eq!(normalized(&and(and(x.clone(), y.clone()), z.clone())), and(x, and(y, z)));
    }
}
