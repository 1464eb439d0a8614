//! Runtime expressions: name-resolved, evaluable over tuples.
//!
//! Expressions appear inside physical operators (Filter predicates,
//! ForEach projections, aggregate specifications), so they implement
//! `Eq + Hash` — ReStore's operator-equivalence test ("they perform
//! functions that produce the same output data") compares them
//! structurally.

use restore_common::{Bag, Error, Result, Tuple, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Scalar (per-row) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarFunc {
    Round,
    Floor,
    Ceil,
    Abs,
    Upper,
    Lower,
    Strlen,
    Concat,
    /// SUBSTRING(str, start, len) — clamped, zero-based.
    Substring,
    /// TRIM(str) — strip ASCII whitespace.
    Trim,
    /// STARTSWITH(str, prefix) — boolean (0/1).
    StartsWith,
}

impl ScalarFunc {
    pub fn parse(name: &str) -> Option<ScalarFunc> {
        match name.to_ascii_uppercase().as_str() {
            "ROUND" => Some(ScalarFunc::Round),
            "FLOOR" => Some(ScalarFunc::Floor),
            "CEIL" => Some(ScalarFunc::Ceil),
            "ABS" => Some(ScalarFunc::Abs),
            "UPPER" => Some(ScalarFunc::Upper),
            "LOWER" => Some(ScalarFunc::Lower),
            "STRLEN" | "SIZE" => Some(ScalarFunc::Strlen),
            "CONCAT" => Some(ScalarFunc::Concat),
            "SUBSTRING" => Some(ScalarFunc::Substring),
            "TRIM" => Some(ScalarFunc::Trim),
            "STARTSWITH" => Some(ScalarFunc::StartsWith),
            _ => None,
        }
    }
}

/// Aggregate functions over a bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Count of distinct values of a bag field — stands in for PigMix's
    /// nested `DISTINCT` + `COUNT` foreach bodies (L4/L5).
    CountDistinct,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "COUNT_DISTINCT" => Some(AggFunc::CountDistinct),
            _ => None,
        }
    }

    /// The member field [`AggFunc::apply`] reads for `col`: none for
    /// COUNT(*), and field 0 for any other aggregate given none.
    pub fn field_read(&self, col: Option<usize>) -> Option<usize> {
        match self {
            AggFunc::Count => col,
            _ => Some(col.unwrap_or(0)),
        }
    }

    /// Apply the aggregate to one column of a bag of tuples.
    /// `col = None` means COUNT(*) semantics (count tuples).
    pub fn apply(&self, bag: &Bag, col: Option<usize>) -> Value {
        let Some(c) = self.field_read(col) else {
            return Value::Int(bag.len() as i64);
        };
        match self {
            AggFunc::Count => Value::Int(bag.column(c).filter(|v| !v.is_null()).count() as i64),
            AggFunc::CountDistinct => {
                let mut seen: Vec<&Value> = bag.column(c).filter(|v| !v.is_null()).collect();
                seen.sort();
                seen.dedup();
                Value::Int(seen.len() as i64)
            }
            AggFunc::Sum => {
                let mut acc = 0.0f64;
                let mut any = false;
                let mut all_int = true;
                for v in bag.column(c) {
                    if let Some(x) = v.as_f64() {
                        if !matches!(v, Value::Int(_)) {
                            all_int = false;
                        }
                        acc += x;
                        any = true;
                    }
                }
                if !any {
                    Value::Null
                } else if all_int {
                    Value::Int(acc as i64)
                } else {
                    Value::Double(acc)
                }
            }
            AggFunc::Avg => {
                let vals: Vec<f64> = bag.column(c).filter_map(Value::as_f64).collect();
                if vals.is_empty() {
                    Value::Null
                } else {
                    Value::Double(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            }
            AggFunc::Min => {
                bag.column(c).filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null)
            }
            AggFunc::Max => {
                bag.column(c).filter(|v| !v.is_null()).max().cloned().unwrap_or(Value::Null)
            }
        }
    }
}

/// A name-resolved scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    /// `IS NULL` (true) / `IS NOT NULL` (false).
    IsNull(Box<Expr>, bool),
    Func(ScalarFunc, Vec<Expr>),
}

impl Expr {
    /// Shorthand: column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Shorthand: equality between a column and a literal.
    pub fn col_eq(i: usize, v: impl Into<Value>) -> Expr {
        Expr::Cmp(Box::new(Expr::Col(i)), CmpOp::Eq, Box::new(Expr::Lit(v.into())))
    }

    /// Evaluate over a tuple.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
        match self {
            Expr::Col(i) => Ok(t.get(*i).clone()),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Neg(e) => match e.eval(t)? {
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Double(d) => Ok(Value::Double(-d)),
                Value::Null => Ok(Value::Null),
                other => Err(Error::Eval(format!("cannot negate {other:?}"))),
            },
            Expr::Not(e) => Ok(Value::Int(!e.eval(t)?.is_truthy() as i64)),
            Expr::And(a, b) => {
                Ok(Value::Int((a.eval(t)?.is_truthy() && b.eval(t)?.is_truthy()) as i64))
            }
            Expr::Or(a, b) => {
                Ok(Value::Int((a.eval(t)?.is_truthy() || b.eval(t)?.is_truthy()) as i64))
            }
            Expr::IsNull(e, want_null) => {
                Ok(Value::Int((e.eval(t)?.is_null() == *want_null) as i64))
            }
            Expr::Cmp(a, op, b) => {
                let (a, b) = (a.eval(t)?, b.eval(t)?);
                // SQL-ish null semantics: comparisons against null are false.
                if a.is_null() || b.is_null() {
                    return Ok(Value::Int(0));
                }
                let r = match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Neq => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                };
                Ok(Value::Int(r as i64))
            }
            Expr::Arith(a, op, b) => {
                let (av, bv) = (a.eval(t)?, b.eval(t)?);
                if av.is_null() || bv.is_null() {
                    return Ok(Value::Null);
                }
                let both_int = matches!(av, Value::Int(_)) && matches!(bv, Value::Int(_));
                let (x, y) = (
                    av.as_f64()
                        .ok_or_else(|| Error::Eval(format!("non-numeric operand {av:?}")))?,
                    bv.as_f64()
                        .ok_or_else(|| Error::Eval(format!("non-numeric operand {bv:?}")))?,
                );
                let r = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Ok(Value::Null);
                        }
                        x / y
                    }
                    ArithOp::Mod => {
                        if y == 0.0 {
                            return Ok(Value::Null);
                        }
                        x % y
                    }
                };
                if both_int
                    && r.fract() == 0.0
                    && matches!(op, ArithOp::Add | ArithOp::Sub | ArithOp::Mul | ArithOp::Mod)
                {
                    Ok(Value::Int(r as i64))
                } else if both_int && matches!(op, ArithOp::Div) {
                    // Pig integer division truncates.
                    Ok(Value::Int((x / y) as i64))
                } else {
                    Ok(Value::Double(r))
                }
            }
            Expr::Func(f, args) => {
                let vals: Result<Vec<Value>> = args.iter().map(|a| a.eval(t)).collect();
                eval_scalar(*f, &vals?)
            }
        }
    }

    /// The set of input columns the expression reads.
    pub fn referenced_cols(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    fn collect_cols(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull(e, _) => e.collect_cols(out),
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::Func(_, args) => {
                for a in args {
                    a.collect_cols(out);
                }
            }
        }
    }

    /// Rewrite column references through a mapping (used by optimizer
    /// rules that move expressions across projections). Returns `None`
    /// when a referenced column has no image under the mapping.
    pub fn remap_cols(&self, map: &dyn Fn(usize) -> Option<usize>) -> Option<Expr> {
        Some(match self {
            Expr::Col(i) => Expr::Col(map(*i)?),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Neg(e) => Expr::Neg(Box::new(e.remap_cols(map)?)),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_cols(map)?)),
            Expr::IsNull(e, w) => Expr::IsNull(Box::new(e.remap_cols(map)?), *w),
            Expr::Arith(a, op, b) => {
                Expr::Arith(Box::new(a.remap_cols(map)?), *op, Box::new(b.remap_cols(map)?))
            }
            Expr::Cmp(a, op, b) => {
                Expr::Cmp(Box::new(a.remap_cols(map)?), *op, Box::new(b.remap_cols(map)?))
            }
            Expr::And(a, b) => {
                Expr::And(Box::new(a.remap_cols(map)?), Box::new(b.remap_cols(map)?))
            }
            Expr::Or(a, b) => Expr::Or(Box::new(a.remap_cols(map)?), Box::new(b.remap_cols(map)?)),
            Expr::Func(f, args) => {
                Expr::Func(*f, args.iter().map(|a| a.remap_cols(map)).collect::<Option<Vec<_>>>()?)
            }
        })
    }

    /// Per-record CPU weight of this expression for the cost model.
    pub fn cost_weight(&self) -> f64 {
        match self {
            Expr::Col(_) | Expr::Lit(_) => 0.05,
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull(e, _) => 0.05 + e.cost_weight(),
            Expr::Arith(a, _, b) | Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                0.1 + a.cost_weight() + b.cost_weight()
            }
            Expr::Func(_, args) => 0.2 + args.iter().map(|a| a.cost_weight()).sum::<f64>(),
        }
    }
}

fn eval_scalar(f: ScalarFunc, args: &[Value]) -> Result<Value> {
    let arg0 = args.first().cloned().unwrap_or(Value::Null);
    match f {
        ScalarFunc::Round => match arg0.as_f64() {
            Some(d) => Ok(Value::Int(d.round() as i64)),
            None => Ok(Value::Null),
        },
        ScalarFunc::Floor => match arg0.as_f64() {
            Some(d) => Ok(Value::Int(d.floor() as i64)),
            None => Ok(Value::Null),
        },
        ScalarFunc::Ceil => match arg0.as_f64() {
            Some(d) => Ok(Value::Int(d.ceil() as i64)),
            None => Ok(Value::Null),
        },
        ScalarFunc::Abs => match arg0 {
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Double(d) => Ok(Value::Double(d.abs())),
            _ => Ok(Value::Null),
        },
        ScalarFunc::Upper => match arg0.as_str() {
            Some(s) => Ok(Value::str(s.to_uppercase())),
            None => Ok(Value::Null),
        },
        ScalarFunc::Lower => match arg0.as_str() {
            Some(s) => Ok(Value::str(s.to_lowercase())),
            None => Ok(Value::Null),
        },
        ScalarFunc::Strlen => match &arg0 {
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            Value::Bag(b) => Ok(Value::Int(b.len() as i64)),
            _ => Ok(Value::Null),
        },
        ScalarFunc::Concat => {
            let mut out = String::new();
            for a in args {
                if a.is_null() {
                    return Ok(Value::Null);
                }
                out.push_str(&a.to_string());
            }
            Ok(Value::str(out))
        }
        ScalarFunc::Substring => {
            let (Some(s), start, len) = (
                arg0.as_str(),
                args.get(1).and_then(|v| v.as_i64()).unwrap_or(0),
                args.get(2).and_then(|v| v.as_i64()),
            ) else {
                return Ok(Value::Null);
            };
            let chars: Vec<char> = s.chars().collect();
            let start = start.clamp(0, chars.len() as i64) as usize;
            let end = match len {
                Some(l) if l >= 0 => (start + l as usize).min(chars.len()),
                _ => chars.len(),
            };
            Ok(Value::str(chars[start..end].iter().collect::<String>()))
        }
        ScalarFunc::Trim => match arg0.as_str() {
            Some(s) => Ok(Value::str(s.trim())),
            None => Ok(Value::Null),
        },
        ScalarFunc::StartsWith => match (arg0.as_str(), args.get(1).and_then(|v| v.as_str())) {
            (Some(s), Some(p)) => Ok(Value::Int(s.starts_with(p) as i64)),
            _ => Ok(Value::Null),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_common::tuple;

    #[test]
    fn column_and_literal() {
        let t = tuple![10, "x"];
        assert_eq!(Expr::col(0).eval(&t).unwrap(), Value::Int(10));
        assert_eq!(Expr::Lit(Value::str("y")).eval(&t).unwrap(), Value::str("y"));
    }

    #[test]
    fn arithmetic_int_and_double() {
        let t = tuple![10, 4, 2.5];
        let add = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Add, Box::new(Expr::col(1)));
        assert_eq!(add.eval(&t).unwrap(), Value::Int(14));
        let div = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Div, Box::new(Expr::col(1)));
        assert_eq!(div.eval(&t).unwrap(), Value::Int(2)); // truncating
        let mul = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Mul, Box::new(Expr::col(2)));
        assert_eq!(mul.eval(&t).unwrap(), Value::Double(25.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let t = tuple![1, 0];
        let div = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Div, Box::new(Expr::col(1)));
        assert!(div.eval(&t).unwrap().is_null());
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let t = Tuple::from_values(vec![Value::Int(5), Value::Null]);
        assert_eq!(Expr::col_eq(0, 5i64).eval(&t).unwrap(), Value::Int(1));
        assert_eq!(Expr::col_eq(0, 6i64).eval(&t).unwrap(), Value::Int(0));
        // NULL == anything is false, not null-propagating (Filter drops it).
        assert_eq!(Expr::col_eq(1, 5i64).eval(&t).unwrap(), Value::Int(0));
        let isnull = Expr::IsNull(Box::new(Expr::col(1)), true);
        assert_eq!(isnull.eval(&t).unwrap(), Value::Int(1));
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple![1, 0];
        let and = Expr::And(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        let or = Expr::Or(Box::new(Expr::col(0)), Box::new(Expr::col(1)));
        assert_eq!(and.eval(&t).unwrap(), Value::Int(0));
        assert_eq!(or.eval(&t).unwrap(), Value::Int(1));
        let not = Expr::Not(Box::new(Expr::col(1)));
        assert_eq!(not.eval(&t).unwrap(), Value::Int(1));
    }

    #[test]
    fn scalar_functions() {
        let t = tuple![2.6, "aBc"];
        let round = Expr::Func(ScalarFunc::Round, vec![Expr::col(0)]);
        assert_eq!(round.eval(&t).unwrap(), Value::Int(3));
        let upper = Expr::Func(ScalarFunc::Upper, vec![Expr::col(1)]);
        assert_eq!(upper.eval(&t).unwrap(), Value::str("ABC"));
        let concat = Expr::Func(ScalarFunc::Concat, vec![Expr::col(1), Expr::Lit(Value::str("!"))]);
        assert_eq!(concat.eval(&t).unwrap(), Value::str("aBc!"));
    }

    #[test]
    fn string_functions() {
        let t = tuple!["  hello world  ", "hello"];
        let trim = Expr::Func(ScalarFunc::Trim, vec![Expr::col(0)]);
        assert_eq!(trim.eval(&t).unwrap(), Value::str("hello world"));
        let sub = Expr::Func(
            ScalarFunc::Substring,
            vec![Expr::col(1), Expr::Lit(1i64.into()), Expr::Lit(3i64.into())],
        );
        assert_eq!(sub.eval(&t).unwrap(), Value::str("ell"));
        // Clamped out-of-range substring.
        let sub2 = Expr::Func(
            ScalarFunc::Substring,
            vec![Expr::col(1), Expr::Lit(3i64.into()), Expr::Lit(99i64.into())],
        );
        assert_eq!(sub2.eval(&t).unwrap(), Value::str("lo"));
        let sw =
            Expr::Func(ScalarFunc::StartsWith, vec![Expr::col(1), Expr::Lit(Value::str("he"))]);
        assert_eq!(sw.eval(&t).unwrap(), Value::Int(1));
        let sw2 =
            Expr::Func(ScalarFunc::StartsWith, vec![Expr::col(1), Expr::Lit(Value::str("xx"))]);
        assert_eq!(sw2.eval(&t).unwrap(), Value::Int(0));
        // Null propagation.
        let nt = Tuple::from_values(vec![Value::Null]);
        assert!(trim.eval(&nt).unwrap().is_null());
    }

    #[test]
    fn aggregates() {
        let bag = Bag::from(vec![tuple!["a", 1], tuple!["b", 2], tuple!["a", 3]]);
        assert_eq!(AggFunc::Count.apply(&bag, None), Value::Int(3));
        assert_eq!(AggFunc::Sum.apply(&bag, Some(1)), Value::Int(6));
        assert_eq!(AggFunc::Avg.apply(&bag, Some(1)), Value::Double(2.0));
        assert_eq!(AggFunc::Min.apply(&bag, Some(1)), Value::Int(1));
        assert_eq!(AggFunc::Max.apply(&bag, Some(1)), Value::Int(3));
        assert_eq!(AggFunc::CountDistinct.apply(&bag, Some(0)), Value::Int(2));
    }

    #[test]
    fn aggregates_ignore_nulls() {
        // A ragged bag: its first member has one field, its second two.
        let bag = Bag::from(vec![
            Tuple::from_values(vec![Value::Null]),
            Tuple::from_values(vec![Value::Int(4), Value::Null]),
        ]);
        assert_eq!(AggFunc::Count.apply(&bag, Some(0)), Value::Int(1));
        assert_eq!(AggFunc::Sum.apply(&bag, Some(0)), Value::Int(4));
        assert_eq!(AggFunc::Min.apply(&bag, Some(0)), Value::Int(4));
        // Empty bag / all-null column.
        assert!(AggFunc::Sum.apply(&Bag::default(), Some(0)).is_null());
    }

    #[test]
    fn sum_widens_to_double_when_mixed() {
        let bag = Bag::from(vec![tuple![1], tuple![2.5]]);
        assert_eq!(AggFunc::Sum.apply(&bag, Some(0)), Value::Double(3.5));
    }

    #[test]
    fn referenced_cols_and_remap() {
        let e = Expr::And(
            Box::new(Expr::col_eq(3, 1i64)),
            Box::new(Expr::Cmp(Box::new(Expr::col(1)), CmpOp::Lt, Box::new(Expr::col(3)))),
        );
        assert_eq!(e.referenced_cols(), vec![1, 3]);
        let remapped = e
            .remap_cols(&|c| {
                if c == 3 {
                    Some(0)
                } else if c == 1 {
                    Some(9)
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(remapped.referenced_cols(), vec![0, 9]);
        // Unmappable column kills the rewrite.
        assert!(e.remap_cols(&|c| if c == 3 { Some(0) } else { None }).is_none());
    }

    #[test]
    fn exprs_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let a = Expr::col_eq(2, "x");
        let b = Expr::col_eq(2, "x");
        let c = Expr::col_eq(2, "y");
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn cost_weight_grows_with_complexity() {
        let simple = Expr::col(0);
        let complex = Expr::And(Box::new(Expr::col_eq(0, 1i64)), Box::new(Expr::col_eq(1, 2i64)));
        assert!(complex.cost_weight() > simple.cost_weight());
    }

    use restore_common::Tuple;
}
