//! Compact text serialization of physical plans.
//!
//! The repository survives across sessions (§2.2 stores plans alongside
//! outputs), so plans need a durable representation. Rather than pulling
//! in a serde backend, plans round-trip through a small line format: one
//! node per line, expressions as s-expressions, strings Rust-quoted.
//!
//! ```text
//! 0 load "/pv"
//! 1 project 0,2 <- 0
//! 2 filter (== (c 0) (l s "x")) <- 1
//! 3 store "/out" <- 2
//! ```

use restore_common::{Error, Result, Value};
use restore_dataflow::expr::{AggFunc, ArithOp, CmpOp, Expr, ScalarFunc};
use restore_dataflow::physical::{AggItem, NodeId, PhysicalOp, PhysicalPlan};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Serialize a plan. Node ids are renumbered topologically.
pub fn encode_plan(plan: &PhysicalPlan) -> String {
    let order = plan.topo_order();
    let mut pos = vec![0usize; plan.len()];
    for (i, id) in order.iter().enumerate() {
        pos[id.index()] = i;
    }
    let mut out = String::new();
    for (i, &id) in order.iter().enumerate() {
        let node = plan.node(id);
        let _ = write!(out, "{i} {}", encode_op(&node.op));
        if !node.inputs.is_empty() {
            let ins: Vec<String> = node.inputs.iter().map(|n| pos[n.index()].to_string()).collect();
            let _ = write!(out, " <- {}", ins.join(","));
        }
        out.push('\n');
    }
    out
}

fn encode_op(op: &PhysicalOp) -> String {
    match op {
        PhysicalOp::Load { path } => format!("load {path:?}"),
        PhysicalOp::Store { path } => format!("store {path:?}"),
        PhysicalOp::Project { cols } => format!("project {}", join_usizes(cols)),
        PhysicalOp::MapExpr { exprs } => {
            let parts: Vec<String> = exprs.iter().map(encode_expr).collect();
            format!("mapexpr {}", parts.join(" "))
        }
        PhysicalOp::Filter { pred } => format!("filter {}", encode_expr(pred)),
        PhysicalOp::Join { keys } => format!("join {}", encode_key_lists(keys)),
        PhysicalOp::CoGroup { keys } => format!("cogroup {}", encode_key_lists(keys)),
        PhysicalOp::Group { keys } => format!("group {}", join_usizes(keys)),
        PhysicalOp::Aggregate { items } => {
            let parts: Vec<String> = items.iter().map(encode_agg_item).collect();
            format!("aggregate {}", parts.join(" "))
        }
        PhysicalOp::Flatten { bag_col } => format!("flatten {bag_col}"),
        PhysicalOp::Distinct => "distinct".to_string(),
        PhysicalOp::Union => "union".to_string(),
        PhysicalOp::OrderBy { keys } => {
            let parts: Vec<String> = keys
                .iter()
                .map(|(c, asc)| format!("{c}{}", if *asc { "+" } else { "-" }))
                .collect();
            format!("orderby {}", parts.join(","))
        }
        PhysicalOp::Limit { n } => format!("limit {n}"),
        PhysicalOp::Split => "split".to_string(),
    }
}

fn join_usizes(v: &[usize]) -> String {
    if v.is_empty() {
        return "-".to_string();
    }
    v.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
}

fn encode_key_lists(keys: &[Vec<usize>]) -> String {
    keys.iter().map(|k| join_usizes(k)).collect::<Vec<_>>().join(";")
}

fn encode_agg_item(item: &AggItem) -> String {
    match item {
        AggItem::Key(c) => format!("(k {c})"),
        AggItem::Agg { func, bag_col, field } => {
            let f = match field {
                Some(f) => f.to_string(),
                None => "_".to_string(),
            };
            format!("(a {} {bag_col} {f})", agg_name(*func))
        }
    }
}

fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::CountDistinct => "countd",
    }
}

fn encode_expr(e: &Expr) -> String {
    match e {
        Expr::Col(c) => format!("(c {c})"),
        Expr::Lit(Value::Null) => "(l n)".to_string(),
        Expr::Lit(Value::Int(i)) => format!("(l i {i})"),
        Expr::Lit(Value::Double(d)) => format!("(l d {d})"),
        Expr::Lit(Value::Str(s)) => format!("(l s {s:?})"),
        Expr::Lit(Value::Bag(_)) => "(l n)".to_string(), // bags never appear in literals
        Expr::Neg(x) => format!("(neg {})", encode_expr(x)),
        Expr::Not(x) => format!("(not {})", encode_expr(x)),
        Expr::IsNull(x, true) => format!("(isnull {})", encode_expr(x)),
        Expr::IsNull(x, false) => format!("(notnull {})", encode_expr(x)),
        Expr::And(a, b) => format!("(and {} {})", encode_expr(a), encode_expr(b)),
        Expr::Or(a, b) => format!("(or {} {})", encode_expr(a), encode_expr(b)),
        Expr::Arith(a, op, b) => format!(
            "({} {} {})",
            match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
                ArithOp::Mod => "%",
            },
            encode_expr(a),
            encode_expr(b)
        ),
        Expr::Cmp(a, op, b) => format!(
            "({} {} {})",
            match op {
                CmpOp::Eq => "==",
                CmpOp::Neq => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            },
            encode_expr(a),
            encode_expr(b)
        ),
        Expr::Func(f, args) => {
            let parts: Vec<String> = args.iter().map(encode_expr).collect();
            format!("(f {} {})", func_name(*f), parts.join(" "))
        }
    }
}

fn func_name(f: ScalarFunc) -> &'static str {
    match f {
        ScalarFunc::Round => "round",
        ScalarFunc::Floor => "floor",
        ScalarFunc::Ceil => "ceil",
        ScalarFunc::Abs => "abs",
        ScalarFunc::Upper => "upper",
        ScalarFunc::Lower => "lower",
        ScalarFunc::Strlen => "strlen",
        ScalarFunc::Concat => "concat",
        ScalarFunc::Substring => "substring",
        ScalarFunc::Trim => "trim",
        ScalarFunc::StartsWith => "startswith",
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Parse a plan serialized by [`encode_plan`].
pub fn decode_plan(text: &str) -> Result<PhysicalPlan> {
    let mut plan = PhysicalPlan::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| Error::Repository(format!("line {}: {msg}", lineno + 1));
        let (head, inputs) = match line.split_once(" <- ") {
            Some((h, ins)) => {
                let ids: Result<Vec<NodeId>> = ins
                    .split(',')
                    .map(|s| s.trim().parse::<u32>().map(NodeId).map_err(|_| err("bad input id")))
                    .collect();
                (h, ids?)
            }
            None => (line, Vec::new()),
        };
        let mut parts = head.splitn(3, ' ');
        let idx: usize =
            parts.next().ok_or_else(|| err("missing id"))?.parse().map_err(|_| err("bad id"))?;
        if idx != plan.len() {
            return Err(err("node ids must be dense and ordered"));
        }
        let opname = parts.next().ok_or_else(|| err("missing op"))?;
        let rest = parts.next().unwrap_or("");
        let op = decode_op(opname, rest)
            .map_err(|e| Error::Repository(format!("line {}: {e}", lineno + 1)))?;
        plan.add(op, inputs);
    }
    if plan.is_empty() {
        return Err(Error::Repository("empty plan text".into()));
    }
    Ok(plan)
}

fn decode_op(name: &str, rest: &str) -> Result<PhysicalOp> {
    let bad = |msg: &str| Error::Repository(format!("{name}: {msg}"));
    Ok(match name {
        "load" => PhysicalOp::Load { path: unquote(rest)? },
        "store" => PhysicalOp::Store { path: unquote(rest)? },
        "project" => PhysicalOp::Project { cols: parse_usizes(rest)? },
        "group" => PhysicalOp::Group { keys: parse_usizes(rest)? },
        "join" => PhysicalOp::Join { keys: parse_key_lists(rest)? },
        "cogroup" => PhysicalOp::CoGroup { keys: parse_key_lists(rest)? },
        "filter" => {
            let (e, used) = parse_expr(rest)?;
            if !rest[used..].trim().is_empty() {
                return Err(bad("trailing data after predicate"));
            }
            PhysicalOp::Filter { pred: e }
        }
        "mapexpr" => {
            let mut exprs = Vec::new();
            let mut s = rest.trim();
            while !s.is_empty() {
                let (e, used) = parse_expr(s)?;
                exprs.push(e);
                s = s[used..].trim_start();
            }
            PhysicalOp::MapExpr { exprs }
        }
        "aggregate" => {
            let mut items = Vec::new();
            let mut s = rest.trim();
            while !s.is_empty() {
                let (item, used) = parse_agg_item(s)?;
                items.push(item);
                s = s[used..].trim_start();
            }
            PhysicalOp::Aggregate { items }
        }
        "flatten" => {
            PhysicalOp::Flatten { bag_col: rest.trim().parse().map_err(|_| bad("bad column"))? }
        }
        "distinct" => PhysicalOp::Distinct,
        "union" => PhysicalOp::Union,
        "split" => PhysicalOp::Split,
        "limit" => PhysicalOp::Limit { n: rest.trim().parse().map_err(|_| bad("bad count"))? },
        "orderby" => {
            let mut keys = Vec::new();
            for part in rest.split(',') {
                let part = part.trim();
                let (num, asc) = match part.as_bytes().last() {
                    Some(b'+') => (&part[..part.len() - 1], true),
                    Some(b'-') => (&part[..part.len() - 1], false),
                    _ => return Err(bad("orderby key needs +/- suffix")),
                };
                keys.push((num.parse().map_err(|_| bad("bad column"))?, asc));
            }
            PhysicalOp::OrderBy { keys }
        }
        other => return Err(Error::Repository(format!("unknown operator {other:?}"))),
    })
}

fn parse_usizes(s: &str) -> Result<Vec<usize>> {
    let s = s.trim();
    if s == "-" || s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.trim().parse().map_err(|_| Error::Repository(format!("bad column list {s:?}"))))
        .collect()
}

fn parse_key_lists(s: &str) -> Result<Vec<Vec<usize>>> {
    s.split(';').map(parse_usizes).collect()
}

fn parse_agg_item(s: &str) -> Result<(AggItem, usize)> {
    let (tokens, used) = read_sexpr(s)?;
    match tokens.as_slice() {
        [Tok::Atom(k), Tok::Atom(c)] if k == "k" => Ok((
            AggItem::Key(c.parse().map_err(|_| Error::Repository("bad key col".into()))?),
            used,
        )),
        [Tok::Atom(a), Tok::Atom(f), Tok::Atom(bag), Tok::Atom(field)] if a == "a" => {
            let func = match f.as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "countd" => AggFunc::CountDistinct,
                other => return Err(Error::Repository(format!("unknown aggregate {other:?}"))),
            };
            let bag_col = bag.parse().map_err(|_| Error::Repository("bad bag col".into()))?;
            let field = if field == "_" {
                None
            } else {
                Some(field.parse().map_err(|_| Error::Repository("bad field".into()))?)
            };
            Ok((AggItem::Agg { func, bag_col, field }, used))
        }
        _ => Err(Error::Repository(format!("bad aggregate item near {s:?}"))),
    }
}

/// Minimal s-expression tokens: atoms and nested groups.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Atom(String),
    Group(Vec<Tok>),
}

/// Read one parenthesized s-expression from the front of `s`, returning
/// its top-level tokens and the bytes consumed.
fn read_sexpr(s: &str) -> Result<(Vec<Tok>, usize)> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'(') {
        return Err(Error::Repository(format!("expected '(' near {s:?}")));
    }
    let mut i = 1;
    let mut out = Vec::new();
    loop {
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        match bytes.get(i) {
            None => return Err(Error::Repository("unterminated s-expression".into())),
            Some(b')') => return Ok((out, i + 1)),
            Some(b'(') => {
                let (inner, used) = read_sexpr(&s[i..])?;
                out.push(Tok::Group(inner));
                i += used;
            }
            Some(b'"') => {
                let used = read_quoted(&s[i..])?;
                out.push(Tok::Atom(s[i..i + used].to_string()));
                i += used;
            }
            Some(_) => {
                let start = i;
                while i < bytes.len() && bytes[i] != b' ' && bytes[i] != b')' {
                    i += 1;
                }
                out.push(Tok::Atom(s[start..i].to_string()));
            }
        }
    }
}

fn parse_expr(s: &str) -> Result<(Expr, usize)> {
    let (tokens, used) = read_sexpr(s.trim_start())?;
    let skipped = s.len() - s.trim_start().len();
    Ok((expr_from_tokens(&tokens)?, used + skipped))
}

fn expr_from_tokens(tokens: &[Tok]) -> Result<Expr> {
    let bad = || Error::Repository(format!("bad expression tokens {tokens:?}"));
    let sub = |t: &Tok| match t {
        Tok::Group(g) => expr_from_tokens(g),
        _ => Err(bad()),
    };
    match tokens {
        [Tok::Atom(c), Tok::Atom(n)] if c == "c" => Ok(Expr::Col(n.parse().map_err(|_| bad())?)),
        [Tok::Atom(l), Tok::Atom(n)] if l == "l" && n == "n" => Ok(Expr::Lit(Value::Null)),
        [Tok::Atom(l), Tok::Atom(t), Tok::Atom(v)] if l == "l" => match t.as_str() {
            "i" => Ok(Expr::Lit(Value::Int(v.parse().map_err(|_| bad())?))),
            "d" => Ok(Expr::Lit(Value::Double(v.parse().map_err(|_| bad())?))),
            "s" => Ok(Expr::Lit(Value::str(unquote(v)?))),
            _ => Err(bad()),
        },
        [Tok::Atom(op), a] if op == "neg" => Ok(Expr::Neg(Box::new(sub(a)?))),
        [Tok::Atom(op), a] if op == "not" => Ok(Expr::Not(Box::new(sub(a)?))),
        [Tok::Atom(op), a] if op == "isnull" => Ok(Expr::IsNull(Box::new(sub(a)?), true)),
        [Tok::Atom(op), a] if op == "notnull" => Ok(Expr::IsNull(Box::new(sub(a)?), false)),
        [Tok::Atom(op), a, b] if op == "and" => Ok(Expr::And(Box::new(sub(a)?), Box::new(sub(b)?))),
        [Tok::Atom(op), a, b] if op == "or" => Ok(Expr::Or(Box::new(sub(a)?), Box::new(sub(b)?))),
        [Tok::Atom(op), a, b] => {
            let arith = match op.as_str() {
                "+" => Some(ArithOp::Add),
                "-" => Some(ArithOp::Sub),
                "*" => Some(ArithOp::Mul),
                "/" => Some(ArithOp::Div),
                "%" => Some(ArithOp::Mod),
                _ => None,
            };
            if let Some(aop) = arith {
                return Ok(Expr::Arith(Box::new(sub(a)?), aop, Box::new(sub(b)?)));
            }
            let cmp = match op.as_str() {
                "==" => CmpOp::Eq,
                "!=" => CmpOp::Neq,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                _ => return Err(bad()),
            };
            Ok(Expr::Cmp(Box::new(sub(a)?), cmp, Box::new(sub(b)?)))
        }
        [Tok::Atom(f), name, args @ ..] if f == "f" => {
            let Tok::Atom(fname) = name else { return Err(bad()) };
            let func = match fname.as_str() {
                "round" => ScalarFunc::Round,
                "floor" => ScalarFunc::Floor,
                "ceil" => ScalarFunc::Ceil,
                "abs" => ScalarFunc::Abs,
                "upper" => ScalarFunc::Upper,
                "lower" => ScalarFunc::Lower,
                "strlen" => ScalarFunc::Strlen,
                "concat" => ScalarFunc::Concat,
                "substring" => ScalarFunc::Substring,
                "trim" => ScalarFunc::Trim,
                "startswith" => ScalarFunc::StartsWith,
                _ => return Err(bad()),
            };
            let parsed: Result<Vec<Expr>> = args.iter().map(sub).collect();
            Ok(Expr::Func(func, parsed?))
        }
        _ => Err(bad()),
    }
}

/// The length in bytes, quotes included, of the Rust-debug-quoted
/// string at the front of `s` (still escaped: [`unquote`] that slice).
pub(crate) fn read_quoted(s: &str) -> Result<usize> {
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'"') {
        return Err(Error::Repository(format!("expected quoted string in {s:?}")));
    }
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Ok(i + 1),
            _ => i += 1,
        }
    }
    Err(Error::Repository("unterminated string".into()))
}

/// Undo Rust debug-format quoting.
pub(crate) fn unquote(s: &str) -> Result<String> {
    let s = s.trim();
    let inner = s
        .strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .ok_or_else(|| Error::Repository(format!("expected quoted string, got {s:?}")))?;
    let mut out = String::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('\'') => out.push('\''),
            Some('u') => {
                // \u{XXXX}
                let rest: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let hex = rest.trim_start_matches('{');
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| Error::Repository("bad unicode escape".into()))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| Error::Repository("bad unicode escape".into()))?,
                );
            }
            other => return Err(Error::Repository(format!("bad escape \\{other:?}"))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(plan: &PhysicalPlan) {
        let text = encode_plan(plan);
        let back = decode_plan(&text).unwrap();
        assert_eq!(
            plan.signature(),
            back.signature(),
            "round trip changed plan:\n{text}\n-- became --\n{}",
            encode_plan(&back)
        );
    }

    #[test]
    fn simple_plan_round_trips() {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/data in/pv".into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l]);
        let f = p.add(
            PhysicalOp::Filter {
                pred: Expr::And(
                    Box::new(Expr::col_eq(0, "x\ty")),
                    Box::new(Expr::Cmp(
                        Box::new(Expr::Col(1)),
                        CmpOp::Ge,
                        Box::new(Expr::Lit(Value::Double(1.5))),
                    )),
                ),
            },
            vec![pr],
        );
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![f]);
        round_trip(&p);
    }

    #[test]
    fn all_operators_round_trip() {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/a".into() }, vec![]);
        let l2 = p.add(PhysicalOp::Load { path: "/b".into() }, vec![]);
        let m = p.add(
            PhysicalOp::MapExpr {
                exprs: vec![
                    Expr::Col(0),
                    Expr::Func(ScalarFunc::Concat, vec![Expr::Col(1), Expr::Lit(Value::str("!"))]),
                    Expr::Arith(
                        Box::new(Expr::Col(2)),
                        ArithOp::Mul,
                        Box::new(Expr::Lit(Value::Int(3))),
                    ),
                ],
            },
            vec![l1],
        );
        let u = p.add(PhysicalOp::Union, vec![m, l2]);
        let cg = p.add(PhysicalOp::CoGroup { keys: vec![vec![0, 1], vec![0, 2]] }, vec![u, l2]);
        let fl = p.add(PhysicalOp::Flatten { bag_col: 1 }, vec![cg]);
        let d = p.add(PhysicalOp::Distinct, vec![fl]);
        let g = p.add(PhysicalOp::Group { keys: vec![] }, vec![d]);
        let a = p.add(
            PhysicalOp::Aggregate {
                items: vec![
                    AggItem::Key(0),
                    AggItem::Agg { func: AggFunc::Sum, bag_col: 1, field: Some(2) },
                    AggItem::Agg { func: AggFunc::Count, bag_col: 1, field: None },
                ],
            },
            vec![g],
        );
        let o = p.add(PhysicalOp::OrderBy { keys: vec![(0, true), (1, false)] }, vec![a]);
        let li = p.add(PhysicalOp::Limit { n: 10 }, vec![o]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![li]);
        round_trip(&p);
    }

    #[test]
    fn join_and_split_round_trip() {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/a".into() }, vec![]);
        let l2 = p.add(PhysicalOp::Load { path: "/b".into() }, vec![]);
        let s = p.add(PhysicalOp::Split, vec![l1]);
        let _side = p.add(PhysicalOp::Store { path: "/side".into() }, vec![s]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![1]] }, vec![s, l2]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![j]);
        round_trip(&p);
    }

    #[test]
    fn expr_special_values() {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: "/a".into() }, vec![]);
        let f = p.add(
            PhysicalOp::Filter {
                pred: Expr::Or(
                    Box::new(Expr::IsNull(Box::new(Expr::Col(0)), true)),
                    Box::new(Expr::Not(Box::new(Expr::Neg(Box::new(Expr::Col(1)))))),
                ),
            },
            vec![l],
        );
        p.add(PhysicalOp::Store { path: "/o".into() }, vec![f]);
        round_trip(&p);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(decode_plan("").is_err());
        assert!(decode_plan("0 frobnicate").is_err());
        assert!(decode_plan("5 load \"/x\"").is_err()); // non-dense id
        assert!(decode_plan("0 load /x").is_err()); // unquoted path
        assert!(decode_plan("0 filter (== (c 0)").is_err()); // unterminated
    }

    #[test]
    fn quoted_strings_with_escapes() {
        assert_eq!(unquote("\"a\\tb\\nc\"").unwrap(), "a\tb\nc");
        assert_eq!(unquote("\"q\\\"q\"").unwrap(), "q\"q");
        assert!(unquote("no quotes").is_err());
    }
}
