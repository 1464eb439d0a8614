//! Logical plans: alias resolution, schema propagation, and translation
//! of parsed statements into a typed operator DAG.
//!
//! This is where names die and positions are born: every field reference
//! is resolved against the schema of its input relation, so the physical
//! layer (and ReStore's matcher) deals in column indices only.

use crate::ast::{AstExpr, GenItem, Program, RelExpr, Statement};
use crate::expr::{AggFunc, ArithOp, CmpOp, Expr, ScalarFunc};
use crate::physical::AggItem;
use restore_common::{Error, Field, FieldType, Result, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// Node index in a [`LogicalPlan`].
pub type LNodeId = usize;

/// Logical operators (parameters fully resolved to column indices).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalOp {
    Load { path: String },
    Store { path: String },
    Project { cols: Vec<usize> },
    Foreach { exprs: Vec<Expr> },
    Filter { pred: Expr },
    Join { keys: Vec<Vec<usize>> },
    Group { keys: Vec<usize> },
    CoGroup { keys: Vec<Vec<usize>> },
    Aggregate { items: Vec<AggItem> },
    Flatten { bag_col: usize },
    Distinct,
    Union,
    OrderBy { keys: Vec<(usize, bool)> },
    Limit { n: u64 },
}

/// A logical node: operator, inputs, output schema, and (for bag-typed
/// fields) the element schema of each bag. Both are shared: an operator
/// that keeps its input's shape (Filter, a SPLIT branch, Distinct, Order,
/// Limit, Union, Store) holds its input's, and a group's bag holds the
/// grouped relation's schema.
#[derive(Debug, Clone)]
pub struct LogicalNode {
    pub op: LogicalOp,
    pub inputs: Vec<LNodeId>,
    pub schema: Arc<Schema>,
    /// Parallel to `schema`: element schema of bag-typed fields.
    pub bag_schemas: Arc<[Option<Arc<Schema>>]>,
}

/// `bag_schemas` of a relation with `n` fields and no bags.
fn no_bags(n: usize) -> Arc<[Option<Arc<Schema>>]> {
    (0..n).map(|_| None).collect()
}

/// The logical plan DAG.
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    pub nodes: Vec<LogicalNode>,
}

impl LogicalPlan {
    pub fn node(&self, id: LNodeId) -> &LogicalNode {
        &self.nodes[id]
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Store nodes (sinks).
    pub fn stores(&self) -> Vec<LNodeId> {
        (0..self.nodes.len())
            .filter(|&i| matches!(self.nodes[i].op, LogicalOp::Store { .. }))
            .collect()
    }

    fn add(&mut self, node: LogicalNode) -> LNodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Build a logical plan from a parsed program.
    pub fn from_ast(program: &Program) -> Result<LogicalPlan> {
        let mut b = Builder {
            plan: LogicalPlan { nodes: Vec::with_capacity(program.statements.len()) },
            aliases: HashMap::with_capacity(program.statements.len()),
        };
        let mut any_store = false;
        for stmt in &program.statements {
            match stmt {
                Statement::Assign { alias, rel } => {
                    let id = b.build_rel(alias, rel)?;
                    b.aliases.insert(alias, id);
                }
                Statement::Store { alias, path } => {
                    any_store = true;
                    let input = b.alias(alias)?;
                    let schema = b.plan.node(input).schema.clone();
                    let bags = b.plan.node(input).bag_schemas.clone();
                    b.plan.add(LogicalNode {
                        op: LogicalOp::Store { path: path.clone() },
                        inputs: vec![input],
                        schema,
                        bag_schemas: bags,
                    });
                }
                // SPLIT desugars to one Filter per branch (Pig semantics:
                // conditions are independent; rows can reach several
                // branches or none).
                Statement::Split { input, branches } => {
                    let in_id = b.alias(input)?;
                    for (alias, cond) in branches {
                        let schema = b.plan.node(in_id).schema.clone();
                        let bags = b.plan.node(in_id).bag_schemas.clone();
                        let pred = resolve_scalar(cond, &schema)?;
                        let id = b.plan.add(LogicalNode {
                            op: LogicalOp::Filter { pred },
                            inputs: vec![in_id],
                            schema,
                            bag_schemas: bags,
                        });
                        b.aliases.insert(alias, id);
                    }
                }
            }
        }
        if !any_store {
            return Err(Error::Plan("query has no STORE statement".into()));
        }
        Ok(b.plan)
    }
}

struct Builder<'a> {
    plan: LogicalPlan,
    /// Alias → the node it names, keyed by the program's own strings.
    aliases: HashMap<&'a str, LNodeId>,
}

impl Builder<'_> {
    fn alias(&self, name: &str) -> Result<LNodeId> {
        self.aliases.get(name).copied().ok_or_else(|| {
            Error::Plan(format!(
                "unknown alias {name:?}; defined: {:?}",
                self.aliases.keys().collect::<Vec<_>>()
            ))
        })
    }

    fn build_rel(&mut self, _alias: &str, rel: &RelExpr) -> Result<LNodeId> {
        match rel {
            RelExpr::Load { path, schema } => {
                let fields =
                    schema.iter().map(|(n, t)| Field::new(n.clone(), *t)).collect::<Vec<_>>();
                let n = fields.len();
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Load { path: path.clone() },
                    inputs: vec![],
                    schema: Arc::new(Schema::new(fields)),
                    bag_schemas: no_bags(n),
                }))
            }
            RelExpr::Filter { input, predicate } => {
                let in_id = self.alias(input)?;
                let schema = self.plan.node(in_id).schema.clone();
                let bags = self.plan.node(in_id).bag_schemas.clone();
                let pred = resolve_scalar(predicate, &schema)?;
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Filter { pred },
                    inputs: vec![in_id],
                    schema,
                    bag_schemas: bags,
                }))
            }
            RelExpr::Distinct { input } => {
                let in_id = self.alias(input)?;
                let schema = self.plan.node(in_id).schema.clone();
                let bags = self.plan.node(in_id).bag_schemas.clone();
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Distinct,
                    inputs: vec![in_id],
                    schema,
                    bag_schemas: bags,
                }))
            }
            RelExpr::Limit { input, n } => {
                let in_id = self.alias(input)?;
                let schema = self.plan.node(in_id).schema.clone();
                let bags = self.plan.node(in_id).bag_schemas.clone();
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Limit { n: *n },
                    inputs: vec![in_id],
                    schema,
                    bag_schemas: bags,
                }))
            }
            RelExpr::OrderBy { input, keys } => {
                let in_id = self.alias(input)?;
                let schema = self.plan.node(in_id).schema.clone();
                let bags = self.plan.node(in_id).bag_schemas.clone();
                let mut rkeys = Vec::new();
                for (e, asc) in keys {
                    rkeys.push((resolve_col(e, &schema)?, *asc));
                }
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::OrderBy { keys: rkeys },
                    inputs: vec![in_id],
                    schema,
                    bag_schemas: bags,
                }))
            }
            RelExpr::Union { inputs } => {
                let ids: Result<Vec<LNodeId>> = inputs.iter().map(|a| self.alias(a)).collect();
                let ids = ids?;
                let first = &self.plan.node(ids[0]);
                let arity = first.schema.len();
                let schema = first.schema.clone();
                let bags = first.bag_schemas.clone();
                for &id in &ids[1..] {
                    if self.plan.node(id).schema.len() != arity {
                        return Err(Error::Plan(format!(
                            "UNION inputs have different arity ({arity} vs {})",
                            self.plan.node(id).schema.len()
                        )));
                    }
                }
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Union,
                    inputs: ids,
                    schema,
                    bag_schemas: bags,
                }))
            }
            RelExpr::Join { inputs } => {
                let mut ids = Vec::new();
                let mut keys = Vec::new();
                let mut fields = Vec::new();
                let mut bags = Vec::new();
                for (a, ks) in inputs {
                    let id = self.alias(a)?;
                    let schema = self.plan.node(id).schema.clone();
                    let resolved: Result<Vec<usize>> =
                        ks.iter().map(|k| resolve_col(k, &schema)).collect();
                    keys.push(resolved?);
                    for f in schema.fields() {
                        // Qualify every output field with its alias so
                        // both sides of self-named fields stay reachable.
                        fields.push(Field::new(format!("{a}::{}", f.name), f.ty));
                    }
                    bags.extend(self.plan.node(id).bag_schemas.iter().cloned());
                    ids.push(id);
                }
                let arities: Vec<usize> = keys.iter().map(|k| k.len()).collect();
                if arities.windows(2).any(|w| w[0] != w[1]) {
                    return Err(Error::Plan(format!("JOIN key arity mismatch: {arities:?}")));
                }
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Join { keys },
                    inputs: ids,
                    schema: Arc::new(Schema::new(fields)),
                    bag_schemas: bags.into(),
                }))
            }
            RelExpr::Group { input, keys, all } => {
                let in_id = self.alias(input)?;
                let in_schema = self.plan.node(in_id).schema.clone();
                let rkeys: Result<Vec<usize>> =
                    keys.iter().map(|k| resolve_col(k, &in_schema)).collect();
                let rkeys = rkeys?;
                if !all && rkeys.is_empty() {
                    return Err(Error::Plan("GROUP BY with no keys".into()));
                }
                // Output schema: key columns (named `group`, or
                // `group::<field>` for composite keys), then the bag named
                // after the input alias.
                let mut fields = Vec::new();
                let mut bags = Vec::new();
                if *all {
                    fields.push(Field::new("group", FieldType::Chararray));
                    bags.push(None);
                } else if rkeys.len() == 1 {
                    let f = in_schema.field(rkeys[0]).expect("resolved");
                    fields.push(Field::new("group", f.ty));
                    bags.push(None);
                } else {
                    for &k in &rkeys {
                        let f = in_schema.field(k).expect("resolved");
                        fields.push(Field::new(format!("group::{}", f.name), f.ty));
                        bags.push(None);
                    }
                }
                fields.push(Field::new(input.clone(), FieldType::Bag));
                bags.push(Some(in_schema));
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::Group { keys: rkeys },
                    inputs: vec![in_id],
                    schema: Arc::new(Schema::new(fields)),
                    bag_schemas: bags.into(),
                }))
            }
            RelExpr::CoGroup { inputs } => {
                let mut ids = Vec::new();
                let mut keys = Vec::new();
                for (a, ks) in inputs {
                    let id = self.alias(a)?;
                    let schema = self.plan.node(id).schema.clone();
                    let resolved: Result<Vec<usize>> =
                        ks.iter().map(|k| resolve_col(k, &schema)).collect();
                    keys.push(resolved?);
                    ids.push(id);
                }
                let arities: Vec<usize> = keys.iter().map(|k| k.len()).collect();
                if arities.windows(2).any(|w| w[0] != w[1]) {
                    return Err(Error::Plan(format!("COGROUP key arity mismatch: {arities:?}")));
                }
                let mut fields = Vec::new();
                let mut bags = Vec::new();
                let first_schema = self.plan.node(ids[0]).schema.clone();
                if keys[0].len() == 1 {
                    let f = first_schema.field(keys[0][0]).expect("resolved");
                    fields.push(Field::new("group", f.ty));
                    bags.push(None);
                } else {
                    for &k in &keys[0] {
                        let f = first_schema.field(k).expect("resolved");
                        fields.push(Field::new(format!("group::{}", f.name), f.ty));
                        bags.push(None);
                    }
                }
                for (a, _) in inputs {
                    let id = self.alias(a)?;
                    fields.push(Field::new(a.clone(), FieldType::Bag));
                    bags.push(Some(self.plan.node(id).schema.clone()));
                }
                Ok(self.plan.add(LogicalNode {
                    op: LogicalOp::CoGroup { keys },
                    inputs: ids,
                    schema: Arc::new(Schema::new(fields)),
                    bag_schemas: bags.into(),
                }))
            }
            RelExpr::Foreach { input, items } => {
                let in_id = self.alias(input)?;
                self.build_foreach(in_id, items)
            }
        }
    }

    /// FOREACH dispatch: aggregate form (over a grouped relation),
    /// flatten form, or scalar form.
    fn build_foreach(&mut self, in_id: LNodeId, items: &[GenItem]) -> Result<LNodeId> {
        let in_schema = self.plan.node(in_id).schema.clone();
        let in_bags = self.plan.node(in_id).bag_schemas.clone();

        let has_agg = items.iter().any(|i| is_aggregate_item(&i.expr));
        let has_flatten = items
            .iter()
            .any(|i| matches!(&i.expr, AstExpr::Call(n, _) if n.eq_ignore_ascii_case("FLATTEN")));

        if has_flatten {
            return self.build_flatten(in_id, items);
        }
        if has_agg {
            return self.build_aggregate(in_id, items);
        }

        // Scalar FOREACH. All-column projections lower to Project for a
        // canonical plan shape; anything else becomes Foreach.
        let mut exprs = Vec::new();
        let mut fields = Vec::new();
        let mut bags = Vec::new();
        for item in items {
            let e = resolve_scalar(&item.expr, &in_schema)?;
            let (name, ty, bag) =
                output_field(&item.expr, &e, item.rename.as_deref(), &in_schema, &in_bags);
            fields.push(Field::new(name, ty));
            bags.push(bag);
            exprs.push(e);
        }
        let all_cols: Option<Vec<usize>> = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(i) => Some(*i),
                _ => None,
            })
            .collect();
        let op = match all_cols {
            Some(cols) => LogicalOp::Project { cols },
            None => LogicalOp::Foreach { exprs },
        };
        Ok(self.plan.add(LogicalNode {
            op,
            inputs: vec![in_id],
            schema: Arc::new(Schema::new(fields)),
            bag_schemas: bags.into(),
        }))
    }

    fn build_aggregate(&mut self, in_id: LNodeId, items: &[GenItem]) -> Result<LNodeId> {
        let in_schema = self.plan.node(in_id).schema.clone();
        let in_bags = self.plan.node(in_id).bag_schemas.clone();
        let mut agg_items = Vec::new();
        let mut fields = Vec::new();
        for item in items {
            match &item.expr {
                AstExpr::Call(fname, args) => {
                    let func = AggFunc::parse(fname).ok_or_else(|| {
                        Error::Plan(format!("{fname:?} is not an aggregate function"))
                    })?;
                    let (bag_col, field, default_name) =
                        resolve_agg_arg(args, &in_schema, &in_bags)?;
                    let name = item
                        .rename
                        .clone()
                        .unwrap_or_else(|| format!("{}_{default_name}", fname.to_lowercase()));
                    let ty = match func {
                        AggFunc::Count | AggFunc::CountDistinct => FieldType::Int,
                        AggFunc::Avg => FieldType::Double,
                        _ => FieldType::Bytearray,
                    };
                    fields.push(Field::new(name, ty));
                    agg_items.push(AggItem::Agg { func, bag_col, field });
                }
                // `group` over a composite key expands to all key columns
                // (Pig's `group` is the whole key tuple; we flatten it).
                AstExpr::Field(name)
                    if name == "group" && in_schema.index_of("group").is_none() =>
                {
                    let key_cols: Vec<usize> = (0..in_schema.len())
                        .filter(|&i| in_schema.field(i).unwrap().name.starts_with("group::"))
                        .collect();
                    if key_cols.is_empty() {
                        return Err(Error::Plan("`group` used outside a grouped relation".into()));
                    }
                    for c in key_cols {
                        let f = in_schema.field(c).expect("resolved");
                        let bare = f.name.strip_prefix("group::").unwrap_or(&f.name);
                        fields.push(Field::new(bare, f.ty));
                        agg_items.push(AggItem::Key(c));
                    }
                }
                key_expr => {
                    let col = resolve_col(key_expr, &in_schema)?;
                    let f = in_schema.field(col).expect("resolved");
                    if f.ty == FieldType::Bag {
                        return Err(Error::Plan(format!(
                            "cannot project whole bag {:?} alongside aggregates",
                            f.name
                        )));
                    }
                    let name = item.rename.clone().unwrap_or_else(|| f.name.clone());
                    fields.push(Field::new(name, f.ty));
                    agg_items.push(AggItem::Key(col));
                }
            }
        }
        let n = fields.len();
        Ok(self.plan.add(LogicalNode {
            op: LogicalOp::Aggregate { items: agg_items },
            inputs: vec![in_id],
            schema: Arc::new(Schema::new(fields)),
            bag_schemas: no_bags(n),
        }))
    }

    fn build_flatten(&mut self, in_id: LNodeId, items: &[GenItem]) -> Result<LNodeId> {
        let in_schema = self.plan.node(in_id).schema.clone();
        let in_bags = self.plan.node(in_id).bag_schemas.clone();
        // Supported shape: scalar/key items plus exactly one FLATTEN(bag).
        let mut cols = Vec::new();
        let mut flatten_pos = None;
        let mut bag_col_src = None;
        for item in items {
            match &item.expr {
                AstExpr::Call(n, args) if n.eq_ignore_ascii_case("FLATTEN") => {
                    if flatten_pos.is_some() {
                        return Err(Error::Plan(
                            "only one FLATTEN per FOREACH is supported".into(),
                        ));
                    }
                    let bag_name = match args.as_slice() {
                        [AstExpr::Field(f)] => f.clone(),
                        other => {
                            return Err(Error::Plan(format!(
                                "FLATTEN takes a bag field, got {other:?}"
                            )))
                        }
                    };
                    let col = in_schema.resolve(&bag_name)?;
                    flatten_pos = Some(cols.len());
                    bag_col_src = Some(col);
                    cols.push(col);
                }
                e => cols.push(resolve_col(e, &in_schema)?),
            }
        }
        let bag_src =
            bag_col_src.ok_or_else(|| Error::Plan("FLATTEN foreach without FLATTEN".into()))?;
        let flatten_pos = flatten_pos.expect("set with bag_col_src");
        let elem_schema = in_bags
            .get(bag_src)
            .cloned()
            .flatten()
            .ok_or_else(|| Error::Plan("FLATTEN of a non-bag field".into()))?;

        // Project the chosen columns, then flatten the bag in place.
        let mut proj_fields = Vec::new();
        let mut proj_bags = Vec::new();
        for &c in &cols {
            let f = in_schema.field(c).expect("resolved");
            proj_fields.push(f.clone());
            proj_bags.push(in_bags.get(c).cloned().flatten());
        }
        let proj = self.plan.add(LogicalNode {
            op: LogicalOp::Project { cols: cols.clone() },
            inputs: vec![in_id],
            schema: Arc::new(Schema::new(proj_fields.clone())),
            bag_schemas: proj_bags.into(),
        });

        let mut out_fields = Vec::new();
        for (i, f) in proj_fields.iter().enumerate() {
            if i == flatten_pos {
                out_fields.extend(elem_schema.fields().iter().cloned());
            } else {
                out_fields.push(f.clone());
            }
        }
        let n = out_fields.len();
        Ok(self.plan.add(LogicalNode {
            op: LogicalOp::Flatten { bag_col: flatten_pos },
            inputs: vec![proj],
            schema: Arc::new(Schema::new(out_fields)),
            bag_schemas: no_bags(n),
        }))
    }
}

/// True when the expression is an aggregate function call.
fn is_aggregate_item(e: &AstExpr) -> bool {
    matches!(e, AstExpr::Call(n, _) if AggFunc::parse(n).is_some())
}

/// Resolve an aggregate argument to (bag column, optional field in bag,
/// display name).
fn resolve_agg_arg(
    args: &[AstExpr],
    schema: &Schema,
    bags: &[Option<Arc<Schema>>],
) -> Result<(usize, Option<usize>, String)> {
    // A column is a bag if we tracked its element schema, or if it was
    // *declared* as a bag (e.g. loading a previously stored Group output).
    let is_bag = |col: usize| {
        bags.get(col).map(|b| b.is_some()) == Some(true)
            || schema.field(col).map(|f| f.ty) == Some(FieldType::Bag)
    };
    let first_bag = || {
        (0..schema.len())
            .find(|&c| is_bag(c))
            .ok_or_else(|| Error::Plan("aggregate over a relation with no bag".into()))
    };
    match args {
        // COUNT(C): whole-bag count.
        [AstExpr::Field(name)] => {
            let col = resolve_name(name, schema)?;
            if !is_bag(col) {
                return Err(Error::Plan(format!("{name:?} is not a bag")));
            }
            Ok((col, None, name.clone()))
        }
        // COUNT($1): positional bag reference.
        [AstExpr::Positional(p)] => {
            if !is_bag(*p) {
                return Err(Error::Plan(format!("${p} is not a bag")));
            }
            Ok((*p, None, format!("{p}")))
        }
        // SUM(C.est_revenue): field inside the bag.
        [AstExpr::BagField(alias, field)] => {
            let col = resolve_name(alias, schema)?;
            let elem = bags
                .get(col)
                .cloned()
                .flatten()
                .ok_or_else(|| Error::Plan(format!("{alias:?} is not a bag")))?;
            let f = resolve_name(field, &elem)?;
            Ok((col, Some(f), field.clone()))
        }
        // COUNT(*) with no argument: first bag.
        [] => {
            let col = first_bag()?;
            Ok((col, None, "all".into()))
        }
        other => Err(Error::Plan(format!("unsupported aggregate argument {other:?}"))),
    }
}

/// Output field metadata for a scalar FOREACH item.
fn output_field(
    ast: &AstExpr,
    resolved: &Expr,
    rename: Option<&str>,
    schema: &Schema,
    bags: &[Option<Arc<Schema>>],
) -> (String, FieldType, Option<Arc<Schema>>) {
    if let Expr::Col(c) = resolved {
        let f = schema.field(*c);
        let name = rename
            .map(|r| r.to_string())
            .or_else(|| f.map(|f| f.name.clone()))
            .unwrap_or_else(|| format!("${c}"));
        // Strip the alias qualifier Pig would eventually drop.
        let name = rename
            .map(|r| r.to_string())
            .unwrap_or_else(|| name.rsplit("::").next().unwrap_or(&name).to_string());
        return (
            name,
            f.map(|f| f.ty).unwrap_or(FieldType::Bytearray),
            bags.get(*c).cloned().flatten(),
        );
    }
    let name = rename.map(|r| r.to_string()).unwrap_or_else(|| match ast {
        AstExpr::Call(n, _) => n.to_lowercase(),
        _ => "expr".to_string(),
    });
    (name, FieldType::Bytearray, None)
}

/// Resolve an expression that must be a single column reference.
fn resolve_col(e: &AstExpr, schema: &Schema) -> Result<usize> {
    match resolve_scalar(e, schema)? {
        Expr::Col(c) => Ok(c),
        other => Err(Error::Plan(format!("expected a field reference, got expression {other:?}"))),
    }
}

/// Resolve names in a scalar expression against a schema. Field lookup
/// tries exact match first, then a unique `alias::name` suffix match.
pub fn resolve_scalar(e: &AstExpr, schema: &Schema) -> Result<Expr> {
    Ok(match e {
        AstExpr::Field(name) => Expr::Col(resolve_name(name, schema)?),
        AstExpr::QualifiedField(a, f) => Expr::Col(resolve_name(&format!("{a}::{f}"), schema)?),
        AstExpr::Positional(p) => Expr::Col(*p),
        AstExpr::BagField(a, f) => {
            return Err(Error::Plan(format!("bag field {a}.{f} is only valid inside an aggregate")))
        }
        AstExpr::Lit(v) => Expr::Lit(v.clone()),
        AstExpr::Neg(x) => Expr::Neg(Box::new(resolve_scalar(x, schema)?)),
        AstExpr::Not(x) => Expr::Not(Box::new(resolve_scalar(x, schema)?)),
        AstExpr::IsNull(x, want) => Expr::IsNull(Box::new(resolve_scalar(x, schema)?), *want),
        AstExpr::And(a, b) => {
            Expr::And(Box::new(resolve_scalar(a, schema)?), Box::new(resolve_scalar(b, schema)?))
        }
        AstExpr::Or(a, b) => {
            Expr::Or(Box::new(resolve_scalar(a, schema)?), Box::new(resolve_scalar(b, schema)?))
        }
        AstExpr::Arith(a, op, b) => {
            let aop = match op {
                '+' => ArithOp::Add,
                '-' => ArithOp::Sub,
                '*' => ArithOp::Mul,
                '/' => ArithOp::Div,
                '%' => ArithOp::Mod,
                other => return Err(Error::Plan(format!("bad arith op {other:?}"))),
            };
            Expr::Arith(
                Box::new(resolve_scalar(a, schema)?),
                aop,
                Box::new(resolve_scalar(b, schema)?),
            )
        }
        AstExpr::Cmp(a, op, b) => {
            let cop = match op.as_str() {
                "==" => CmpOp::Eq,
                "!=" => CmpOp::Neq,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                other => return Err(Error::Plan(format!("bad comparison {other:?}"))),
            };
            Expr::Cmp(
                Box::new(resolve_scalar(a, schema)?),
                cop,
                Box::new(resolve_scalar(b, schema)?),
            )
        }
        AstExpr::Call(name, args) => {
            if AggFunc::parse(name).is_some() {
                return Err(Error::Plan(format!(
                    "aggregate {name:?} outside of a grouped FOREACH"
                )));
            }
            let f = ScalarFunc::parse(name)
                .ok_or_else(|| Error::Plan(format!("unknown function {name:?}")))?;
            let rargs: Result<Vec<Expr>> = args.iter().map(|a| resolve_scalar(a, schema)).collect();
            Expr::Func(f, rargs?)
        }
    })
}

/// Exact-then-suffix field resolution.
fn resolve_name(name: &str, schema: &Schema) -> Result<usize> {
    if let Some(i) = schema.index_of(name) {
        return Ok(i);
    }
    let suffix = format!("::{name}");
    let hits: Vec<usize> =
        (0..schema.len()).filter(|&i| schema.field(i).unwrap().name.ends_with(&suffix)).collect();
    match hits.as_slice() {
        [one] => Ok(*one),
        [] => schema.resolve(name), // reuse its error message
        many => Err(Error::Plan(format!(
            "ambiguous field {name:?}: matches {} qualified fields",
            many.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn build(q: &str) -> LogicalPlan {
        LogicalPlan::from_ast(&parse(q).unwrap()).unwrap()
    }

    const Q1: &str = "
        A = load 'page_views' as (user, timestamp:int, est_revenue:double, page_info, page_links);
        B = foreach A generate user, est_revenue;
        alpha = load 'users' as (name, phone, address, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        store C into 'L2_out';
    ";

    #[test]
    fn q1_builds_with_resolved_join() {
        let p = build(Q1);
        let join = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Join { .. })).unwrap();
        match &join.op {
            LogicalOp::Join { keys } => assert_eq!(keys, &vec![vec![0], vec![0]]),
            _ => unreachable!(),
        }
        // Join schema is alias-qualified.
        assert_eq!(join.schema.index_of("beta::name"), Some(0));
        assert_eq!(join.schema.index_of("B::user"), Some(1));
        assert_eq!(p.stores().len(), 1);
    }

    #[test]
    fn simple_foreach_lowers_to_project() {
        let p =
            build("A = load '/d' as (a, b, c); B = foreach A generate c, a; store B into '/o';");
        let proj = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Project { .. })).unwrap();
        match &proj.op {
            LogicalOp::Project { cols } => assert_eq!(cols, &vec![2, 0]),
            _ => unreachable!(),
        }
        assert_eq!(proj.schema.index_of("c"), Some(0));
    }

    #[test]
    fn computed_foreach_stays_foreach() {
        let p = build(
            "A = load '/d' as (a:int, b:int); B = foreach A generate a + b as s; store B into '/o';",
        );
        assert!(p.nodes.iter().any(|n| matches!(n.op, LogicalOp::Foreach { .. })));
        let f = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Foreach { .. })).unwrap();
        assert_eq!(f.schema.index_of("s"), Some(0));
    }

    #[test]
    fn group_then_aggregate() {
        let p = build(
            "A = load '/d' as (u, r:double);
             G = group A by u;
             S = foreach G generate group, SUM(A.r);
             store S into '/o';",
        );
        let group = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Group { .. })).unwrap();
        assert_eq!(group.schema.index_of("group"), Some(0));
        assert_eq!(group.schema.index_of("A"), Some(1));
        assert_eq!(group.schema.field(1).unwrap().ty, FieldType::Bag);
        assert!(group.bag_schemas[1].is_some());

        let agg = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Aggregate { .. })).unwrap();
        match &agg.op {
            LogicalOp::Aggregate { items } => {
                assert_eq!(items[0], AggItem::Key(0));
                assert_eq!(
                    items[1],
                    AggItem::Agg { func: AggFunc::Sum, bag_col: 1, field: Some(1) }
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn group_all_has_chararray_key() {
        let p = build(
            "A = load '/d' as (x:int);
             G = group A all;
             C = foreach G generate COUNT(A);
             store C into '/o';",
        );
        let group = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Group { .. })).unwrap();
        match &group.op {
            LogicalOp::Group { keys } => assert!(keys.is_empty()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn cogroup_schema_has_one_bag_per_input() {
        let p = build(
            "A = load '/a' as (u, x);
             B = load '/b' as (v, y);
             C = cogroup A by u, B by v;
             store C into '/o';",
        );
        let cg = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::CoGroup { .. })).unwrap();
        assert_eq!(cg.schema.len(), 3);
        assert_eq!(cg.schema.index_of("A"), Some(1));
        assert_eq!(cg.schema.index_of("B"), Some(2));
        assert!(cg.bag_schemas[1].is_some() && cg.bag_schemas[2].is_some());
    }

    #[test]
    fn flatten_after_cogroup() {
        let p = build(
            "A = load '/a' as (u, x);
             B = load '/b' as (v);
             C = cogroup A by u, B by v;
             D = foreach C generate FLATTEN(A);
             store D into '/o';",
        );
        let fl = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Flatten { .. })).unwrap();
        assert_eq!(fl.schema.index_of("u"), Some(0));
        assert_eq!(fl.schema.index_of("x"), Some(1));
    }

    #[test]
    fn count_distinct_aggregate() {
        let p = build(
            "A = load '/d' as (u, action);
             G = group A by u;
             C = foreach G generate group, COUNT_DISTINCT(A.action);
             store C into '/o';",
        );
        let agg = p.nodes.iter().find(|n| matches!(n.op, LogicalOp::Aggregate { .. })).unwrap();
        match &agg.op {
            LogicalOp::Aggregate { items } => {
                assert_eq!(
                    items[1],
                    AggItem::Agg { func: AggFunc::CountDistinct, bag_col: 1, field: Some(1) }
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn errors_on_unknown_alias_and_field() {
        let err =
            LogicalPlan::from_ast(&parse("B = filter A by x > 1; store B into '/o';").unwrap())
                .unwrap_err();
        assert!(err.to_string().contains("unknown alias"));

        let err = LogicalPlan::from_ast(
            &parse("A = load '/d' as (a); B = filter A by nope > 1; store B into '/o';").unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn errors_without_store() {
        let err = LogicalPlan::from_ast(&parse("A = load '/d' as (a);").unwrap()).unwrap_err();
        assert!(err.to_string().contains("no STORE"));
    }

    #[test]
    fn split_desugars_to_filters() {
        let p = build(
            "A = load '/d' as (x:int, y);
             split A into Hi if x > 10, Lo if x <= 10;
             store Hi into '/hi';
             store Lo into '/lo';",
        );
        let filters = p.nodes.iter().filter(|n| matches!(n.op, LogicalOp::Filter { .. })).count();
        assert_eq!(filters, 2);
        assert_eq!(p.stores().len(), 2);
        // Both filters read the same input node.
        let filter_inputs: Vec<LNodeId> = p
            .nodes
            .iter()
            .filter(|n| matches!(n.op, LogicalOp::Filter { .. }))
            .map(|n| n.inputs[0])
            .collect();
        assert_eq!(filter_inputs[0], filter_inputs[1]);
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let err = LogicalPlan::from_ast(
            &parse(
                "A = load '/a' as (x, y);
                 B = load '/b' as (z);
                 C = union A, B;
                 store C into '/o';",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("arity"));
    }

    #[test]
    fn aggregate_outside_group_rejected() {
        let err = LogicalPlan::from_ast(
            &parse(
                "A = load '/a' as (x);
                 B = foreach A generate x, COUNT(A.x) + 1;
                 store B into '/o';",
            )
            .unwrap(),
        )
        .unwrap_err();
        // Aggregate calls nested in scalar expressions are not supported.
        assert!(!err.to_string().is_empty());
    }
}
