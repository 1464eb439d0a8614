//! Abstract syntax tree of the Pig Latin subset.
//!
//! The grammar covers what PigMix-style workloads need: LOAD, FOREACH ..
//! GENERATE (scalar and aggregate forms), FILTER, JOIN, GROUP, COGROUP,
//! DISTINCT, UNION, ORDER BY, LIMIT, SPLIT .. INTO, and STORE.

use restore_common::{FieldType, Value};

/// A full query: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub statements: Vec<Statement>,
}

/// One statement. Assignments bind an alias; STORE is a sink.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `alias = <relation-expression>;`
    Assign { alias: String, rel: RelExpr },
    /// `STORE alias INTO 'path';`
    Store { alias: String, path: String },
    /// `SPLIT alias INTO a IF cond, b IF cond, ...;` — Pig's branching
    /// statement; each branch behaves like a FILTER of the input.
    Split { input: String, branches: Vec<(String, AstExpr)> },
}

/// Relational expressions (right-hand side of an assignment).
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// `LOAD 'path' [USING name(...)] [AS (field[:type], ...)]`
    Load { path: String, schema: Vec<(String, FieldType)> },
    /// `FOREACH alias GENERATE item, ...`
    Foreach { input: String, items: Vec<GenItem> },
    /// `FILTER alias BY predicate`
    Filter { input: String, predicate: AstExpr },
    /// `JOIN a BY (k, ...), b BY (k, ...), ...`
    Join { inputs: Vec<(String, Vec<AstExpr>)> },
    /// `GROUP alias BY (k, ...)` or `GROUP alias ALL`
    Group { input: String, keys: Vec<AstExpr>, all: bool },
    /// `COGROUP a BY (k, ...), b BY (k, ...), ...`
    CoGroup { inputs: Vec<(String, Vec<AstExpr>)> },
    /// `DISTINCT alias`
    Distinct { input: String },
    /// `UNION a, b, ...`
    Union { inputs: Vec<String> },
    /// `ORDER alias BY field [ASC|DESC], ...`
    OrderBy { input: String, keys: Vec<(AstExpr, bool)> },
    /// `LIMIT alias n`
    Limit { input: String, n: u64 },
}

/// One item of a GENERATE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct GenItem {
    pub expr: AstExpr,
    /// `AS name` alias for the output field.
    pub rename: Option<String>,
}

/// Expressions as parsed (names unresolved).
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// Bare field name, or the special `group` after a GROUP.
    Field(String),
    /// `alias::field` (post-join disambiguation) — stored as one name.
    QualifiedField(String, String),
    /// Positional reference `$n`.
    Positional(usize),
    /// `bag_alias.field` — a field of a grouped bag (aggregate argument).
    BagField(String, String),
    /// Literal value.
    Lit(Value),
    /// Unary minus / NOT.
    Neg(Box<AstExpr>),
    Not(Box<AstExpr>),
    /// Binary arithmetic: + - * / %.
    Arith(Box<AstExpr>, char, Box<AstExpr>),
    /// Comparison: == != < <= > >=.
    Cmp(Box<AstExpr>, String, Box<AstExpr>),
    And(Box<AstExpr>, Box<AstExpr>),
    Or(Box<AstExpr>, Box<AstExpr>),
    /// `IS NULL` / `IS NOT NULL`.
    IsNull(Box<AstExpr>, bool),
    /// Function call: scalar (ROUND, CONCAT, ...) or aggregate
    /// (SUM, COUNT, AVG, MIN, MAX, COUNT_DISTINCT).
    Call(String, Vec<AstExpr>),
}
