//! Plan-driven execution: turning a [`CompiledJob`] into a runnable
//! [`JobSpec`] with interpreter-based `Mapper`/`Reducer` implementations.
//!
//! A job plan is split at its (single) blocking operator: everything
//! upstream runs in mappers as a push-based pipeline DAG; the blocking
//! operator and everything downstream run in reducers. Stores surface as
//! the job's main output or side outputs; edges into the blocking
//! operator become keyed shuffle emissions tagged with the join/cogroup
//! branch index.

use crate::expr::Expr;
use crate::mr_compiler::{CompiledJob, CompiledWorkflow};
use crate::physical::{AggItem, NodeId, PhysicalOp, PhysicalPlan};
use restore_common::codec::ColumnSet;
use restore_common::{Bag, Error, Result, Tuple, Value};
use restore_mapreduce::{
    Engine, JobInput, JobResult, JobSpec, MapContext, Mapper, MapperFactory, ReduceContext, Reducer,
};
use std::collections::HashMap;
use std::sync::Arc;

/// I/O layout of a compiled job, derived from its plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobIo {
    /// Input file paths, in Load-node order (= mapper tag order).
    pub inputs: Vec<String>,
    /// The job's main output path.
    pub main_output: String,
    /// Side output paths (injected Stores), in node order.
    pub side_outputs: Vec<String>,
}

/// Derive the I/O layout of a job plan: which Store is the main output
/// (a reduce-phase Store when the job has a shuffle, else the first
/// Store) and which are side outputs.
pub fn job_io(plan: &PhysicalPlan) -> Result<JobIo> {
    let loads = plan.loads();
    if loads.is_empty() {
        return Err(Error::Plan("job plan has no Load".into()));
    }
    let inputs = loads.iter().map(|&l| plan.path(l).to_string()).collect();

    let stores = plan.stores();
    if stores.is_empty() {
        return Err(Error::Plan("job plan has no Store".into()));
    }
    let blocking = find_blocking(plan)?;
    let reduce_side = reduce_side_set(plan, blocking);

    let main = stores.iter().copied().find(|s| reduce_side[s.index()]).unwrap_or(stores[0]);
    let main_output = plan.path(main).to_string();
    let side_outputs =
        stores.iter().filter(|&&s| s != main).map(|&s| plan.path(s).to_string()).collect();
    Ok(JobIo { inputs, main_output, side_outputs })
}

/// The job's unique blocking node, if any.
fn find_blocking(plan: &PhysicalPlan) -> Result<Option<NodeId>> {
    let blocking: Vec<NodeId> = plan.ids().filter(|&id| plan.op(id).is_blocking()).collect();
    match blocking.as_slice() {
        [] => Ok(None),
        [one] => Ok(Some(*one)),
        many => Err(Error::Plan(format!(
            "job plan has {} blocking operators; the MR compiler emits one per job",
            many.len()
        ))),
    }
}

/// Membership vector: node is in the reduce phase (blocking node itself
/// and its descendants).
fn reduce_side_set(plan: &PhysicalPlan, blocking: Option<NodeId>) -> Vec<bool> {
    let mut set = vec![false; plan.len()];
    let Some(b) = blocking else { return set };
    set[b.index()] = true;
    for id in plan.topo_order() {
        if plan.inputs(id).iter().any(|i| set[i.index()]) {
            set[id.index()] = true;
        }
    }
    set
}

/// The field positions of `load`'s records that the plan reads, and of a
/// bag among them the member fields: when every consumer, looking through
/// Split, is a Project or an Aggregate, a Project's columns and an
/// Aggregate's keys are read whole, and an aggregated bag column only for
/// the member fields its aggregates read
/// ([`AggFunc::field_read`](crate::expr::AggFunc::field_read)) unless
/// something reads it whole; `None` when any other operator sees whole
/// records. This is the one place the scan's column set is decided, and
/// it is decided from the plan as given, so a plan ReStore rewrote or
/// injected Stores into is pruned by the same rule. Plans, signatures and
/// the repository never carry it: it is a property of the compiled
/// programs, which are built against it ([`Compilation::scanned`]) and
/// hand it to the engine themselves ([`PlanMapperFactory`]).
fn columns_read(plan: &PhysicalPlan, load: NodeId) -> Option<ColumnSet> {
    let mut whole = Vec::new();
    let mut members = Vec::new();
    let mut pending = plan.consumers(load);
    while let Some(id) = pending.pop() {
        match plan.op(id) {
            PhysicalOp::Project { cols: read } => whole.extend_from_slice(read),
            PhysicalOp::Aggregate { items } => {
                for item in items {
                    match *item {
                        AggItem::Key(c) => whole.push(c),
                        AggItem::Agg { func, bag_col, field } => {
                            members.push((bag_col, func.field_read(field)))
                        }
                    }
                }
            }
            PhysicalOp::Split => pending.extend(plan.consumers(id)),
            _ => return None,
        }
    }
    Some(ColumnSet::with_members(whole, members))
}

/// Where column `col` of a Load's records sits in a row scanned with `set`.
fn at(set: &ColumnSet, col: usize) -> usize {
    set.index_of(col).expect("the scan set is the union of its readers' columns")
}

// ---------------------------------------------------------------------
// Push-based pipeline programs
// ---------------------------------------------------------------------

/// How a mapper emission builds its shuffle key.
#[derive(Debug, Clone)]
enum EmitKind {
    /// Key = projected key columns; drop records with null keys
    /// (inner-join semantics).
    JoinBranch { key_cols: Vec<usize> },
    /// Key = projected key columns; empty key list means GROUP ALL.
    GroupKey { key_cols: Vec<usize> },
    /// CoGroup branch: like join but null keys are kept.
    CoGroupBranch { key_cols: Vec<usize> },
    /// Key = the whole record (Distinct).
    WholeRecord,
    /// Constant key — all records meet in one reduce group
    /// (OrderBy/Limit run with a single reducer).
    Constant,
}

#[derive(Debug, Clone)]
enum StepKind {
    Project(Vec<usize>),
    MapExpr(Vec<Expr>),
    Filter(Expr),
    Flatten(usize),
    Aggregate(Vec<AggItem>),
    /// Split/Union pass-through.
    Pass,
    /// Write to side-output channel.
    SideStore(usize),
    /// Write to the job's main output.
    Output,
    /// Shuffle emission (map side only).
    Emit {
        branch: usize,
        kind: EmitKind,
    },
}

#[derive(Debug, Clone)]
struct Step {
    kind: StepKind,
    next: Vec<usize>,
}

/// A push-based interpreter program over plan steps.
#[derive(Debug, Clone, Default)]
struct Program {
    steps: Vec<Step>,
    /// Entry step lists per source (per input tag for map programs; a
    /// single entry list for reduce programs).
    entries: Vec<Vec<usize>>,
}

/// Anything a step can emit into — unifies map and reduce contexts.
trait Sink {
    fn output(&mut self, t: Tuple);
    fn side(&mut self, ch: usize, t: Tuple);
    fn emit(&mut self, branch: usize, key: Tuple, t: Tuple);
    /// `emit` under the key formed by `t`'s `key_cols` positions.
    fn emit_by(&mut self, branch: usize, key_cols: &[usize], t: &Tuple);
}

struct MapSink<'a>(&'a mut MapContext);

impl Sink for MapSink<'_> {
    fn output(&mut self, t: Tuple) {
        self.0.output(t);
    }
    fn side(&mut self, ch: usize, t: Tuple) {
        self.0.side(ch, t);
    }
    fn emit(&mut self, branch: usize, key: Tuple, t: Tuple) {
        self.0.emit(key, branch, t);
    }
    fn emit_by(&mut self, branch: usize, key_cols: &[usize], t: &Tuple) {
        self.0.emit_by(key_cols, branch, t);
    }
}

struct ReduceSink<'a>(&'a mut ReduceContext);

impl Sink for ReduceSink<'_> {
    fn output(&mut self, t: Tuple) {
        self.0.output(t);
    }
    fn side(&mut self, ch: usize, t: Tuple) {
        self.0.side(ch, t);
    }
    fn emit(&mut self, _branch: usize, _key: Tuple, _t: Tuple) {
        unreachable!("reduce programs never re-shuffle");
    }
    fn emit_by(&mut self, _branch: usize, _key_cols: &[usize], _t: &Tuple) {
        unreachable!("reduce programs never re-shuffle");
    }
}

impl Program {
    fn push(&self, step_idx: usize, t: Tuple, sink: &mut dyn Sink) -> Result<()> {
        let step = &self.steps[step_idx];
        match &step.kind {
            StepKind::Project(cols) => self.fanout(step_idx, t.project(cols), sink),
            StepKind::MapExpr(exprs) => {
                let mut out = Tuple::new();
                for e in exprs {
                    out.push(e.eval(&t)?);
                }
                self.fanout(step_idx, out, sink)
            }
            StepKind::Filter(pred) => {
                if pred.eval(&t)?.is_truthy() {
                    self.fanout(step_idx, t, sink)?;
                }
                Ok(())
            }
            StepKind::Flatten(bag_col) => {
                // Take the bag out of the row: its tuples move into the
                // output rows, and the other fields are cloned once per row
                // actually emitted.
                let Tuple(mut fields) = t;
                let slot = fields.get_mut(*bag_col).map(|v| std::mem::replace(v, Value::Null));
                let bag = match slot {
                    Some(Value::Bag(b)) => b,
                    Some(Value::Null) | None => Bag::default(),
                    Some(other) => {
                        return Err(Error::Eval(format!("FLATTEN of non-bag value {other:?}")))
                    }
                };
                let mut members = bag.into_rows();
                while let Some(inner) = members.next_row() {
                    let mut row = Vec::with_capacity(fields.len() - 1 + inner.len());
                    row.extend_from_slice(&fields[..*bag_col]);
                    row.extend(inner);
                    row.extend_from_slice(&fields[*bag_col + 1..]);
                    self.fanout(step_idx, Tuple::from_values(row), sink)?;
                }
                Ok(())
            }
            StepKind::Aggregate(items) => {
                let mut out = Tuple::new();
                for item in items {
                    match item {
                        AggItem::Key(c) => out.push(t.get(*c).clone()),
                        AggItem::Agg { func, bag_col, field } => {
                            let empty = Bag::default();
                            let bag = match t.get(*bag_col) {
                                Value::Bag(b) => b,
                                Value::Null => &empty,
                                other => {
                                    return Err(Error::Eval(format!(
                                        "aggregate over non-bag {other:?}"
                                    )))
                                }
                            };
                            out.push(func.apply(bag, *field));
                        }
                    }
                }
                self.fanout(step_idx, out, sink)
            }
            StepKind::Pass => self.fanout(step_idx, t, sink),
            StepKind::SideStore(ch) => {
                sink.side(*ch, t);
                Ok(())
            }
            StepKind::Output => {
                sink.output(t);
                Ok(())
            }
            StepKind::Emit { branch, kind } => {
                match kind {
                    EmitKind::JoinBranch { key_cols } => {
                        if key_cols.iter().any(|&c| t.get(c).is_null()) {
                            return Ok(()); // inner join drops null keys
                        }
                        sink.emit_by(*branch, key_cols, &t);
                    }
                    EmitKind::CoGroupBranch { key_cols } => sink.emit_by(*branch, key_cols, &t),
                    EmitKind::GroupKey { key_cols } if key_cols.is_empty() => {
                        sink.emit(*branch, Tuple::from_values(vec![Value::str("all")]), t);
                    }
                    EmitKind::GroupKey { key_cols } => sink.emit_by(*branch, key_cols, &t),
                    EmitKind::WholeRecord => {
                        sink.emit(*branch, t, Tuple::new());
                    }
                    EmitKind::Constant => {
                        sink.emit(*branch, Tuple::new(), t);
                    }
                }
                Ok(())
            }
        }
    }

    fn fanout(&self, step_idx: usize, t: Tuple, sink: &mut dyn Sink) -> Result<()> {
        self.push_all(&self.steps[step_idx].next, t, sink)
    }

    fn push_entries(&self, source: usize, t: Tuple, sink: &mut dyn Sink) -> Result<()> {
        self.push_all(&self.entries[source], t, sink)
    }

    /// Push `t` into each of `steps`: a copy for every consumer but the
    /// last, which takes the row itself.
    fn push_all(&self, steps: &[usize], t: Tuple, sink: &mut dyn Sink) -> Result<()> {
        let Some((&last, rest)) = steps.split_last() else { return Ok(()) };
        for &step in rest {
            self.push(step, t.clone(), sink)?;
        }
        self.push(last, t, sink)
    }
}

// ---------------------------------------------------------------------
// Program construction
// ---------------------------------------------------------------------

/// What the reduce phase does with each key group before pushing rows
/// into its pipeline.
#[derive(Debug, Clone)]
enum BlockKind {
    /// Cross product of branch bags, output = concatenation.
    Join { n_branches: usize },
    /// (key fields..., bag).
    Group,
    /// (key fields..., bag per branch).
    CoGroup { n_branches: usize },
    /// Emit the key once.
    Distinct,
    /// Sort the single constant-key group.
    OrderBy { keys: Vec<(usize, bool)> },
    /// First n of the single constant-key group.
    Limit { n: u64 },
}

/// Everything the interpreter needs, shared by all tasks of a job.
struct CompiledPrograms {
    map: Program,
    reduce: Option<(BlockKind, Program)>,
    shuffle_tags: usize,
    /// Per input (= map entry list): the layout of the rows `map` was
    /// compiled to receive — the positions [`columns_read`] found, or
    /// `None` for whole records.
    scan_columns: Vec<Option<ColumnSet>>,
}

struct Compilation<'a> {
    plan: &'a PhysicalPlan,
    io: &'a JobIo,
    reduce_side: Vec<bool>,
    blocking: Option<NodeId>,
    /// Per Load, in `plan.loads()` order.
    scan_columns: Vec<Option<ColumnSet>>,
}

impl<'a> Compilation<'a> {
    /// The scan's column set when the rows reaching `id` come from a
    /// pruned Load (directly or through Splits), which then hold only the
    /// set's columns: a position `c` of the plan is `index_of(c)` there.
    fn scanned(&self, id: NodeId) -> Option<&ColumnSet> {
        let mut source = self.plan.inputs(id)[0];
        while matches!(self.plan.op(source), PhysicalOp::Split) {
            source = self.plan.inputs(source)[0];
        }
        let load = self.plan.loads().iter().position(|&l| l == source)?;
        self.scan_columns[load].as_ref()
    }

    /// The Project at `id`, compiled against the rows that reach it: a
    /// Project that lists the whole scan set in order, the usual
    /// `generate user, est_revenue` over `{0,3}`, has nothing left to do.
    fn project_step(&self, id: NodeId, cols: &[usize]) -> StepKind {
        let Some(set) = self.scanned(id) else {
            return StepKind::Project(cols.to_vec());
        };
        let narrow: Vec<usize> = cols.iter().map(|&c| at(set, c)).collect();
        if narrow.iter().copied().eq(0..set.as_slice().len()) {
            StepKind::Pass
        } else {
            StepKind::Project(narrow)
        }
    }

    /// The Aggregate at `id`, compiled against the rows that reach it: a
    /// key or bag column is its index in the scan set, and a member field
    /// of a bag read for its members is that field's index among them.
    fn aggregate_step(&self, id: NodeId, items: &[AggItem]) -> StepKind {
        let Some(set) = self.scanned(id) else {
            return StepKind::Aggregate(items.to_vec());
        };
        let narrow = items
            .iter()
            .map(|item| match *item {
                AggItem::Key(c) => AggItem::Key(at(set, c)),
                AggItem::Agg { func, bag_col, field } => {
                    let bag_at = at(set, bag_col);
                    let field = match set.members(bag_at) {
                        None => field,
                        Some(read) => func.field_read(field).map(|f| {
                            read.binary_search(&f).expect("the scan set holds its readers' fields")
                        }),
                    };
                    AggItem::Agg { func, bag_col: bag_at, field }
                }
            })
            .collect();
        StepKind::Aggregate(narrow)
    }

    /// Step kind for a non-Load, non-blocking node.
    fn step_kind(&self, id: NodeId) -> Result<StepKind> {
        Ok(match self.plan.op(id) {
            PhysicalOp::Project { cols } => self.project_step(id, cols),
            PhysicalOp::MapExpr { exprs } => StepKind::MapExpr(exprs.clone()),
            PhysicalOp::Filter { pred } => StepKind::Filter(pred.clone()),
            PhysicalOp::Flatten { bag_col } => StepKind::Flatten(*bag_col),
            PhysicalOp::Aggregate { items } => self.aggregate_step(id, items),
            PhysicalOp::Split | PhysicalOp::Union => StepKind::Pass,
            PhysicalOp::Store { path } => {
                if *path == self.io.main_output {
                    StepKind::Output
                } else {
                    let ch = self
                        .io
                        .side_outputs
                        .iter()
                        .position(|p| p == path)
                        .ok_or_else(|| Error::Plan(format!("unregistered store {path:?}")))?;
                    StepKind::SideStore(ch)
                }
            }
            other => {
                return Err(Error::Plan(format!(
                    "operator {} cannot appear in a pipeline",
                    other.name()
                )))
            }
        })
    }

    /// Emit kind for an edge into the blocking node at branch `branch`.
    fn emit_kind(&self, branch: usize) -> EmitKind {
        match self.plan.op(self.blocking.expect("blocking")) {
            PhysicalOp::Join { keys } => EmitKind::JoinBranch { key_cols: keys[branch].clone() },
            PhysicalOp::CoGroup { keys } => {
                EmitKind::CoGroupBranch { key_cols: keys[branch].clone() }
            }
            PhysicalOp::Group { keys } => EmitKind::GroupKey { key_cols: keys.clone() },
            PhysicalOp::Distinct => EmitKind::WholeRecord,
            PhysicalOp::OrderBy { .. } | PhysicalOp::Limit { .. } => EmitKind::Constant,
            other => unreachable!("{} is not blocking", other.name()),
        }
    }

    /// Build the map program (phase = !reduce_side, excluding Loads) and
    /// the reduce program (descendants of the blocking node).
    fn compile(self) -> Result<CompiledPrograms> {
        let mut map = Program::default();
        let mut reduce = Program::default();
        // plan node -> step index, per program.
        let mut map_step: HashMap<NodeId, usize> = HashMap::new();
        let mut reduce_step: HashMap<NodeId, usize> = HashMap::new();

        // Create steps for every non-Load, non-blocking node.
        for id in self.plan.ids() {
            if matches!(self.plan.op(id), PhysicalOp::Load { .. }) {
                continue;
            }
            if Some(id) == self.blocking {
                continue;
            }
            let kind = self.step_kind(id)?;
            if self.reduce_side[id.index()] {
                reduce.steps.push(Step { kind, next: vec![] });
                reduce_step.insert(id, reduce.steps.len() - 1);
            } else {
                map.steps.push(Step { kind, next: vec![] });
                map_step.insert(id, map.steps.len() - 1);
            }
        }

        // Emit steps: one per (producer -> blocking branch) edge position.
        // Keyed by (producer, branch).
        let mut emit_step: HashMap<(NodeId, usize), usize> = HashMap::new();
        if let Some(b) = self.blocking {
            for (branch, &src) in self.plan.inputs(b).iter().enumerate() {
                let kind = StepKind::Emit { branch, kind: self.emit_kind(branch) };
                map.steps.push(Step { kind, next: vec![] });
                emit_step.insert((src, branch), map.steps.len() - 1);
            }
        }

        // Wire edges: for each node, its successors' steps.
        let successor_steps = |id: NodeId| -> Vec<usize> {
            let mut out = Vec::new();
            if let Some(b) = self.blocking {
                for (branch, &src) in self.plan.inputs(b).iter().enumerate() {
                    if src == id {
                        out.push(emit_step[&(id, branch)]);
                    }
                }
            }
            for c in self.plan.consumers(id) {
                if Some(c) == self.blocking {
                    continue; // handled via emit steps
                }
                if self.reduce_side[id.index()] {
                    out.push(reduce_step[&c]);
                } else if !self.reduce_side[c.index()] {
                    out.push(map_step[&c]);
                }
                // A map-side node never feeds a reduce-side node directly
                // except through the blocking op (by construction).
            }
            out
        };

        for (&id, &s) in &map_step {
            map.steps[s].next = successor_steps(id);
        }
        for (&id, &s) in &reduce_step {
            reduce.steps[s].next = successor_steps(id);
        }

        // Map entries: per Load node, its successors.
        for &l in &self.plan.loads() {
            map.entries.push(successor_steps(l));
        }

        // Reduce program entries: the blocking node's successors.
        let reduce_part = match self.blocking {
            None => None,
            Some(b) => {
                reduce
                    .entries
                    .push(self.plan.consumers(b).into_iter().map(|c| reduce_step[&c]).collect());
                let kind = match self.plan.op(b) {
                    PhysicalOp::Join { keys } => BlockKind::Join { n_branches: keys.len() },
                    PhysicalOp::Group { .. } => BlockKind::Group,
                    PhysicalOp::CoGroup { keys } => BlockKind::CoGroup { n_branches: keys.len() },
                    PhysicalOp::Distinct => BlockKind::Distinct,
                    PhysicalOp::OrderBy { keys } => BlockKind::OrderBy { keys: keys.clone() },
                    PhysicalOp::Limit { n } => BlockKind::Limit { n: *n },
                    other => unreachable!("{} is not blocking", other.name()),
                };
                Some((kind, reduce))
            }
        };

        let shuffle_tags = match self.blocking {
            Some(b) => self.plan.inputs(b).len(),
            None => 1,
        };
        let scan_columns = self.scan_columns;
        Ok(CompiledPrograms { map, reduce: reduce_part, shuffle_tags, scan_columns })
    }
}

// ---------------------------------------------------------------------
// Mapper / Reducer implementations
// ---------------------------------------------------------------------

/// Makes the job's mappers, and tells the engine which layout their
/// program was compiled against.
struct PlanMapperFactory {
    programs: Arc<CompiledPrograms>,
}

impl MapperFactory for PlanMapperFactory {
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(PlanMapper { programs: Arc::clone(&self.programs) })
    }

    fn columns(&self, tag: usize) -> Option<&ColumnSet> {
        self.programs.scan_columns[tag].as_ref()
    }
}

struct PlanMapper {
    programs: Arc<CompiledPrograms>,
}

impl Mapper for PlanMapper {
    fn map(&mut self, tag: usize, record: Tuple, ctx: &mut MapContext) -> Result<()> {
        self.programs.map.push_entries(tag, record, &mut MapSink(ctx))
    }
}

struct PlanReducer {
    programs: Arc<CompiledPrograms>,
    emitted: u64,
}

impl Reducer for PlanReducer {
    fn reduce(&mut self, key: Tuple, bags: &mut [Bag], ctx: &mut ReduceContext) -> Result<()> {
        let (kind, prog) = self.programs.reduce.as_ref().expect("reducer without program");
        let mut sink = ReduceSink(ctx);
        match kind {
            BlockKind::Join { n_branches } => {
                // Cross product across branches; empty branch = no output.
                if (0..*n_branches).any(|b| bags[b].is_empty()) {
                    return Ok(());
                }
                let mut row_stack = vec![0usize; *n_branches];
                loop {
                    let mut row = Vec::new();
                    for b in 0..*n_branches {
                        row.extend_from_slice(bags[b].row(row_stack[b]));
                    }
                    prog.push_entries(0, Tuple::from_values(row), &mut sink)?;
                    // Odometer increment.
                    let mut b = *n_branches;
                    loop {
                        if b == 0 {
                            return Ok(());
                        }
                        b -= 1;
                        row_stack[b] += 1;
                        if row_stack[b] < bags[b].len() {
                            break;
                        }
                        row_stack[b] = 0;
                    }
                }
            }
            BlockKind::Group => {
                let Tuple(mut row) = key;
                row.push(Value::Bag(std::mem::take(&mut bags[0])));
                prog.push_entries(0, Tuple::from_values(row), &mut sink)
            }
            BlockKind::CoGroup { n_branches } => {
                let Tuple(mut row) = key;
                for bag in bags.iter_mut().take(*n_branches) {
                    row.push(Value::Bag(std::mem::take(bag)));
                }
                prog.push_entries(0, Tuple::from_values(row), &mut sink)
            }
            BlockKind::Distinct => prog.push_entries(0, key, &mut sink),
            BlockKind::OrderBy { keys } => {
                let mut rows = tuples(std::mem::take(&mut bags[0]), usize::MAX);
                rows.sort_by(|a, b| {
                    for (col, asc) in keys {
                        let o = a.get(*col).cmp(b.get(*col));
                        let o = if *asc { o } else { o.reverse() };
                        if o != std::cmp::Ordering::Equal {
                            return o;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                for r in rows {
                    prog.push_entries(0, r, &mut sink)?;
                }
                Ok(())
            }
            BlockKind::Limit { n } => {
                let left = n.saturating_sub(self.emitted);
                let rows = tuples(
                    std::mem::take(&mut bags[0]),
                    usize::try_from(left).unwrap_or(usize::MAX),
                );
                self.emitted += rows.len() as u64;
                for r in rows {
                    prog.push_entries(0, r, &mut sink)?;
                }
                Ok(())
            }
        }
    }
}

/// The first `limit` members of `bag`, each moved into a tuple of its own.
fn tuples(bag: Bag, limit: usize) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(bag.len().min(limit));
    let mut members = bag.into_rows();
    while out.len() < limit {
        let Some(fields) = members.next_row() else { break };
        out.push(fields.collect());
    }
    out
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Build a runnable [`JobSpec`] from a compiled job: its plan, with the
/// job's inter-job temporaries written typed.
pub fn job_spec(job: &CompiledJob, name: &str) -> Result<JobSpec> {
    let mut spec = job_spec_for_plan(&job.plan, name)?;
    spec.typed_outputs = job.typed_outputs.clone();
    Ok(spec)
}

/// Run every job of `wf` as compiled, one at a time in dependency order,
/// without ReStore: job `i` is named `{name}-job{i}`. The outputs are
/// written in the formats a ReStore session writes them in, so the final
/// bytes are the same.
pub fn run_workflow(eng: &Engine, wf: &CompiledWorkflow, name: &str) -> Result<Vec<JobResult>> {
    wf.topo_order()?
        .into_iter()
        .map(|idx| eng.run(&job_spec(&wf.jobs[idx], &format!("{name}-job{idx}"))?))
        .collect()
}

/// Build a runnable [`JobSpec`] directly from a job plan, every output
/// text (used by ReStore after it has rewritten the plan, which then says
/// which outputs are typed).
pub fn job_spec_for_plan(plan: &PhysicalPlan, name: &str) -> Result<JobSpec> {
    let io = job_io(plan)?;
    let blocking = find_blocking(plan)?;
    let reduce_side = reduce_side_set(plan, blocking);
    let scan_columns = plan.loads().into_iter().map(|load| columns_read(plan, load)).collect();
    let comp =
        Compilation { plan, io: &io, reduce_side: reduce_side.clone(), blocking, scan_columns };
    let programs = Arc::new(comp.compile()?);

    // Per-record CPU weights for the cost model.
    let mut cpu_map = 0.0;
    let mut cpu_reduce = 0.0;
    for id in plan.ids() {
        let w = plan.op(id).cost_weight();
        if reduce_side[id.index()] {
            cpu_reduce += w;
        } else {
            cpu_map += w;
        }
    }

    let mapper = Arc::new(PlanMapperFactory { programs: Arc::clone(&programs) });
    let reducer = match blocking {
        None => None,
        Some(_) => {
            let red_programs = Arc::clone(&programs);
            Some(Arc::new(move || {
                Box::new(PlanReducer { programs: Arc::clone(&red_programs), emitted: 0 })
                    as Box<dyn Reducer>
            }) as Arc<dyn restore_mapreduce::ReducerFactory>)
        }
    };

    let inputs = io.inputs.iter().map(JobInput::new).collect();
    let mut spec = JobSpec::new(name, inputs, io.main_output.clone(), mapper, reducer);
    spec.side_outputs = io.side_outputs.clone();
    spec.shuffle_tags = Some(programs.shuffle_tags);
    spec.cpu_weight_map = cpu_map.max(0.05);
    spec.cpu_weight_reduce = cpu_reduce.max(0.05);
    // Global-order operators need a single reducer.
    if let Some(b) = blocking {
        if matches!(plan.op(b), PhysicalOp::OrderBy { .. } | PhysicalOp::Limit { .. }) {
            spec.reduce_tasks = Some(1);
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use restore_common::{codec, tuple};
    use restore_dfs::{Dfs, DfsConfig};
    use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

    fn test_engine() -> Engine {
        let dfs =
            Dfs::new(DfsConfig { nodes: 4, block_size: 256, replication: 2, node_capacity: None });
        Engine::new(
            dfs,
            ClusterConfig::default(),
            EngineConfig { worker_threads: 4, default_reduce_tasks: 3 },
        )
    }

    fn write(dfs: &Dfs, path: &str, rows: &[Tuple]) {
        dfs.write_all(path, &codec::encode_all(rows)).unwrap();
    }

    fn read_sorted(dfs: &Dfs, path: &str) -> Vec<Tuple> {
        let mut t = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
        t.sort();
        t
    }

    fn run_query(eng: &Engine, q: &str) {
        run_workflow(eng, &compile(q, "/tmpwf").unwrap(), "t").unwrap();
    }

    #[test]
    fn join_query_end_to_end() {
        let eng = test_engine();
        write(
            eng.dfs(),
            "/pv",
            &[
                tuple!["ann", 1, 10.0, "i", "l"],
                tuple!["bob", 2, 20.0, "i", "l"],
                tuple!["cat", 3, 30.0, "i", "l"],
                tuple!["ann", 4, 40.0, "i", "l"],
            ],
        );
        write(eng.dfs(), "/users", &[tuple!["ann", "p", "a", "c"], tuple!["cat", "p", "a", "c"]]);
        run_query(
            &eng,
            "A = load '/pv' as (user, ts:int, rev:double, info, links);
             B = foreach A generate user, rev;
             alpha = load '/users' as (name, phone, addr, city);
             beta = foreach alpha generate name;
             C = join beta by name, B by user;
             store C into '/out/q1';",
        );
        assert_eq!(
            read_sorted(eng.dfs(), "/out/q1"),
            vec![
                tuple!["ann", "ann", 10.0],
                tuple!["ann", "ann", 40.0],
                tuple!["cat", "cat", 30.0],
            ]
        );
    }

    #[test]
    fn group_sum_two_job_workflow() {
        let eng = test_engine();
        write(
            eng.dfs(),
            "/pv",
            &[
                tuple!["ann", 1, 10.5, "i", "l"],
                tuple!["bob", 2, 20.0, "i", "l"],
                tuple!["ann", 3, 4.5, "i", "l"],
            ],
        );
        write(eng.dfs(), "/users", &[tuple!["ann", "p", "a", "c"], tuple!["bob", "p", "a", "c"]]);
        run_query(
            &eng,
            "A = load '/pv' as (user, ts:int, rev:double, info, links);
             B = foreach A generate user, rev;
             alpha = load '/users' as (name, phone, addr, city);
             beta = foreach alpha generate name;
             C = join beta by name, B by user;
             D = group C by $0;
             E = foreach D generate group, SUM(C.rev);
             store E into '/out/q2';",
        );
        assert_eq!(
            read_sorted(eng.dfs(), "/out/q2"),
            vec![tuple!["ann", 15.0], tuple!["bob", 20.0]]
        );
    }

    #[test]
    fn distinct_union_three_job_workflow() {
        let eng = test_engine();
        write(eng.dfs(), "/a", &[tuple!["x", 1], tuple!["y", 2], tuple!["x", 3]]);
        write(eng.dfs(), "/b", &[tuple!["y", 4], tuple!["z", 5]]);
        run_query(
            &eng,
            "A = load '/a' as (u, t);
             B = foreach A generate u;
             C = distinct B;
             D = load '/b' as (u, t);
             E = foreach D generate u;
             F = distinct E;
             G = union C, F;
             H = distinct G;
             store H into '/out/l11';",
        );
        assert_eq!(read_sorted(eng.dfs(), "/out/l11"), vec![tuple!["x"], tuple!["y"], tuple!["z"]]);
    }

    #[test]
    fn group_all_count() {
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple![1], tuple![2], tuple![3]]);
        run_query(
            &eng,
            "A = load '/d' as (x:int);
             G = group A all;
             C = foreach G generate COUNT(A);
             store C into '/out/c';",
        );
        assert_eq!(read_sorted(eng.dfs(), "/out/c"), vec![tuple![3]]);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple![3, "c"], tuple![1, "a"], tuple![2, "b"]]);
        run_query(
            &eng,
            "A = load '/d' as (n:int, s);
             B = order A by n desc;
             store B into '/out/sorted';",
        );
        // Order preserved in file (single reducer, no resort).
        let rows = codec::decode_all(&eng.dfs().read_all("/out/sorted").unwrap()).unwrap();
        assert_eq!(rows, vec![tuple![3, "c"], tuple![2, "b"], tuple![1, "a"]]);

        run_query(
            &eng,
            "A = load '/d' as (n:int, s);
             B = order A by n;
             C = limit B 2;
             store C into '/out/limited';",
        );
        let rows = codec::decode_all(&eng.dfs().read_all("/out/limited").unwrap()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], tuple![1, "a"]);
    }

    #[test]
    fn cogroup_flatten_anti_join() {
        // L5-style: page views by users NOT in the power_users table.
        let eng = test_engine();
        write(eng.dfs(), "/pv", &[tuple!["ann", 1], tuple!["bob", 2], tuple!["cat", 3]]);
        write(eng.dfs(), "/power", &[tuple!["ann"], tuple!["cat"]]);
        run_query(
            &eng,
            "A = load '/pv' as (user, ts:int);
             P = load '/power' as (name);
             C = cogroup A by user, P by name;
             D = filter C by STRLEN(P) == 0;
             E = foreach D generate FLATTEN(A);
             store E into '/out/anti';",
        );
        assert_eq!(read_sorted(eng.dfs(), "/out/anti"), vec![tuple!["bob", 2]]);
    }

    #[test]
    fn stored_group_output_round_trips_through_dfs() {
        // Group output (bags!) must survive Store + Load — the mechanism
        // ReStore relies on to reuse Group sub-jobs.
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple!["a", 1], tuple!["a", 2], tuple!["b", 5]]);
        run_query(
            &eng,
            "A = load '/d' as (u, v:int);
             G = group A by u;
             store G into '/out/grouped';",
        );
        // Now aggregate from the stored grouped data (map-only job!).
        run_query(
            &eng,
            "G = load '/out/grouped' as (grp, A:bag);
             S = foreach G generate grp, COUNT(A);
             store S into '/out/counts';",
        );
        assert_eq!(read_sorted(eng.dfs(), "/out/counts"), vec![tuple!["a", 2], tuple!["b", 1]]);
    }

    #[test]
    fn self_join_fan_out() {
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple!["a", "b"], tuple!["b", "c"]]);
        run_query(
            &eng,
            "A = load '/d' as (x, y);
             L = foreach A generate x;
             R = foreach A generate y;
             J = join L by x, R by y;
             store J into '/out/self';",
        );
        // 'b' appears as x in row 2 and as y in row 1.
        assert_eq!(read_sorted(eng.dfs(), "/out/self"), vec![tuple!["b", "b"]]);
    }

    #[test]
    fn filtered_scan_map_only() {
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple![1, "a"], tuple![5, "b"], tuple![9, "c"]]);
        run_query(
            &eng,
            "A = load '/d' as (n:int, s);
             B = filter A by n >= 5;
             store B into '/out/f';",
        );
        assert_eq!(read_sorted(eng.dfs(), "/out/f"), vec![tuple![5, "b"], tuple![9, "c"]]);
    }

    #[test]
    fn job_io_identifies_main_and_side_stores() {
        let mut plan = PhysicalPlan::new();
        let l = plan.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
        let split = plan.add(PhysicalOp::Split, vec![l]);
        let _side = plan.add(PhysicalOp::Store { path: "/side".into() }, vec![split]);
        let g = plan.add(PhysicalOp::Group { keys: vec![0] }, vec![split]);
        let _main = plan.add(PhysicalOp::Store { path: "/main".into() }, vec![g]);
        let io = job_io(&plan).unwrap();
        assert_eq!(io.main_output, "/main");
        assert_eq!(io.side_outputs, vec!["/side".to_string()]);
        assert_eq!(io.inputs, vec!["/in".to_string()]);
    }

    #[test]
    fn side_store_in_map_phase_of_shuffle_job() {
        // Load -> Split -> (Store side, Group -> Store main): the ReStore
        // sub-job materialization shape.
        let eng = test_engine();
        write(eng.dfs(), "/d", &[tuple!["a", 1], tuple!["b", 2]]);
        let mut plan = PhysicalPlan::new();
        let l = plan.add(PhysicalOp::Load { path: "/d".into() }, vec![]);
        let p = plan.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let split = plan.add(PhysicalOp::Split, vec![p]);
        let _side = plan.add(PhysicalOp::Store { path: "/side/proj".into() }, vec![split]);
        let g = plan.add(PhysicalOp::Group { keys: vec![0] }, vec![split]);
        let agg = plan.add(
            PhysicalOp::Aggregate {
                items: vec![
                    AggItem::Key(0),
                    AggItem::Agg { func: crate::expr::AggFunc::Count, bag_col: 1, field: None },
                ],
            },
            vec![g],
        );
        let _main = plan.add(PhysicalOp::Store { path: "/out/main".into() }, vec![agg]);
        let spec = job_spec_for_plan(&plan, "side-test").unwrap();
        let res = eng.run(&spec).unwrap();
        assert_eq!(res.counters.side_output_bytes.len(), 1);
        assert!(res.counters.map_side_bytes > 0);
        assert_eq!(read_sorted(eng.dfs(), "/side/proj"), vec![tuple!["a"], tuple!["b"]]);
        assert_eq!(read_sorted(eng.dfs(), "/out/main"), vec![tuple!["a", 1], tuple!["b", 1]]);
    }
}
