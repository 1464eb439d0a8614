//! MapReduce compilation: segmenting a query's physical plan into a
//! workflow of per-job plans.
//!
//! "The reason for having a workflow of MapReduce jobs and not just one
//! MapReduce job is that some physical operators such as Join and Group
//! need to be divided between a mapper stage and a reducer stage.
//! Consequently, when more than one of these physical operators exist in
//! a query execution plan, each one of them has to be embedded in a
//! separate MapReduce job." (§2)
//!
//! Each produced [`CompiledJob`] owns a self-contained [`PhysicalPlan`]
//! whose leaves are Loads and whose roots are Stores — exactly the object
//! ReStore's repository stores and matches. Jobs communicate through
//! temporary DFS files injected at the boundaries; the `MapReduce
//! optimizer` step of Pig (merging pipelinable fragments into one job) is
//! realized by growing fragments greedily and merging map-side fragments
//! at multi-input operators.

use crate::physical::{NodeId, PhysicalOp, PhysicalPlan};
use restore_common::{Error, Result};
use std::collections::{BTreeSet, HashMap};

/// One MapReduce job: its physical plan, workflow dependencies, and which
/// of its Stores are written typed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledJob {
    pub plan: PhysicalPlan,
    /// Indices of jobs this one depends on.
    pub deps: Vec<usize>,
    /// The Stores of `plan` that are inter-job temporaries (`tmp-N`): a
    /// later job of the workflow Loads them, so they are written in the
    /// typed stored format ([`restore_mapreduce::JobSpec::typed_outputs`])
    /// whoever runs the job. Every other Store is a user's, and text.
    pub typed_outputs: Vec<String>,
}

/// A compiled workflow of MapReduce jobs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompiledWorkflow {
    pub jobs: Vec<CompiledJob>,
}

impl CompiledWorkflow {
    /// Paths of the temporary inter-job files, job by job: the jobs'
    /// typed outputs (deleted after execution by a plain Pig; kept and
    /// registered by ReStore).
    pub fn tmp_paths(&self) -> impl Iterator<Item = &String> {
        self.jobs.iter().flat_map(|j| &j.typed_outputs)
    }

    /// `deps[i]` = the jobs job `i` waits for: the shape
    /// [`restore_mapreduce::workflow`]'s DAG functions take.
    pub fn deps(&self) -> Vec<&[usize]> {
        self.jobs.iter().map(|j| j.deps.as_slice()).collect()
    }

    /// Dependency waves ([`restore_mapreduce::workflow::waves`]): the
    /// jobs of one wave are mutually independent and safe to execute
    /// concurrently.
    pub fn waves(&self) -> Result<Vec<Vec<usize>>> {
        restore_mapreduce::workflow::waves(&self.deps())
    }

    /// A topological order of the jobs: the waves flattened.
    pub fn topo_order(&self) -> Result<Vec<usize>> {
        Ok(self.waves()?.into_iter().flatten().collect())
    }

    /// Every DFS path this workflow reads and writes, across all of its
    /// jobs. Inter-job temporaries appear in both sets (one job writes
    /// them, a later job reads them). A cross-workflow scheduler uses
    /// these sets to decide whether two queued workflows may overlap:
    /// disjoint footprints cannot observe each other's files.
    pub fn io_path_sets(&self) -> WorkflowIoPaths {
        let mut io = WorkflowIoPaths::default();
        for job in &self.jobs {
            let path = |id| job.plan.path(id).to_string();
            io.reads.extend(job.plan.loads().into_iter().map(path));
            io.writes.extend(job.plan.stores().into_iter().map(path));
        }
        io
    }
}

/// The DFS footprint of a compiled workflow (see
/// [`CompiledWorkflow::io_path_sets`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkflowIoPaths {
    /// Paths some job of the workflow Loads.
    pub reads: BTreeSet<String>,
    /// Paths some job of the workflow Stores (including temporaries).
    pub writes: BTreeSet<String>,
}

impl WorkflowIoPaths {
    /// True when neither footprint writes a path the other reads or
    /// writes. Two workflows with disjoint footprints are free to execute
    /// concurrently in any order.
    pub fn disjoint(&self, other: &WorkflowIoPaths) -> bool {
        self.writes.is_disjoint(&other.writes)
            && self.writes.is_disjoint(&other.reads)
            && self.reads.is_disjoint(&other.writes)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Map,
    Reduce,
}

/// Merge Load nodes with identical paths (one scan feeds all consumers,
/// like Pig's shared-scan multi-query optimization) and drop the orphans.
fn dedupe_loads(plan: &mut PhysicalPlan) {
    // A job reads a handful of files: a linear scan beats hashing paths.
    let mut rewires: Vec<(NodeId, NodeId)> = Vec::new();
    for l in plan.ids() {
        if let PhysicalOp::Load { .. } = plan.op(l) {
            if let Some(first) = plan.ids().take(l.index()).find(|&f| plan.op(f) == plan.op(l)) {
                rewires.push((l, first));
            }
        }
    }
    if rewires.is_empty() {
        return;
    }
    for id in (0..plan.len() as u32).map(NodeId) {
        for k in 0..plan.inputs(id).len() {
            let cur = plan.inputs(id)[k];
            if let Some(&(_, to)) = rewires.iter().find(|(from, _)| *from == cur) {
                plan.node_mut(id).inputs[k] = to;
            }
        }
    }
    plan.gc();
}

#[derive(Default)]
struct Frag {
    plan: PhysicalPlan,
    has_reduce: bool,
    deps: BTreeSet<usize>,
    /// query-node → node within this fragment's plan.
    node_map: HashMap<NodeId, NodeId>,
    /// The tmp paths this fragment Stores.
    tmps: Vec<String>,
    alive: bool,
}

impl Frag {
    fn new() -> Self {
        Frag { alive: true, ..Frag::default() }
    }
}

/// Where a consumer finds its input.
enum BranchSrc {
    /// A base file (query-level Load node).
    File(NodeId),
    /// Produced by a fragment at a phase.
    Frag(usize, Phase),
}

struct Compiler<'a> {
    query: &'a PhysicalPlan,
    frags: Vec<Frag>,
    redirect: Vec<usize>,
    /// query node → (fragment, phase), by query node id. Loads are not
    /// tracked here.
    frag_of: Vec<Option<(usize, Phase)>>,
    /// query node → tmp path already materializing it (one entry per
    /// tmp, so its length numbers the next).
    closed: HashMap<NodeId, (String, usize)>,
    out_prefix: String,
}

/// Compile a query physical plan into a workflow of job plans.
pub fn compile_plan(query: &PhysicalPlan, out_prefix: &str) -> Result<CompiledWorkflow> {
    if query.stores().is_empty() {
        return Err(Error::Plan("physical plan has no Store".into()));
    }
    let mut c = Compiler {
        query,
        frags: Vec::new(),
        redirect: Vec::new(),
        frag_of: vec![None; query.len()],
        closed: HashMap::new(),
        out_prefix: out_prefix.to_string(),
    };
    for q in query.topo_order() {
        c.process(q)?;
    }
    c.finish()
}

impl<'a> Compiler<'a> {
    fn resolve(&self, mut f: usize) -> usize {
        while self.redirect[f] != f {
            f = self.redirect[f];
        }
        f
    }

    fn new_frag(&mut self) -> usize {
        self.frags.push(Frag::new());
        self.redirect.push(self.frags.len() - 1);
        self.frags.len() - 1
    }

    fn source_of(&self, q: NodeId) -> BranchSrc {
        match self.query.op(q) {
            PhysicalOp::Load { .. } => BranchSrc::File(q),
            _ => {
                let (f, phase) = self.frag_of[q.index()].expect("inputs are processed first");
                BranchSrc::Frag(self.resolve(f), phase)
            }
        }
    }

    /// Ensure query node `q` is available as a map-phase node inside
    /// fragment `target` (creating a Load of a file or of a closed tmp).
    /// Returns the in-fragment node id.
    fn branch_into(&mut self, target: usize, q: NodeId) -> NodeId {
        match self.source_of(q) {
            BranchSrc::File(qload) => {
                if let Some(&n) = self.frags[target].node_map.get(&qload) {
                    return n;
                }
                let path = self.query.path(qload).to_string();
                let n = self.frags[target].plan.add(PhysicalOp::Load { path }, vec![]);
                self.frags[target].node_map.insert(qload, n);
                n
            }
            BranchSrc::Frag(f, _phase) => {
                if f == target {
                    return self.frags[target].node_map[&q];
                }
                // Cross-fragment: materialize and load.
                let (tmp, producer) = self.close_output(q);
                self.frags[target].deps.insert(producer);
                let n = self.frags[target].plan.add(PhysicalOp::Load { path: tmp }, vec![]);
                // Not memoized under the Load's query id (there is none);
                // memoize under the producing query node so repeated
                // branches reuse the same Load.
                self.frags[target].node_map.insert(q, n);
                n
            }
        }
    }

    /// Materialize query node `q`'s output in its own fragment by adding a
    /// Store(tmp). Memoized.
    fn close_output(&mut self, q: NodeId) -> (String, usize) {
        if let Some((tmp, f)) = self.closed.get(&q) {
            return (tmp.clone(), self.resolve(*f));
        }
        let (f, _phase) = self.frag_of[q.index()].expect("a closed node was processed");
        let f = self.resolve(f);
        let tmp = format!("{}/tmp-{}", self.out_prefix, self.closed.len());
        let node = self.frags[f].node_map[&q];
        self.frags[f].plan.add(PhysicalOp::Store { path: tmp.clone() }, vec![node]);
        self.frags[f].tmps.push(tmp.clone());
        self.closed.insert(q, (tmp.clone(), f));
        (tmp, f)
    }

    /// Merge fragment `b` into fragment `a` (both resolved, map-only).
    fn merge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        debug_assert!(!self.frags[b].has_reduce, "cannot merge reduce fragment");
        let mut b_frag = std::mem::take(&mut self.frags[b]);
        // Move nodes over with id remapping; `b`'s plan is discarded.
        let mut remap: Vec<NodeId> = vec![NodeId(u32::MAX); b_frag.plan.len()];
        for id in b_frag.plan.topo_order() {
            let node = b_frag.plan.node_mut(id);
            let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.index()]).collect();
            let op = std::mem::replace(&mut node.op, PhysicalOp::Split);
            remap[id.index()] = self.frags[a].plan.add(op, inputs);
        }
        for (q, n) in b_frag.node_map {
            self.frags[a].node_map.entry(q).or_insert(remap[n.index()]);
        }
        self.frags[a].tmps.extend(b_frag.tmps);
        let deps: Vec<usize> = b_frag.deps.iter().copied().collect();
        for d in deps {
            let rd = self.resolve(d);
            self.frags[a].deps.insert(rd);
        }
        self.redirect[b] = a;
        // Re-point assigned query nodes.
        for (f, _) in self.frag_of.iter_mut().flatten() {
            if *f == b {
                *f = a;
            }
        }
    }

    fn process(&mut self, q: NodeId) -> Result<()> {
        let op = self.query.op(q);
        match op {
            PhysicalOp::Load { .. } => Ok(()), // instantiated lazily per consumer
            PhysicalOp::Join { .. } | PhysicalOp::CoGroup { .. } => {
                self.process_multi_blocking(q, op.clone())
            }
            PhysicalOp::Union => self.process_union(q),
            _ if op.is_blocking() => self.process_single_blocking(q, op.clone()),
            _ => self.process_pipelined(q, op.clone()),
        }
    }

    /// Non-blocking single-input operators (Project/MapExpr/Filter/
    /// Flatten/Aggregate/Split/Store) pipeline into their input's
    /// fragment and phase.
    fn process_pipelined(&mut self, q: NodeId, op: PhysicalOp) -> Result<()> {
        let input = self.query.inputs(q)[0];
        let (f, in_node, phase) = match self.source_of(input) {
            BranchSrc::File(..) => {
                let f = self.new_frag();
                let n = self.branch_into(f, input);
                (f, n, Phase::Map)
            }
            BranchSrc::Frag(f, phase) => (f, self.frags[f].node_map[&input], phase),
        };
        let n = self.frags[f].plan.add(op, vec![in_node]);
        self.frags[f].node_map.insert(q, n);
        self.frag_of[q.index()] = Some((f, phase));
        Ok(())
    }

    /// Blocking single-input operators (Group/Distinct/OrderBy/Limit)
    /// claim their fragment's shuffle, or close the fragment and start a
    /// new job when the shuffle is taken.
    fn process_single_blocking(&mut self, q: NodeId, op: PhysicalOp) -> Result<()> {
        let input = self.query.inputs(q)[0];
        let (f, in_node) = match self.source_of(input) {
            BranchSrc::File(..) => {
                let f = self.new_frag();
                let n = self.branch_into(f, input);
                (f, n)
            }
            BranchSrc::Frag(f, phase) => {
                if phase == Phase::Reduce || self.frags[f].has_reduce {
                    // The shuffle is taken: close and start a new job.
                    let nf = self.new_frag();
                    let n = self.branch_into(nf, input);
                    (nf, n)
                } else {
                    (f, self.frags[f].node_map[&input])
                }
            }
        };
        let n = self.frags[f].plan.add(op, vec![in_node]);
        self.frags[f].has_reduce = true;
        self.frags[f].node_map.insert(q, n);
        self.frag_of[q.index()] = Some((f, Phase::Reduce));
        Ok(())
    }

    /// Join/CoGroup: merge all map-only input fragments into one job;
    /// close anything already past its shuffle.
    fn process_multi_blocking(&mut self, q: NodeId, op: PhysicalOp) -> Result<()> {
        let inputs: Vec<NodeId> = self.query.inputs(q).to_vec();
        // Choose/merge the target fragment.
        let mut target: Option<usize> = None;
        for &i in &inputs {
            if let BranchSrc::Frag(f, Phase::Map) = self.source_of(i) {
                if !self.frags[f].has_reduce {
                    match target {
                        None => target = Some(f),
                        Some(t) if t != f => self.merge(t, f),
                        _ => {}
                    }
                }
            }
        }
        let target = target.unwrap_or_else(|| self.new_frag());
        let branch_nodes: Vec<NodeId> =
            inputs.iter().map(|&i| self.branch_into(target, i)).collect();
        let n = self.frags[target].plan.add(op, branch_nodes);
        self.frags[target].has_reduce = true;
        self.frags[target].node_map.insert(q, n);
        self.frag_of[q.index()] = Some((target, Phase::Reduce));
        Ok(())
    }

    /// Union: map-side combination, same merging as Join but no shuffle.
    fn process_union(&mut self, q: NodeId) -> Result<()> {
        let inputs: Vec<NodeId> = self.query.inputs(q).to_vec();
        let mut target: Option<usize> = None;
        for &i in &inputs {
            if let BranchSrc::Frag(f, Phase::Map) = self.source_of(i) {
                if !self.frags[f].has_reduce {
                    match target {
                        None => target = Some(f),
                        Some(t) if t != f => self.merge(t, f),
                        _ => {}
                    }
                }
            }
        }
        let target = target.unwrap_or_else(|| self.new_frag());
        let branch_nodes: Vec<NodeId> =
            inputs.iter().map(|&i| self.branch_into(target, i)).collect();
        let n = self.frags[target].plan.add(PhysicalOp::Union, branch_nodes);
        self.frags[target].node_map.insert(q, n);
        self.frag_of[q.index()] = Some((target, Phase::Map));
        Ok(())
    }

    fn finish(mut self) -> Result<CompiledWorkflow> {
        // Surviving fragments become jobs, in creation order.
        let mut job_index: Vec<usize> = vec![usize::MAX; self.frags.len()];
        let mut jobs = Vec::new();
        for (i, frag) in self.frags.iter_mut().enumerate() {
            if !frag.alive {
                continue;
            }
            if !frag.plan.ids().any(|id| matches!(frag.plan.op(id), PhysicalOp::Store { .. })) {
                return Err(Error::Plan(format!(
                    "internal: fragment {i} compiled without a Store:\n{}",
                    frag.plan.explain()
                )));
            }
            job_index[i] = jobs.len();
            let mut plan = std::mem::take(&mut frag.plan);
            dedupe_loads(&mut plan);
            let typed_outputs = std::mem::take(&mut frag.tmps);
            jobs.push(CompiledJob { plan, deps: Vec::new(), typed_outputs });
        }
        for (i, frag) in self.frags.iter().enumerate() {
            if !frag.alive {
                continue;
            }
            let ji = job_index[i];
            let mut deps: Vec<usize> =
                frag.deps.iter().map(|&d| job_index[self.resolve(d)]).collect();
            deps.sort_unstable();
            deps.dedup();
            jobs[ji].deps = deps;
        }
        Ok(CompiledWorkflow { jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalPlan;
    use crate::lower::lower;
    use crate::optimizer::optimize;
    use crate::parser::parse;

    fn compile_q(q: &str) -> CompiledWorkflow {
        let l = optimize(LogicalPlan::from_ast(&parse(q).unwrap()).unwrap());
        let p = lower(&l).unwrap();
        compile_plan(&p, "/tmp/q").unwrap()
    }

    const Q1: &str = "
        A = load 'pv' as (user, ts, rev:double, info, links);
        B = foreach A generate user, rev;
        alpha = load 'users' as (name, phone, addr, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        store C into '/out/q1';
    ";

    const Q2: &str = "
        A = load 'pv' as (user, ts, rev:double, info, links);
        B = foreach A generate user, rev;
        alpha = load 'users' as (name, phone, addr, city);
        beta = foreach alpha generate name;
        C = join beta by name, B by user;
        D = group C by $0;
        E = foreach D generate group, SUM(C.rev);
        store E into '/out/q2';
    ";

    #[test]
    fn q1_is_one_job() {
        let wf = compile_q(Q1);
        assert_eq!(wf.jobs.len(), 1, "{:?}", wf.jobs);
        let plan = &wf.jobs[0].plan;
        assert_eq!(plan.loads().len(), 2);
        assert_eq!(plan.stores().len(), 1);
        assert!(plan.ids().any(|i| matches!(plan.op(i), PhysicalOp::Join { .. })));
    }

    #[test]
    fn q2_is_two_jobs_split_at_group() {
        let wf = compile_q(Q2);
        assert_eq!(wf.jobs.len(), 2, "{:?}", wf.jobs);
        // Job 0: loads + projects + join + store(tmp).
        let j0 = &wf.jobs[0].plan;
        assert!(j0.ids().any(|i| matches!(j0.op(i), PhysicalOp::Join { .. })));
        assert!(!j0.ids().any(|i| matches!(j0.op(i), PhysicalOp::Group { .. })));
        // Job 1: load(tmp) + group + aggregate + store(final).
        let j1 = &wf.jobs[1].plan;
        assert!(j1.ids().any(|i| matches!(j1.op(i), PhysicalOp::Group { .. })));
        assert!(j1.ids().any(|i| matches!(j1.op(i), PhysicalOp::Aggregate { .. })));
        assert_eq!(wf.jobs[1].deps, vec![0]);
        // They communicate through the tmp path.
        assert_eq!(wf.jobs[0].typed_outputs.len(), 1);
        assert_eq!(wf.tmp_paths().count(), 1);
        let tmp = &wf.jobs[0].typed_outputs[0];
        assert!(j0.ids().any(|i| matches!(j0.op(i), PhysicalOp::Store { path } if path == tmp)));
        assert!(j1.ids().any(|i| matches!(j1.op(i), PhysicalOp::Load { path } if path == tmp)));
    }

    #[test]
    fn l11_shape_three_jobs_with_diamond_deps() {
        let wf = compile_q(
            "A = load 'pv' as (user, ts);
             B = foreach A generate user;
             C = distinct B;
             alpha = load 'widerow' as (user0, c1);
             beta = foreach alpha generate user0;
             gamma = distinct beta;
             D = union C, gamma;
             E = distinct D;
             store E into '/out/l11';",
        );
        assert_eq!(wf.jobs.len(), 3);
        assert_eq!(wf.jobs[0].deps, Vec::<usize>::new());
        assert_eq!(wf.jobs[1].deps, Vec::<usize>::new());
        assert_eq!(wf.jobs[2].deps, vec![0, 1]);
        let j2 = &wf.jobs[2].plan;
        assert!(j2.ids().any(|i| matches!(j2.op(i), PhysicalOp::Union)));
        assert!(j2.ids().any(|i| matches!(j2.op(i), PhysicalOp::Distinct)));
        assert_eq!(j2.loads().len(), 2);
    }

    #[test]
    fn two_groups_in_sequence_make_two_jobs() {
        let wf = compile_q(
            "A = load '/d' as (u, v:int);
             G1 = group A by u;
             S1 = foreach G1 generate group, SUM(A.v) as sv;
             G2 = group S1 by sv;
             S2 = foreach G2 generate group, COUNT(S1);
             store S2 into '/o';",
        );
        assert_eq!(wf.jobs.len(), 2);
        assert_eq!(wf.jobs[1].deps, vec![0]);
    }

    #[test]
    fn join_of_two_grouped_relations_is_three_jobs() {
        let wf = compile_q(
            "A = load '/a' as (u, x:int);
             B = load '/b' as (v, y:int);
             GA = group A by u;
             SA = foreach GA generate group as u, SUM(A.x) as sx;
             GB = group B by v;
             SB = foreach GB generate group as v, SUM(B.y) as sy;
             J = join SA by u, SB by v;
             store J into '/o';",
        );
        assert_eq!(wf.jobs.len(), 3);
        // The join job depends on both group jobs.
        assert_eq!(wf.jobs[2].deps, vec![0, 1]);
        assert_eq!(wf.jobs[2].plan.loads().len(), 2);
    }

    #[test]
    fn map_only_store_job() {
        let wf = compile_q(
            "A = load '/d' as (a, b);
             B = filter A by a > 1;
             store B into '/o';",
        );
        assert_eq!(wf.jobs.len(), 1);
        let p = &wf.jobs[0].plan;
        // No blocking op: map-only plan Load->Filter->Store.
        assert!(p.ids().all(|i| !p.op(i).is_blocking()));
    }

    #[test]
    fn shared_scan_feeds_two_branches_in_one_job() {
        let wf = compile_q(
            "A = load '/d' as (x, y);
             B = foreach A generate x;
             C = foreach A generate y;
             D = join B by x, C by y;
             store D into '/o';",
        );
        assert_eq!(wf.jobs.len(), 1);
        // A single Load node feeds both projections.
        let p = &wf.jobs[0].plan;
        assert_eq!(p.loads().len(), 1);
        assert_eq!(p.consumers(p.loads()[0]).len(), 2);
    }

    #[test]
    fn store_directly_after_load_is_identity_job() {
        let wf = compile_q("A = load '/d' as (x); store A into '/o';");
        assert_eq!(wf.jobs.len(), 1);
        let p = &wf.jobs[0].plan;
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn multi_store_fanout_after_group() {
        // Group output consumed by two different aggregates, each stored:
        // the group job closes once, both consumers read the same tmp.
        let wf = compile_q(
            "A = load '/d' as (u, v:int);
             G = group A by u;
             S1 = foreach G generate group, SUM(A.v);
             S2 = foreach G generate group, COUNT(A);
             store S1 into '/o1';
             store S2 into '/o2';",
        );
        // Job 0 has the group; S1 pipelines in its reduce. S2 also
        // pipelines in the same reduce (both are non-blocking consumers).
        assert_eq!(wf.jobs.len(), 1);
        let p = &wf.jobs[0].plan;
        assert_eq!(p.stores().len(), 2);
    }

    fn paths(plan: &PhysicalPlan, ids: Vec<NodeId>) -> Vec<String> {
        ids.into_iter().map(|id| plan.path(id).to_string()).collect()
    }

    /// Over every PigMix and paraphrase-suite query, plain and canonical:
    /// a job's typed outputs are exactly its own `tmp-N` Stores, no user
    /// Store is typed, and the workflow's tmp set is what one job Stores
    /// and another Loads.
    #[test]
    fn typed_outputs_are_exactly_the_inter_job_temporaries() {
        let mut texts: Vec<String> = restore_pigmix::queries::standard_workload("/out")
            .into_iter()
            .map(|(_, q)| q)
            .collect();
        for case in restore_pigmix::paraphrase::paraphrase_suite("/out") {
            texts.push(case.original);
            texts.extend(case.paraphrases);
        }
        let mut temporaries = 0;
        for text in &texts {
            let canonical = crate::compile_canonical(text, "/wf").unwrap().0;
            for wf in [crate::compile(text, "/wf").unwrap(), canonical] {
                let stored: Vec<Vec<String>> =
                    wf.jobs.iter().map(|j| paths(&j.plan, j.plan.stores())).collect();
                let mut read_back = BTreeSet::new();
                for (job, stores) in wf.jobs.iter().zip(&stored) {
                    let tmps: BTreeSet<&String> =
                        stores.iter().filter(|p| p.starts_with("/wf/tmp-")).collect();
                    assert_eq!(job.typed_outputs.iter().collect::<BTreeSet<_>>(), tmps, "{text}");
                    for load in paths(&job.plan, job.plan.loads()) {
                        if stored.iter().flatten().any(|p| *p == load) {
                            read_back.insert(load);
                        }
                    }
                }
                let tmp_set: BTreeSet<String> = wf.tmp_paths().cloned().collect();
                assert_eq!(tmp_set.len(), wf.tmp_paths().count(), "one writer per tmp: {text}");
                assert_eq!(tmp_set, read_back, "{text}");
                temporaries += tmp_set.len();
            }
        }
        assert!(temporaries > 0, "some query compiles to more than one job");
    }
}
