//! The map-side scan reads only what the job's plan reads.
//!
//! `exec::job_spec_for_plan` derives, per Load, the column set its
//! consumers project or aggregate (or "all"), and of a bag column its
//! Aggregates read, the member fields, from the plan exactly as handed to
//! it — compiled, instrumented with sub-job Stores, or rewritten against
//! the repository — compiles the map program against rows of exactly that
//! layout, and has the job's mapper factory report it to the engine.
//! These tests pin that derivation on the PigMix plans and show that the
//! columns and member fields outside it really are not read: replace them
//! with other valid values and nothing a job produces or is charged for
//! changes.

use restore_suite::common::{codec, typed};
use restore_suite::common::{Bag, Tuple, Value};
use restore_suite::core::enumerator::{inject_subjob_stores, Heuristic};
use restore_suite::core::{matcher, rewriter};
use restore_suite::dataflow::exec::{job_spec_for_plan, run_workflow};
use restore_suite::dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_suite::dataflow::{compile_canonical, CompiledWorkflow};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{EngineConfig, JobResult};
use restore_suite::pigmix::datagen::{self, PAGE_VIEWS, POWER_USERS, USERS, WIDEROW};
use restore_suite::pigmix::{queries, DataScale};
use restore_testkit::engine_over;

/// `(input path, columns read)` per job input, by path; `None` = every
/// column.
fn scan_sets(plan: &PhysicalPlan) -> Vec<(String, Option<Vec<usize>>)> {
    let spec = job_spec_for_plan(plan, "t").unwrap();
    let mut sets: Vec<_> = spec
        .inputs
        .iter()
        .enumerate()
        .map(|(tag, i)| (i.path.clone(), spec.mapper.columns(tag).map(|c| c.as_slice().to_vec())))
        .collect();
    sets.sort();
    sets
}

fn compiled(text: &str) -> CompiledWorkflow {
    compile_canonical(text, "/wf").unwrap().0
}

#[test]
fn pigmix_plans_scan_the_columns_they_project() {
    let cols = |path: &str, cols: &[usize]| (path.to_string(), Some(cols.to_vec()));
    // The first job of each query reads the base tables; every later job
    // Loads an intermediate straight into a blocking operator or a Union,
    // which sees whole records.
    let expected = [
        ("L2", vec![cols(PAGE_VIEWS, &[0, 3]), cols(POWER_USERS, &[0])]),
        ("L3", vec![cols(PAGE_VIEWS, &[0, 3]), cols(USERS, &[0])]),
        ("L4", vec![cols(PAGE_VIEWS, &[0, 1])]),
        ("L5", vec![cols(PAGE_VIEWS, &[0]), cols(USERS, &[0])]),
        ("L6", vec![cols(PAGE_VIEWS, &[0, 2, 3])]),
        ("L7", vec![cols(PAGE_VIEWS, &[0, 3])]),
        ("L8", vec![cols(PAGE_VIEWS, &[0, 3])]),
        ("L11", vec![cols(PAGE_VIEWS, &[0])]),
    ];
    let workload = queries::standard_workload("/out");
    assert_eq!(workload.len(), expected.len());
    for ((label, text), (want_label, want_first)) in workload.iter().zip(&expected) {
        assert_eq!(label, want_label);
        let wf = compiled(text);
        let order = wf.topo_order().unwrap();
        assert_eq!(&scan_sets(&wf.jobs[order[0]].plan), want_first, "{label} first job");
        if label == "L11" {
            assert_eq!(
                scan_sets(&wf.jobs[order[1]].plan),
                vec![cols(WIDEROW, &[0])],
                "L11's second base-table job"
            );
        }
        let base_jobs = if label == "L11" { 2 } else { 1 };
        for &idx in &order[base_jobs..] {
            for (path, columns) in scan_sets(&wf.jobs[idx].plan) {
                assert_eq!(columns, None, "{label} job {idx} input {path}");
            }
        }
    }
}

/// `plan` with the heuristic's sub-job Stores injected; how many.
fn instrument(plan: &mut PhysicalPlan, heuristic: Heuristic) -> usize {
    let mut n = 0;
    let mint = || {
        n += 1;
        format!("/restore/c{n}")
    };
    inject_subjob_stores(plan, heuristic, mint, |_| false).len()
}

fn plan_of(build: impl FnOnce(&mut PhysicalPlan)) -> PhysicalPlan {
    let mut plan = PhysicalPlan::new();
    build(&mut plan);
    plan
}

#[test]
fn a_consumer_that_sees_whole_records_reads_all_columns() {
    use restore_suite::dataflow::expr::{CmpOp, Expr};
    let pred = || Expr::Cmp(Box::new(Expr::Col(1)), CmpOp::Ge, Box::new(Expr::Lit(0i64.into())));
    let load_filter = plan_of(|p| {
        let l = p.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
        let f = p.add(PhysicalOp::Filter { pred: pred() }, vec![l]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![f]);
    });
    assert_eq!(scan_sets(&load_filter), vec![("/in".to_string(), None)]);

    let load_store = plan_of(|p| {
        let l = p.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![l]);
    });
    assert_eq!(scan_sets(&load_store), vec![("/in".to_string(), None)]);

    // Two Projects and one Filter behind a Split: the Filter decides.
    let mixed = plan_of(|p| {
        let l = p.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
        let s = p.add(PhysicalOp::Split, vec![l]);
        let a = p.add(PhysicalOp::Project { cols: vec![0] }, vec![s]);
        let b = p.add(PhysicalOp::Project { cols: vec![2] }, vec![s]);
        let f = p.add(PhysicalOp::Filter { pred: pred() }, vec![s]);
        let u = p.add(PhysicalOp::Union, vec![a, b, f]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![u]);
    });
    assert_eq!(scan_sets(&mixed), vec![("/in".to_string(), None)]);

    // The same Split with only Projects behind it: their union.
    let projects = plan_of(|p| {
        let l = p.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
        let s = p.add(PhysicalOp::Split, vec![l]);
        let a = p.add(PhysicalOp::Project { cols: vec![2, 0] }, vec![s]);
        let b = p.add(PhysicalOp::Project { cols: vec![2] }, vec![s]);
        let u = p.add(PhysicalOp::Union, vec![a, b]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![u]);
    });
    assert_eq!(scan_sets(&projects), vec![("/in".to_string(), Some(vec![0, 2]))]);
}

#[test]
fn instrumented_and_rewritten_plans_are_pruned_by_the_same_rule() {
    let l3 = compiled(&queries::l3("/out/L3"));
    let first = l3.topo_order().unwrap()[0];
    let plain = scan_sets(&l3.jobs[first].plan);

    // Sub-job Stores hang off Splits *below* the Projects (and below the
    // Join): the Loads' consumers are still the Projects.
    for heuristic in [Heuristic::Conservative, Heuristic::Aggressive] {
        let mut plan = l3.jobs[first].plan.clone();
        assert!(instrument(&mut plan, heuristic) > 0, "{heuristic:?} instruments L3's join job");
        assert_eq!(scan_sets(&plan), plain, "{heuristic:?}");
    }

    // Rewrite the page_views projection against a stored copy of it: the
    // new Load feeds the Join directly, so it is read whole, and the
    // users side keeps its one column.
    let stored = plan_of(|p| {
        let l = p.add(PhysicalOp::Load { path: PAGE_VIEWS.into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0, 3] }, vec![l]);
        p.add(PhysicalOp::Store { path: "/restore/pv03".into() }, vec![pr]);
    });
    let mut plan = l3.jobs[first].plan.clone();
    let m = matcher::pairwise_plan_traversal(&stored, &plan).expect("the projection matches");
    rewriter::rewrite(&mut plan, &m, "/restore/pv03");
    assert_eq!(
        scan_sets(&plan),
        vec![(USERS.to_string(), Some(vec![0])), ("/restore/pv03".to_string(), None)]
    );
}

/// `path` rewritten with every field outside `read` replaced: strings by
/// another string, numbers by another number, so the copy is as valid as
/// the original and differs in nearly every byte of the unread columns.
fn scramble_unread(dfs: &Dfs, path: &str, read: &[usize]) {
    let rows = codec::decode_all(&dfs.read_all(path).unwrap()).unwrap();
    let scrambled: Vec<Tuple> = rows
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .map(|(i, v)| match v {
                    _ if read.contains(&i) => v.clone(),
                    Value::Str(s) => {
                        Value::str(s.chars().rev().chain("é\t".chars()).collect::<String>())
                    }
                    Value::Int(n) => Value::Double(*n as f64 + 0.5),
                    Value::Double(d) => Value::Int(*d as i64 + 1),
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    assert_ne!(rows, scrambled, "{path} has unread columns to scramble");
    dfs.delete(path);
    dfs.write_all(path, &codec::encode_all(&scrambled)).unwrap();
}

/// The column set decides what the scan materializes and nothing a job
/// produces or is charged for: the same plan over the generated tables
/// and over copies whose unread columns hold other values gives
/// byte-identical outputs and equal `Counters` (bar the input bytes,
/// which the copies changed).
#[test]
fn outputs_counters_and_times_do_not_depend_on_the_column_set() {
    // L3's join job, instrumented so it also writes map- and reduce-side
    // side outputs.
    let l3 = compiled(&queries::l3("/out/L3"));
    let mut plan = l3.jobs[l3.topo_order().unwrap()[0]].plan.clone();
    instrument(&mut plan, Heuristic::Aggressive);
    let spec = job_spec_for_plan(&plan, "derived").unwrap();
    assert!(!spec.side_outputs.is_empty());
    let read: Vec<Vec<usize>> = (0..spec.inputs.len())
        .map(|tag| spec.mapper.columns(tag).expect("both inputs are pruned").as_slice().to_vec())
        .collect();

    let snapshot = |scrambled: bool| {
        let dfs = Dfs::new(DfsConfig {
            nodes: 4,
            block_size: 4 << 10,
            replication: 2,
            node_capacity: None,
        });
        datagen::generate(&dfs, &DataScale::tiny(), 0x5E570E).unwrap();
        if scrambled {
            for (input, read) in spec.inputs.iter().zip(&read) {
                scramble_unread(&dfs, &input.path, read);
            }
        }
        let engine = engine_over(
            dfs.clone(),
            Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }),
        );
        let result = engine.run(&spec).unwrap();
        let files: Vec<Vec<u8>> = std::iter::once(&spec.output)
            .chain(&spec.side_outputs)
            .map(|p| dfs.read_all(p).unwrap())
            .collect();
        (files, result.counters)
    };
    let (files, counters) = snapshot(false);
    let (scrambled_files, mut scrambled_counters) = snapshot(true);
    assert!(files.iter().all(|f| !f.is_empty()), "every output has rows to compare");
    assert!(files == scrambled_files, "outputs and side outputs are byte-identical");
    assert!(counters.map_input_records > 0 && counters.map_output_bytes > 0);
    assert_ne!(counters.map_input_bytes, scrambled_counters.map_input_bytes);
    // The split boundaries moved with the bytes, so the task count may too.
    scrambled_counters.map_input_bytes = counters.map_input_bytes;
    scrambled_counters.map_tasks = counters.map_tasks;
    assert_eq!(counters, scrambled_counters);
}

/// `(input path, columns read, and per column the member fields read of
/// its bag)` per job input; `None` = every column, or the whole bag.
type MemberSets = Vec<(String, Option<Vec<(usize, Option<Vec<usize>>)>>)>;

fn member_sets(plan: &PhysicalPlan) -> MemberSets {
    let spec = job_spec_for_plan(plan, "t").unwrap();
    let mut sets: MemberSets = spec
        .inputs
        .iter()
        .enumerate()
        .map(|(tag, i)| {
            let set = spec.mapper.columns(tag).map(|c| {
                let cols = c.as_slice().iter().enumerate();
                cols.map(|(k, &col)| (col, c.members(k).map(<[usize]>::to_vec))).collect()
            });
            (i.path.clone(), set)
        })
        .collect();
    sets.sort();
    sets
}

/// `query`'s final job as a rerun executes it when the first run stored
/// its Group's output at `stored` (the repository's candidate): the
/// candidate's plan and the final job rewritten to Load it.
fn rerun_final_job(query: &str, stored: &str) -> (PhysicalPlan, PhysicalPlan) {
    let wf = compiled(query);
    let last = *wf.topo_order().unwrap().last().unwrap();
    let mut plan = wf.jobs[last].plan.clone();
    let group = plan.ids().find(|&id| matches!(plan.op(id), PhysicalOp::Group { .. })).unwrap();
    let candidate = plan.prefix_plan(group, stored);
    let m = matcher::pairwise_plan_traversal(&candidate, &plan).expect("the candidate matches");
    rewriter::rewrite(&mut plan, &m, stored);
    (candidate, plan)
}

/// A PigMix rerun whose final job is a Load of a stored group straight
/// into an Aggregate: the group's key columns, its bag column, and the
/// member fields the Aggregate reads of it.
struct RerunAggregate {
    label: &'static str,
    query: fn(&str) -> String,
    keys: &'static [usize],
    bag: usize,
    fields: &'static [usize],
}

/// The five such reruns of `pigmix_reuse`. COUNT(*) reads no field, and
/// MAX and MIN of one field read it once.
const RERUN_AGGREGATES: [RerunAggregate; 5] = [
    RerunAggregate { label: "L3", query: queries::l3, keys: &[0], bag: 1, fields: &[2] },
    RerunAggregate { label: "L4", query: queries::l4, keys: &[0], bag: 1, fields: &[1] },
    RerunAggregate { label: "L6", query: queries::l6, keys: &[0, 1], bag: 2, fields: &[2] },
    RerunAggregate { label: "L7", query: queries::l7, keys: &[0], bag: 1, fields: &[1] },
    RerunAggregate { label: "L8", query: queries::l8, keys: &[], bag: 1, fields: &[1] },
];

/// Each rerun reads its keys whole and its bag for the member fields its
/// aggregates read, and nothing else.
#[test]
fn rerun_aggregates_read_their_keys_and_their_member_fields() {
    for RerunAggregate { label, query, keys, bag, fields } in RERUN_AGGREGATES {
        let (_, rerun) = rerun_final_job(&query("/out/rerun"), "/restore/g");
        let ops: Vec<&str> = rerun.topo_order().iter().map(|&id| rerun.op(id).name()).collect();
        assert_eq!(ops, ["Load", "Aggregate", "Store"], "{label}");
        let mut cols: Vec<_> = keys.iter().map(|&k| (k, None)).collect();
        cols.push((bag, Some(fields.to_vec())));
        assert_eq!(member_sets(&rerun), vec![("/restore/g".to_string(), Some(cols))], "{label}");
    }
}

#[test]
fn a_bag_column_a_project_also_reads_is_read_whole() {
    use restore_suite::dataflow::expr::AggFunc;
    use restore_suite::dataflow::physical::AggItem;
    let sum = AggItem::Agg { func: AggFunc::Sum, bag_col: 2, field: Some(1) };
    let count = AggItem::Agg { func: AggFunc::Count, bag_col: 3, field: None };
    let aggregate =
        || PhysicalOp::Aggregate { items: vec![AggItem::Key(0), sum.clone(), count.clone()] };
    let with_project = |project: Vec<usize>| {
        plan_of(|p| {
            let l = p.add(PhysicalOp::Load { path: "/in".into() }, vec![]);
            let s = p.add(PhysicalOp::Split, vec![l]);
            let a = p.add(aggregate(), vec![s]);
            let b = p.add(PhysicalOp::Project { cols: project }, vec![s]);
            p.add(PhysicalOp::Store { path: "/out/a".into() }, vec![a]);
            p.add(PhysicalOp::Store { path: "/out/b".into() }, vec![b]);
        })
    };
    let read = |cols: Vec<(usize, Option<Vec<usize>>)>| vec![("/in".to_string(), Some(cols))];
    assert_eq!(
        member_sets(&with_project(vec![2])),
        read(vec![(0, None), (2, None), (3, Some(vec![]))])
    );
    assert_eq!(
        member_sets(&with_project(vec![5])),
        read(vec![(0, None), (2, Some(vec![1])), (3, Some(vec![])), (5, None)])
    );
}

/// `path`, a typed stored group file, rewritten with every member field
/// outside `read` of the bag at `bag` replaced by another valid value.
fn scramble_unread_members(dfs: &Dfs, path: &str, bag: usize, read: &[usize]) {
    let rows = typed::decode_any(&dfs.read_all(path).unwrap()).unwrap();
    let other = |v: &Value| match v {
        Value::Str(s) => Value::str(s.chars().rev().chain("é\t".chars()).collect::<String>()),
        Value::Int(n) => Value::Double(*n as f64 + 0.5),
        Value::Double(d) => Value::Int(*d as i64 + 1),
        other => other.clone(),
    };
    let scrambled: Vec<Tuple> = rows
        .iter()
        .map(|row| {
            let Value::Bag(group) = row.get(bag) else { panic!("{path} holds groups") };
            let members = group.rows().map(|member| {
                let fields = member.iter().enumerate();
                fields
                    .map(|(i, v)| if read.contains(&i) { v.clone() } else { other(v) })
                    .collect::<Vec<_>>()
            });
            let mut row = row.clone();
            row.0[bag] = Value::Bag(Bag::from_rows(members));
            row
        })
        .collect();
    assert_ne!(rows, scrambled, "{path} has unread member fields to scramble");
    dfs.delete(path);
    dfs.write_all(path, &typed::encode_file(&scrambled)).unwrap();
}

/// `query` (storing into `/out/first`) run in full over `scale`'s data,
/// its Group's output stored typed at `/restore/g`, and its final job
/// rerun against that into `/out/rerun`, after `before_rerun`: the two
/// answers' bytes and the rerun's result.
fn first_and_rerun(
    query: fn(&str) -> String,
    scale: &DataScale,
    before_rerun: impl FnOnce(&Dfs),
) -> (Vec<u8>, Vec<u8>, JobResult) {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 4 << 10, replication: 2, node_capacity: None });
    datagen::generate(&dfs, scale, 0x5E570E).unwrap();
    let engine =
        engine_over(dfs.clone(), Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }));
    run_workflow(&engine, &compiled(&query("/out/first")), "first").unwrap();
    let (candidate, rerun) = rerun_final_job(&query("/out/rerun"), "/restore/g");
    let mut spec = job_spec_for_plan(&candidate, "candidate").unwrap();
    spec.typed_outputs = vec!["/restore/g".to_string()];
    engine.run(&spec).unwrap();
    before_rerun(&dfs);
    let result = engine.run(&job_spec_for_plan(&rerun, "rerun").unwrap()).unwrap();
    (dfs.read_all("/out/first").unwrap(), dfs.read_all("/out/rerun").unwrap(), result)
}

/// The member fields an Aggregate reads decide what the scan builds of a
/// stored group and nothing a rerun produces or is charged for: the
/// rerun's answer is the first run's, byte for byte, and stays so when
/// every unread member field of the stored groups holds another value;
/// `Counters` are equal bar the input bytes, which the copy changed.
#[test]
fn rerun_answers_and_counters_do_not_depend_on_unread_member_fields() {
    for RerunAggregate { label, query, bag, fields: read, .. } in RERUN_AGGREGATES {
        let (first, rerun, result) = first_and_rerun(query, &DataScale::tiny(), |_| {});
        assert!(!first.is_empty(), "{label}");
        assert!(first == rerun, "{label}: the rerun answers as the first run");
        let scramble = |dfs: &Dfs| scramble_unread_members(dfs, "/restore/g", bag, read);
        let (_, scrambled, scrambled_result) = first_and_rerun(query, &DataScale::tiny(), scramble);
        assert!(rerun == scrambled, "{label}: unread member fields change no byte");
        let (counters, mut scrambled_counters) = (result.counters, scrambled_result.counters);
        assert!(counters.map_input_records > 0, "{label}");
        assert_ne!(counters.map_input_bytes, scrambled_counters.map_input_bytes, "{label}");
        scrambled_counters.map_input_bytes = counters.map_input_bytes;
        scrambled_counters.map_tasks = counters.map_tasks;
        assert_eq!(counters, scrambled_counters, "{label}");
    }
}

/// L8's rerun reads its one stored group, all 20 000 page views in one
/// bag, for the revenue alone: COUNT(*) still counts every member.
#[test]
fn l8s_rerun_counts_every_member_of_its_group() {
    let (first, rerun, _) = first_and_rerun(queries::l8, &DataScale::gb15(), |_| {});
    assert!(first == rerun);
    let answer = codec::decode_all(&rerun).unwrap();
    assert_eq!(answer.len(), 1);
    assert_eq!(answer[0].get(0), &Value::Int(20_000));
}
