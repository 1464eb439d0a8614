//! The map-side scan reads only what the job's plan reads.
//!
//! `exec::job_spec_for_plan` derives, per Load, the column set its
//! consumers project (or "all"), from the plan exactly as handed to it —
//! compiled, instrumented with sub-job Stores, or rewritten against the
//! repository — compiles the map program against rows of exactly that
//! layout, and has the job's mapper factory report it to the engine.
//! These tests pin that derivation on the PigMix plans and show that the
//! columns outside it really are not read: replace them with other valid
//! values and nothing a job produces or is charged for changes.

use restore_suite::common::codec;
use restore_suite::common::{Tuple, Value};
use restore_suite::core::enumerator::{inject_subjob_stores, Heuristic};
use restore_suite::core::{matcher, rewriter};
use restore_suite::dataflow::exec::job_spec_for_plan;
use restore_suite::dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_suite::dataflow::{compile_canonical, CompiledWorkflow};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};
use restore_suite::pigmix::datagen::{self, PAGE_VIEWS, POWER_USERS, USERS, WIDEROW};
use restore_suite::pigmix::{queries, DataScale};

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
        let engine = Engine::new(
            dfs.clone(),
            ClusterConfig::default(),
            EngineConfig { worker_threads: 2, default_reduce_tasks: 3 },
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
