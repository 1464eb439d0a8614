//! Property tests of the analyzer's canonicalization passes over
//! randomly generated queries:
//!
//! 1. **Output preservation** — the canonicalized workflow executes to
//!    byte-identical outputs with the original compile, over every
//!    random pipeline the generator produces;
//! 2. **Idempotence** — `canonicalize(canonicalize(p)) ==
//!    canonicalize(p)` for every compiled job plan, the property that
//!    lets the driver re-canonicalize after alias rewriting without
//!    drift;
//! 3. **The fixpoint oracle** — `canonicalize`, which stops after the
//!    first sweep in which no pass reports a change, reaches the same
//!    plan as [`canonicalize_reference`], which copies the plan before
//!    every sweep and stops when the copy compares equal; over the
//!    generator, the eight PigMix queries and every paraphrase;
//! 4. **Binding** — a query's [`template`], compiled from its masked
//!    text and bound to its paths, equals its direct compile, plain and
//!    canonical.

use proptest::prelude::*;
use restore_common::{codec, tuple, Tuple};
use restore_dataflow::{
    analyzer, compile, compile_canonical, exec, logical, lower, optimizer, parser, template,
    PhysicalPlan,
};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{Engine, EngineConfig};
use restore_pigmix::{paraphrase, queries};
use restore_testkit::engine_over;
use std::time::Duration;

/// The analyzer's fixpoint loop as it was before passes reported their
/// changes: copy the plan, sweep, and stop once the copy compares
/// equal. A pass that under-reports a change makes `canonicalize` stop
/// early, and this loop does not.
fn canonicalize_reference(plan: &mut PhysicalPlan) {
    let mut timings = [("", Duration::ZERO); 3];
    // 64 is the analyzer's sweep cap.
    for _ in 0..64 {
        let before = plan.clone();
        analyzer::sweep(plan, &mut timings);
        if *plan == before {
            break;
        }
    }
}

/// The plan `compile_canonical` hands the analyzer.
fn lowered(query: &str) -> PhysicalPlan {
    let program = parser::parse(query).unwrap();
    let logical = optimizer::optimize(logical::LogicalPlan::from_ast(&program).unwrap());
    lower::lower(&logical).unwrap()
}

/// `canonicalize` and the reference agree on the query's lowered plan
/// and on every job plan of its plain compile.
fn assert_matches_reference(query: &str) {
    let mut plans = vec![lowered(query)];
    plans.extend(compile(query, "/wf").unwrap().jobs.into_iter().map(|job| job.plan));
    for plan in plans {
        let mut got = plan.clone();
        analyzer::canonicalize(&mut got);
        let mut want = plan;
        canonicalize_reference(&mut want);
        assert_eq!(got, want, "canonicalize left the reference's fixpoint for:\n{query}");
    }
}

#[test]
fn pigmix_queries_reach_the_reference_fixpoint() {
    // L2–L8 and L11.
    for (_, q) in queries::standard_workload("/out") {
        assert_matches_reference(&q);
    }
}

/// The one change a later sweep depends on: a CSE merge that leaves
/// a Filter with one consumer, which placement folds in the next sweep.
/// In the first sweep nothing but CSE changes the plan, so a CSE that
/// under-reported would stop `canonicalize` one fold short.
#[test]
fn a_merge_that_exposes_a_fold_reaches_the_reference_fixpoint() {
    assert_matches_reference(
        "A = load '/d' as (a:int, b:int, c:int);
         T0 = filter A by $0 > 2;
         T1a = filter T0 by $1 == 1;
         T1b = filter T0 by $1 == 1;
         T1 = union T1a, T1b;
         store T1 into '/out';",
    );
}

#[test]
fn paraphrases_reach_the_reference_fixpoint() {
    for case in paraphrase::paraphrase_suite("/out") {
        assert_matches_reference(&case.original);
        for p in &case.paraphrases {
            assert_matches_reference(p);
        }
    }
}

fn engine_with_data() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None });
    let rows: Vec<Tuple> = (0..24).map(|i: i64| tuple![i % 7, (i * 3) % 5, (i * i) % 11]).collect();
    dfs.write_all("/d", &codec::encode_all(&rows)).unwrap();
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 2 }))
}

/// Filter predicates in paraphrase pairs: entries `2k` and `2k + 1`
/// say the same thing with commuted AND legs, a literal-first
/// comparison or swapped arithmetic operands (exactly the shapes the
/// analyzer normalizes).
const PREDS: [&str; 8] = [
    "$0 > 2",
    "2 < $0",
    "$1 == 1",
    "1 == $1",
    "$2 > 0 and $0 < 9",
    "$0 < 9 and $2 > 0",
    "$0 + $1 > 3",
    "$1 + $0 > 3",
];

/// Random pipelines over a 3-column load: filters from [`PREDS`],
/// arity-preserving foreach transforms, distinct, order-by, a *twin*
/// (the union of two filters of one input by the same predicate or by
/// its paraphrase: CSE merges them, after expression normalization in
/// the paraphrased case, and the merge leaves the input with one
/// consumer, which placement may fold in the next sweep), a union of
/// a relation with itself (`union A, A`: one producer read twice by
/// one consumer), and an optional self-join (two scans of the same file
/// — the common-subplan case).
fn arb_query() -> impl Strategy<Value = String> {
    let step = (0u8..8, 0..PREDS.len());
    (prop::collection::vec(step, 0..5), any::<bool>()).prop_map(|(steps, join)| {
        let mut q = String::from("A = load '/d' as (a:int, b:int, c:int);\n");
        let mut cur = "A".to_string();
        for (n, (kind, p)) in steps.into_iter().enumerate() {
            let next = format!("T{n}");
            let (p, paraphrase) = (PREDS[p], PREDS[p ^ 1]);
            match kind {
                0 => q.push_str(&format!("{next} = filter {cur} by {p};\n")),
                1 => q.push_str(&format!("{next} = foreach {cur} generate $0 + $1, $1, $2;\n")),
                2 => q.push_str(&format!("{next} = foreach {cur} generate $1 * $2, $1, $2;\n")),
                3 => q.push_str(&format!("{next} = distinct {cur};\n")),
                4 => q.push_str(&format!("{next} = order {cur} by $0;\n")),
                7 => q.push_str(&format!("{next} = union {cur}, {cur};\n")),
                _ => {
                    let twin = if kind == 5 { p } else { paraphrase };
                    q.push_str(&format!(
                        "{next}a = filter {cur} by {p};\n{next}b = filter {cur} by {twin};\n\
                         {next} = union {next}a, {next}b;\n"
                    ));
                }
            }
            cur = next;
        }
        if join {
            q.push_str("B2 = load '/d' as (a:int, b:int, c:int);\n");
            q.push_str(&format!("J = join {cur} by $0, B2 by a;\n"));
            cur = "J".to_string();
        }
        q.push_str(&format!("store {cur} into '/out';\n"));
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The canonicalized workflow produces the same output bytes as the
    /// plain compile, on identical engines over identical data.
    #[test]
    fn canonicalized_workflow_preserves_output_bytes(q in arb_query()) {
        let plain_eng = engine_with_data();
        let wf = compile(&q, "/wf").unwrap();
        exec::run_workflow(&plain_eng, &wf, "p").unwrap();
        let plain_out = plain_eng.dfs().read_all("/out").unwrap();

        let canon_eng = engine_with_data();
        let (cwf, _) = compile_canonical(&q, "/wf").unwrap();
        exec::run_workflow(&canon_eng, &cwf, "c").unwrap();
        let canon_out = canon_eng.dfs().read_all("/out").unwrap();

        prop_assert_eq!(plain_out, canon_out, "outputs diverged for query:\n{}", q);
    }

    /// Canonicalization is a fixpoint: applying it to an
    /// already-canonical plan changes nothing.
    #[test]
    fn canonicalize_is_idempotent(q in arb_query()) {
        let wf = compile(&q, "/wf").unwrap();
        for job in &wf.jobs {
            let mut once = job.plan.clone();
            analyzer::canonicalize(&mut once);
            let mut twice = once.clone();
            analyzer::canonicalize(&mut twice);
            prop_assert_eq!(
                &once, &twice,
                "second canonicalization moved the plan for query:\n{}", q
            );
        }
    }

    /// Segmenting a canonical plan into jobs keeps every job plan
    /// canonical — which is what lets the driver skip the analyzer for a
    /// job whose Loads no alias rewrote.
    #[test]
    fn compile_canonical_emits_canonical_job_plans(q in arb_query()) {
        let (wf, _) = compile_canonical(&q, "/wf").unwrap();
        for job in &wf.jobs {
            let mut again = job.plan.clone();
            analyzer::canonicalize(&mut again);
            prop_assert_eq!(
                &again, &job.plan,
                "a compiled job plan was not a fixpoint for query:\n{}", q
            );
        }
    }
}

proptest! {
    // Compile-only, so more cases than the blocks that execute.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Stopping on the passes' change reports reaches the same plan as
    /// stopping when a copy compares equal.
    #[test]
    fn canonicalize_matches_the_clone_and_compare_loop(q in arb_query()) {
        assert_matches_reference(&q);
    }

    /// `bind(template(q)) == compile(q)`, plain and canonical.
    #[test]
    fn a_bound_template_equals_the_direct_compile(q in arb_query()) {
        let key = template::Key::of(&q, "/wf").unwrap();
        let plain = compile(key.masked(), template::PREFIX).unwrap();
        prop_assert_eq!(
            template::bind(&plain, key.literals(), "/wf"),
            compile(&q, "/wf").unwrap(),
            "query:\n{}", q
        );
        let (canonical, _) = compile_canonical(key.masked(), template::PREFIX).unwrap();
        prop_assert_eq!(
            template::bind(&canonical, key.literals(), "/wf"),
            compile_canonical(&q, "/wf").unwrap().0,
            "query:\n{}", q
        );
    }
}
