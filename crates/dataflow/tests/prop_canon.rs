//! Property tests of the analyzer's canonicalization passes over
//! randomly generated queries:
//!
//! 1. **Output preservation** — the canonicalized workflow executes to
//!    byte-identical outputs with the original compile, over every
//!    random pipeline the generator produces;
//! 2. **Idempotence** — `canonicalize(canonicalize(p)) ==
//!    canonicalize(p)` for every compiled job plan, the property that
//!    lets the driver re-canonicalize after alias rewriting without
//!    drift.

use proptest::prelude::*;
use restore_common::{codec, tuple, Tuple};
use restore_dataflow::{analyzer, compile, compile_canonical, exec};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn engine_with_data() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None });
    let rows: Vec<Tuple> = (0..24).map(|i: i64| tuple![i % 7, (i * 3) % 5, (i * i) % 11]).collect();
    dfs.write_all("/d", &codec::encode_all(&rows)).unwrap();
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 2, default_reduce_tasks: 2 },
    )
}

/// Random pipelines over a 3-column load: filters drawn from a pool
/// that deliberately includes commuted AND legs, literal-first
/// comparisons, and swapped arithmetic operands (exactly the shapes the
/// analyzer normalizes), arity-preserving foreach transforms, distinct,
/// order-by, and an optional self-join (two scans of the same file —
/// the common-subplan case).
fn arb_query() -> impl Strategy<Value = String> {
    let pred = prop::sample::select(vec![
        "$0 > 2",
        "2 < $0",
        "$1 == 1",
        "1 == $1",
        "$2 > 0 and $0 < 9",
        "$0 < 9 and $2 > 0",
        "$0 + $1 > 3",
        "$1 + $0 > 3",
    ]);
    (prop::collection::vec((0u8..5, pred), 0..5), any::<bool>()).prop_map(|(steps, join)| {
        let mut q = String::from("A = load '/d' as (a:int, b:int, c:int);\n");
        let mut cur = "A".to_string();
        for (n, (kind, p)) in steps.into_iter().enumerate() {
            let next = format!("T{n}");
            match kind {
                0 => q.push_str(&format!("{next} = filter {cur} by {p};\n")),
                1 => q.push_str(&format!("{next} = foreach {cur} generate $0 + $1, $1, $2;\n")),
                2 => q.push_str(&format!("{next} = foreach {cur} generate $1 * $2, $1, $2;\n")),
                3 => q.push_str(&format!("{next} = distinct {cur};\n")),
                _ => q.push_str(&format!("{next} = order {cur} by $0;\n")),
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
        let mr = exec::to_mr_workflow(&wf, "p").unwrap();
        plain_eng.run_workflow(&mr).unwrap();
        let plain_out = plain_eng.dfs().read_all("/out").unwrap();

        let canon_eng = engine_with_data();
        let (cwf, _) = compile_canonical(&q, "/wf").unwrap();
        let cmr = exec::to_mr_workflow(&cwf, "c").unwrap();
        canon_eng.run_workflow(&cmr).unwrap();
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
