//! The reproduction's central correctness property, checked over random
//! data and random query parameters: **ReStore never changes query
//! answers** — reuse on, reuse off, any heuristic, warm or cold.

use proptest::prelude::*;
use restore_suite::common::{codec, Tuple, Value};
use restore_suite::core::{Heuristic, ReStore, ReStoreConfig};
use restore_suite::dfs::DfsConfig;
use restore_suite::mapreduce::{Engine, EngineConfig};
use restore_testkit::{engine_over, small_dfs, Oracle};

fn engine_with(rows: &[Tuple]) -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 128, replication: 2, node_capacity: None }),
        &[("/d", &codec::encode_all(rows))],
    );
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }))
}

/// Random rows: (key in a small domain, int, double). Some keys end in a
/// numeric-looking suffix (`SUBSTRING(k, 1, 9)` of "k007" is "007"), and
/// some doubles are ones text storage cannot carry once computed on:
/// `-0.0`, and integral values that reach 1e15 and past.
fn rows() -> impl Strategy<Value = Vec<Tuple>> {
    const KEYS: [&str; 10] = ["k0", "k1", "k2", "k3", "k007", "k7", "k07", "k1.5", "k-2", "k1e3"];
    const EDGES: [f64; 4] = [-0.0, 3.0, 2e15, 1.5];
    prop::collection::vec(
        (0usize..KEYS.len(), -50i64..50, 0u32..1000).prop_map(|(k, n, d)| {
            let v = match d.checked_sub(980) {
                Some(edge) => EDGES[edge as usize % EDGES.len()],
                None => d as f64 / 10.0,
            };
            Tuple::from_values(vec![Value::str(KEYS[k]), Value::Int(n), Value::Double(v)])
        }),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random data and a random filter threshold, a two-step workload
    /// (filter+group query, then a related query reusing the prefix)
    /// produces identical answers with and without ReStore.
    #[test]
    fn reuse_preserves_answers(
        data in rows(),
        threshold in -50i64..50,
        heuristic_pick in 0usize..3,
    ) {
        let heuristic = [
            Heuristic::Conservative,
            Heuristic::Aggressive,
            Heuristic::NoHeuristic,
        ][heuristic_pick];

        let q1 = |out: &str| format!(
            "A = load '/d' as (k, n:int, v:double);
             B = filter A by n > {threshold};
             G = group B by k;
             R = foreach G generate group, COUNT(B), SUM(B.v);
             store R into '{out}';"
        );
        // Its projection makes numeric-looking strings and doubles of
        // 1e15 and more, which q3 reads back from storage.
        let project = format!(
            "A = load '/d' as (k, n:int, v:double);
             B = filter A by n > {threshold};
             P = foreach B generate SUBSTRING(k, 1, 9) as s, v * 1000000000000000.0 as w;
             G = group P by s;"
        );
        let q2 = format!("{project} R = foreach G generate group, MAX(P.w); store R into '/out/q2';");
        let q3 = format!(
            "{project} R = foreach G generate group, COUNT(P), MIN(P.w); store R into '/out/q3';"
        );

        // Cold, then warm, then the cross-query reuse: every answer
        // equals a no-reuse session's.
        let rs = ReStore::new(engine_with(&data), ReStoreConfig { heuristic, ..Default::default() });
        Oracle::check(&rs, &[q1("/out/q1"), q1("/out/q1b"), q2, q3]).map_err(TestCaseError::fail)?;
    }

    /// Projection-only workloads: random column subsets reuse cleanly.
    #[test]
    fn projection_reuse_preserves_answers(
        data in rows(),
        cols in prop::sample::subsequence(vec![0usize, 1, 2], 1..=3),
    ) {
        let names = ["k", "n", "v"];
        let proj: Vec<&str> = cols.iter().map(|&c| names[c]).collect();
        let proj = proj.join(", ");
        let q = |out: &str| format!(
            "A = load '/d' as (k, n:int, v:double);
             B = foreach A generate {proj};
             C = distinct B;
             store C into '{out}';"
        );
        let rs = ReStore::new(engine_with(&data), ReStoreConfig::default());
        Oracle::check(&rs, &[q("/out/p0"), q("/out/p1")]).map_err(TestCaseError::fail)?;
    }
}
