//! Edge cases through the full compile+execute stack: degenerate data
//! distributions, unicode payloads, empty intermediates, and operator
//! corner cases.

use restore_common::{codec, tuple, Tuple, Value};
use restore_dataflow::{compile, exec};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn engine() -> Engine {
    let dfs =
        Dfs::new(DfsConfig { nodes: 3, block_size: 256, replication: 1, node_capacity: None });
    Engine::new(
        dfs,
        ClusterConfig::default(),
        EngineConfig { worker_threads: 3, default_reduce_tasks: 2 },
    )
}

fn run(eng: &Engine, q: &str) {
    exec::run_workflow(eng, &compile(q, "/wf").unwrap(), "e").unwrap();
}

fn read_sorted(eng: &Engine, path: &str) -> Vec<Tuple> {
    let mut rows = codec::decode_all(&eng.dfs().read_all(path).unwrap()).unwrap();
    rows.sort();
    rows
}

#[test]
fn filter_that_drops_everything() {
    let eng = engine();
    eng.dfs().write_all("/d", &codec::encode_all(&[tuple![1], tuple![2]])).unwrap();
    run(
        &eng,
        "A = load '/d' as (n:int);
         B = filter A by n > 100;
         G = group B by n;
         R = foreach G generate group, COUNT(B);
         store R into '/out/empty';",
    );
    assert_eq!(read_sorted(&eng, "/out/empty"), Vec::<Tuple>::new());
}

#[test]
fn single_hot_key_group() {
    // Every record shares one key: one reducer gets the whole bag.
    let eng = engine();
    let rows: Vec<Tuple> = (0..200).map(|i| tuple!["hot", i]).collect();
    eng.dfs().write_all("/d", &codec::encode_all(&rows)).unwrap();
    run(
        &eng,
        "A = load '/d' as (k, n:int);
         G = group A by k;
         R = foreach G generate group, COUNT(A), MIN(A.n), MAX(A.n);
         store R into '/out/hot';",
    );
    assert_eq!(read_sorted(&eng, "/out/hot"), vec![tuple!["hot", 200, 0, 199]]);
}

#[test]
fn unicode_payloads_survive_the_stack() {
    let eng = engine();
    let rows = vec![tuple!["köln", "ü-data"], tuple!["東京", "日本語"], tuple!["köln", "émoji ✨"]];
    eng.dfs().write_all("/d", &codec::encode_all(&rows)).unwrap();
    run(
        &eng,
        "A = load '/d' as (city, note);
         G = group A by city;
         R = foreach G generate group, COUNT(A);
         store R into '/out/uni';",
    );
    assert_eq!(read_sorted(&eng, "/out/uni"), vec![tuple!["köln", 2], tuple!["東京", 1]]);
}

#[test]
fn wide_tuples_project_correctly() {
    let eng = engine();
    let wide: Vec<Value> = (0..40).map(Value::Int).collect();
    eng.dfs().write_all("/d", &codec::encode_all(&[Tuple::from_values(wide)])).unwrap();
    run(
        &eng,
        "A = load '/d' as (c0);
         B = foreach A generate $39, $0, $20;
         store B into '/out/wide';",
    );
    assert_eq!(read_sorted(&eng, "/out/wide"), vec![tuple![39, 0, 20]]);
}

#[test]
fn join_with_empty_side_is_empty() {
    let eng = engine();
    eng.dfs().write_all("/a", &codec::encode_all(&[tuple!["x", 1]])).unwrap();
    eng.dfs().write_all("/b", &codec::encode_all(&[])).unwrap();
    run(
        &eng,
        "A = load '/a' as (k, n:int);
         B = load '/b' as (k, m:int);
         J = join A by k, B by k;
         store J into '/out/j';",
    );
    assert_eq!(read_sorted(&eng, "/out/j"), Vec::<Tuple>::new());
}

#[test]
fn join_keys_with_nulls_are_dropped() {
    // Pig inner joins drop null keys.
    let eng = engine();
    let a = vec![
        Tuple::from_values(vec![Value::Null, Value::Int(1)]),
        Tuple::from_values(vec![Value::str("k"), Value::Int(2)]),
    ];
    let b = vec![
        Tuple::from_values(vec![Value::Null, Value::Int(10)]),
        Tuple::from_values(vec![Value::str("k"), Value::Int(20)]),
    ];
    eng.dfs().write_all("/a", &codec::encode_all(&a)).unwrap();
    eng.dfs().write_all("/b", &codec::encode_all(&b)).unwrap();
    run(
        &eng,
        "A = load '/a' as (k, n:int);
         B = load '/b' as (k, m:int);
         J = join A by k, B by k;
         store J into '/out/jn';",
    );
    // Only the non-null key pair joins.
    assert_eq!(read_sorted(&eng, "/out/jn"), vec![tuple!["k", 2, "k", 20]]);
}

#[test]
fn distinct_on_duplicated_file() {
    let eng = engine();
    let rows: Vec<Tuple> = (0..50).map(|i| tuple![i % 5]).collect();
    eng.dfs().write_all("/d", &codec::encode_all(&rows)).unwrap();
    run(
        &eng,
        "A = load '/d' as (n:int);
         B = union A, A;
         C = distinct B;
         store C into '/out/dd';",
    );
    assert_eq!(read_sorted(&eng, "/out/dd"), (0..5).map(|i| tuple![i]).collect::<Vec<_>>());
}

#[test]
fn limit_zero_produces_empty_output() {
    let eng = engine();
    eng.dfs().write_all("/d", &codec::encode_all(&[tuple![1], tuple![2]])).unwrap();
    run(
        &eng,
        "A = load '/d' as (n:int);
         B = limit A 0;
         store B into '/out/l0';",
    );
    assert_eq!(read_sorted(&eng, "/out/l0"), Vec::<Tuple>::new());
}

#[test]
fn order_by_with_duplicate_keys_is_stable_output() {
    let eng = engine();
    let rows = vec![tuple![2, "b"], tuple![1, "x"], tuple![2, "a"], tuple![1, "y"]];
    eng.dfs().write_all("/d", &codec::encode_all(&rows)).unwrap();
    run(
        &eng,
        "A = load '/d' as (n:int, s);
         B = order A by n;
         store B into '/out/ord';",
    );
    let got = codec::decode_all(&eng.dfs().read_all("/out/ord").unwrap()).unwrap();
    // Keys ascending; ties allowed in any (but deterministic) order.
    let keys: Vec<i64> = got.iter().map(|t| t.get(0).as_i64().unwrap()).collect();
    assert_eq!(keys, vec![1, 1, 2, 2]);
    // Determinism: run again into another path, same bytes.
    run(
        &eng,
        "A = load '/d' as (n:int, s);
         B = order A by n;
         store B into '/out/ord2';",
    );
    assert_eq!(eng.dfs().read_all("/out/ord").unwrap(), eng.dfs().read_all("/out/ord2").unwrap());
}

#[test]
fn group_by_double_keys() {
    // Float group keys exercise the ordered-double hashing path.
    let eng = engine();
    let rows = vec![tuple![0.5, 1], tuple![1.5, 2], tuple![0.5, 3]];
    eng.dfs().write_all("/d", &codec::encode_all(&rows)).unwrap();
    run(
        &eng,
        "A = load '/d' as (k:double, n:int);
         G = group A by k;
         R = foreach G generate group, SUM(A.n);
         store R into '/out/fk';",
    );
    assert_eq!(read_sorted(&eng, "/out/fk"), vec![tuple![0.5, 4], tuple![1.5, 2]]);
}

#[test]
fn deeply_nested_expressions() {
    let eng = engine();
    eng.dfs().write_all("/d", &codec::encode_all(&[tuple![3, 4]])).unwrap();
    run(
        &eng,
        "A = load '/d' as (a:int, b:int);
         B = foreach A generate ((a + b) * (a - b)) % 7 as x,
             ROUND((a * 1.0) / (b * 1.0) * 100.0) as pct;
         store B into '/out/expr';",
    );
    // (3+4)*(3-4) = -7; -7 % 7 = 0 (Rust semantics). 3/4*100 = 75.
    assert_eq!(read_sorted(&eng, "/out/expr"), vec![tuple![0, 75]]);
}
