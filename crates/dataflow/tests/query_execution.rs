//! Integration tests of the dataflow stack: queries exercising every
//! statement and operator combination through compile + execute, checked
//! against hand-computed answers.

use restore_common::{codec, tuple, Tuple, Value};
use restore_dataflow::{compile, exec};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{Engine, EngineConfig};
use restore_testkit::{engine_over, lines_of, read_lines_sorted, small_dfs};

fn engine() -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 512, replication: 2, node_capacity: None }),
        &[],
    );
    engine_over(dfs, Some(EngineConfig { worker_threads: 4, default_reduce_tasks: 3 }))
}

fn write(dfs: &Dfs, path: &str, rows: &[Tuple]) {
    dfs.write_all(path, &codec::encode_all(rows)).unwrap();
}

fn run(eng: &Engine, q: &str) {
    exec::run_workflow(eng, &compile(q, "/wf").unwrap(), "t").unwrap();
}

#[test]
fn split_statement_end_to_end() {
    let eng = engine();
    write(eng.dfs(), "/d", &[tuple![5, "a"], tuple![15, "b"], tuple![25, "c"], tuple![10, "d"]]);
    run(
        &eng,
        "A = load '/d' as (n:int, s);
         split A into Small if n < 10, Mid if n >= 10 and n < 20, Big if n >= 20;
         store Small into '/out/small';
         store Mid into '/out/mid';
         store Big into '/out/big';",
    );
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/small"), lines_of(&[tuple![5, "a"]]));
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/mid"),
        lines_of(&[tuple![10, "d"], tuple![15, "b"]])
    );
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/big"), lines_of(&[tuple![25, "c"]]));
}

#[test]
fn split_branches_can_overlap() {
    // Pig semantics: branch conditions are independent.
    let eng = engine();
    write(eng.dfs(), "/d", &[tuple![1], tuple![2], tuple![3]]);
    run(
        &eng,
        "A = load '/d' as (n:int);
         split A into Odd if n % 2 == 1, All if n > 0;
         store Odd into '/out/odd';
         store All into '/out/all';",
    );
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/odd"), lines_of(&[tuple![1], tuple![3]]));
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/all").len(), 3);
}

#[test]
fn string_functions_in_queries() {
    let eng = engine();
    write(eng.dfs(), "/d", &[tuple!["  alpha  ", "prefix-one"], tuple!["beta", "other-two"]]);
    run(
        &eng,
        "A = load '/d' as (raw, tagged);
         B = foreach A generate TRIM(raw) as name, SUBSTRING(tagged, 0, 6) as head,
             STARTSWITH(tagged, 'prefix') as is_pref;
         store B into '/out/s';",
    );
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/s"),
        lines_of(&[tuple!["alpha", "prefix", 1], tuple!["beta", "other-", 0]])
    );
}

#[test]
fn three_way_union_and_distinct() {
    let eng = engine();
    write(eng.dfs(), "/a", &[tuple!["x"], tuple!["y"]]);
    write(eng.dfs(), "/b", &[tuple!["y"], tuple!["z"]]);
    write(eng.dfs(), "/c", &[tuple!["z"], tuple!["w"]]);
    run(
        &eng,
        "A = load '/a' as (u); B = load '/b' as (u); C = load '/c' as (u);
         U = union A, B, C;
         D = distinct U;
         store D into '/out/u';",
    );
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/u"),
        lines_of(&[tuple!["w"], tuple!["x"], tuple!["y"], tuple!["z"]])
    );
}

#[test]
fn three_way_join() {
    let eng = engine();
    write(eng.dfs(), "/a", &[tuple!["k1", 1], tuple!["k2", 2]]);
    write(eng.dfs(), "/b", &[tuple!["k1", 10.0], tuple!["k3", 30.0]]);
    write(eng.dfs(), "/c", &[tuple!["k1", "x"], tuple!["k2", "y"]]);
    run(
        &eng,
        "A = load '/a' as (k, n:int);
         B = load '/b' as (k, v:double);
         C = load '/c' as (k, s);
         J = join A by k, B by k, C by k;
         store J into '/out/j3';",
    );
    // Only k1 appears in all three inputs.
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/j3"),
        lines_of(&[tuple!["k1", 1, "k1", 10.0, "k1", "x"]])
    );
}

#[test]
fn composite_key_join() {
    let eng = engine();
    write(eng.dfs(), "/a", &[tuple!["u", 1, "left1"], tuple!["u", 2, "left2"]]);
    write(eng.dfs(), "/b", &[tuple!["u", 1, "right1"], tuple!["v", 1, "rightX"]]);
    run(
        &eng,
        "A = load '/a' as (k1, k2:int, pay);
         B = load '/b' as (k1, k2:int, pay);
         J = join A by (k1, k2), B by (k1, k2);
         store J into '/out/ck';",
    );
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/ck"),
        lines_of(&[tuple!["u", 1, "left1", "u", 1, "right1"]])
    );
}

#[test]
fn order_by_two_keys_mixed_direction() {
    let eng = engine();
    write(eng.dfs(), "/d", &[tuple!["b", 1], tuple!["a", 2], tuple!["a", 1], tuple!["b", 2]]);
    run(
        &eng,
        "A = load '/d' as (s, n:int);
         B = order A by s asc, n desc;
         store B into '/out/o';",
    );
    let rows = codec::decode_all(&eng.dfs().read_all("/out/o").unwrap()).unwrap();
    assert_eq!(rows, vec![tuple!["a", 2], tuple!["a", 1], tuple!["b", 2], tuple!["b", 1]]);
}

#[test]
fn aggregates_over_empty_groups_and_nulls() {
    let eng = engine();
    let rows = vec![
        Tuple::from_values(vec![Value::str("k"), Value::Null]),
        Tuple::from_values(vec![Value::str("k"), Value::Int(4)]),
        Tuple::from_values(vec![Value::str("m"), Value::Null]),
    ];
    write(eng.dfs(), "/d", &rows);
    run(
        &eng,
        "A = load '/d' as (k, v:int);
         G = group A by k;
         R = foreach G generate group, COUNT(A.v), SUM(A.v);
         store R into '/out/agg';",
    );
    // COUNT skips nulls; SUM of all-null is null.
    let m = Tuple::from_values(vec![Value::str("m"), Value::Int(0), Value::Null]);
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/agg"), lines_of(&[tuple!["k", 1, 4], m]));
}

#[test]
fn arithmetic_projection_pipeline() {
    let eng = engine();
    write(eng.dfs(), "/d", &[tuple![3, 4.0], tuple![10, 0.5]]);
    run(
        &eng,
        "A = load '/d' as (n:int, f:double);
         B = foreach A generate n * 2 as dbl, f + 1.0 as inc, n % 3 as rem;
         store B into '/out/math';",
    );
    assert_eq!(
        read_lines_sorted(eng.dfs(), "/out/math"),
        lines_of(&[tuple![6, 5.0, 0], tuple![20, 1.5, 1]])
    );
}

#[test]
fn limit_after_group() {
    let eng = engine();
    let rows: Vec<Tuple> = (0..30).map(|i| tuple![format!("g{}", i % 10), i]).collect();
    write(eng.dfs(), "/d", &rows);
    run(
        &eng,
        "A = load '/d' as (g, n:int);
         G = group A by g;
         R = foreach G generate group, COUNT(A);
         L = limit R 4;
         store L into '/out/lim';",
    );
    let got = codec::decode_all(&eng.dfs().read_all("/out/lim").unwrap()).unwrap();
    assert_eq!(got.len(), 4);
    for t in got {
        assert_eq!(t.get(1), &Value::Int(3));
    }
}

#[test]
fn cogroup_preserves_empty_sides() {
    let eng = engine();
    write(eng.dfs(), "/a", &[tuple!["x", 1]]);
    write(eng.dfs(), "/b", &[tuple!["y", 2]]);
    run(
        &eng,
        "A = load '/a' as (k, n:int);
         B = load '/b' as (k, n:int);
         C = cogroup A by k, B by k;
         store C into '/out/cg';",
    );
    let got = codec::decode_all(&eng.dfs().read_all("/out/cg").unwrap()).unwrap();
    assert_eq!(got.len(), 2);
    // Key x: bag A non-empty, bag B empty; key y: the reverse.
    let x = got.iter().find(|t| t.get(0) == &Value::str("x")).unwrap();
    assert_eq!(x.get(1).as_bag().unwrap().len(), 1);
    assert_eq!(x.get(2).as_bag().unwrap().len(), 0);
    let y = got.iter().find(|t| t.get(0) == &Value::str("y")).unwrap();
    assert_eq!(y.get(1).as_bag().unwrap().len(), 0);
    assert_eq!(y.get(2).as_bag().unwrap().len(), 1);
}

#[test]
fn deeply_chained_workflow() {
    // Four blocking operators = four MapReduce jobs in sequence.
    let eng = engine();
    let rows: Vec<Tuple> = (0..40).map(|i| tuple![format!("u{}", i % 8), i]).collect();
    write(eng.dfs(), "/d", &rows);
    let wf = compile(
        "A = load '/d' as (u, n:int);
         G1 = group A by u;
         S1 = foreach G1 generate group as u, COUNT(A) as c;
         D = distinct S1;
         G2 = group D by c;
         S2 = foreach G2 generate group, COUNT(D);
         O = order S2 by group;
         store O into '/out/deep';",
        "/wf",
    )
    .unwrap();
    assert!(wf.jobs.len() >= 4, "expected >= 4 jobs, got {}", wf.jobs.len());
    exec::run_workflow(&eng, &wf, "deep").unwrap();
    let got = codec::decode_all(&eng.dfs().read_all("/out/deep").unwrap()).unwrap();
    // All 8 users have 5 rows each -> one group (c=5) with 8 distinct users.
    assert_eq!(got, vec![tuple![5, 8]]);
}

#[test]
fn is_null_filters() {
    let eng = engine();
    let rows = vec![
        Tuple::from_values(vec![Value::str("a"), Value::Null]),
        Tuple::from_values(vec![Value::str("b"), Value::Int(1)]),
    ];
    write(eng.dfs(), "/d", &rows);
    run(
        &eng,
        "A = load '/d' as (k, v:int);
         B = filter A by v is null;
         C = foreach B generate k;
         store C into '/out/nulls';",
    );
    assert_eq!(read_lines_sorted(eng.dfs(), "/out/nulls"), lines_of(&[tuple!["a"]]));
}
