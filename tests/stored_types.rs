//! Reuse must not retype a value. A sub-job rewrite adds a job boundary
//! the no-reuse run does not have: the reused Load reads back what an
//! injected Store wrote in the middle of a job. Each test here runs a
//! prefix query whose candidate sub-job ends right after a value that text
//! storage cannot carry, then a query that groups, orders or computes on
//! that value, and compares its output bytes with the no-reuse baseline.
//!
//! The three values are the cases `infer_value` re-types when a stored
//! result is text: a string that only looks numeric (`"007"` → `Int(7)`),
//! an integral double of 1e15 or more (rendered without `.0`, so it comes
//! back an `Int`), and NaN/±inf (rendered `NaN`/`inf`, which come back as
//! strings). A fourth test covers the one stored result that stays text,
//! a registered final output.
//!
//! A compiled workflow's own job boundaries, the `tmp-N` files, are typed
//! whoever runs it: the last test runs one with no ReStore at all.

use restore_suite::common::{codec, Tuple, Value};
use restore_suite::core::{QueryExecution, ReStore, ReStoreConfig};
use restore_suite::dataflow::{compile, exec};
use restore_suite::dfs::DfsConfig;
use restore_suite::mapreduce::{Engine, EngineConfig};
use restore_testkit::{baseline_output, engine_over, small_dfs, Oracle};

fn engine(rows: &[Tuple]) -> Engine {
    let dfs = small_dfs(
        Some(DfsConfig { nodes: 4, block_size: 64, replication: 2, node_capacity: None }),
        &[("/d", &codec::encode_all(rows))],
    );
    engine_over(dfs, Some(EngineConfig { worker_threads: 2, default_reduce_tasks: 3 }))
}

fn session(rows: &[Tuple], config: ReStoreConfig) -> ReStore {
    ReStore::new(engine(rows), config)
}

/// Run `prefix` then `query` through the oracle on a reusing session
/// over `rows`, and compare `query`'s output with the baseline's byte for
/// byte, line order included. Returns `query`'s execution.
fn reuse_matches_baseline(rows: &[Tuple], prefix: &str, query: &str) -> QueryExecution {
    let rs = session(rows, ReStoreConfig::default());
    let mut runs = Oracle::check(&rs, &[prefix, query]).unwrap();
    let query = runs.pop().unwrap();
    let dfs = rs.engine().dfs();
    let got = dfs.read_all(&query.final_output).unwrap();
    let want = dfs.read_all(&baseline_output("/out/query")).unwrap();
    assert_eq!(String::from_utf8(got).unwrap(), String::from_utf8(want).unwrap());
    query
}

fn rows(keys: &[(&str, f64)]) -> Vec<Tuple> {
    keys.iter().map(|&(k, v)| Tuple::from_values(vec![Value::str(k), Value::Double(v)])).collect()
}

#[test]
fn a_numeric_looking_string_stays_a_string() {
    // SUBSTRING and CONCAT of a literal make "007", "7", "07" and "0x7":
    // three of them read back as the same Int(7) from text.
    let data = rows(&[("x007", 1.0), ("x7", 2.0), ("x07", 3.0), ("x007", 4.0)]);
    let make = "A = load '/d' as (k, v:double);
                B = foreach A generate SUBSTRING(k, 1, 9) as s, CONCAT('0', k) as c, v;";
    let prefix = format!("{make} C = filter B by s != 'zz'; store C into '/out/prefix';");
    let query = format!(
        "{make} G = group B by s;
         R = foreach G generate group, COUNT(B), MIN(B.c);
         store R into '/out/query';"
    );
    let exec = reuse_matches_baseline(&data, &prefix, &query);
    assert!(!exec.rewrites.is_empty(), "the query reads the prefix's stored candidate");
}

#[test]
fn an_integral_double_of_1e15_or_more_stays_a_double() {
    // 2e15 renders as "2000000000000000": as an Int it divides by 7 with
    // truncation, to just below the threshold the Double clears.
    let data = rows(&[("a", 2.0), ("b", 1.0), ("c", 2.0)]);
    let make = "A = load '/d' as (k, v:double);
                B = foreach A generate k, v * 1000000000000000.0 as w;";
    let prefix = format!("{make} C = filter B by w > 0.0; store C into '/out/prefix';");
    let query = format!(
        "{make} C = filter B by w / 7 > 285714285714285.5;
         store C into '/out/query';"
    );
    let exec = reuse_matches_baseline(&data, &prefix, &query);
    assert!(!exec.rewrites.is_empty(), "the query reads the prefix's stored candidate");
}

#[test]
fn nan_and_infinities_stay_doubles() {
    // v * 1e300 * 1e300 overflows to ±inf (and stays 0 for 0), and the
    // difference of two infinities is NaN. Ordered as doubles, -inf comes
    // first and NaN last; read back from text they are strings, which
    // order after every number.
    let big = format!("1{}.0", "0".repeat(300));
    let data = rows(&[("a", 1.0), ("b", -1.0), ("c", 0.0), ("d", 2.0)]);
    let make = format!(
        "A = load '/d' as (k, v:double);
         B = foreach A generate k, v * {big} * {big} as w, v * {big} * {big} - v * {big} * {big} as z;"
    );
    let prefix = format!("{make} C = filter B by w is not null; store C into '/out/prefix';");
    let query = format!("{make} O = order B by w, z; store O into '/out/query';");
    let exec = reuse_matches_baseline(&data, &prefix, &query);
    assert!(!exec.rewrites.is_empty(), "the query reads the prefix's stored candidate");
}

#[test]
fn a_final_output_that_would_retype_is_not_registered() {
    // The prefix's final output holds "007", and its job is the query's
    // first operator: registered, it would be Loaded back as text.
    let data = rows(&[("x007", 1.0), ("x7", 2.0)]);
    let make = "A = load '/d' as (k, v:double);
                B = foreach A generate SUBSTRING(k, 1, 9) as s, v;";
    let prefix = format!("{make} store B into '/out/prefix';");
    let query = format!(
        "{make} G = group B by s;
         R = foreach G generate group, COUNT(B);
         store R into '/out/query';"
    );
    let exec = reuse_matches_baseline(&data, &prefix, &query);
    assert_eq!(exec.rewrites.len(), 0, "nothing the query could reuse was registered");

    let rs = session(&data, ReStoreConfig::default());
    rs.execute_query(&prefix, "/wf/prefix").unwrap();
    let repo = rs.repository_as(None);
    assert!(
        repo.entries().iter().all(|e| e.file.path != "/out/prefix"),
        "the lossy final output has no entry"
    );
    let metrics = rs.registry().render();
    assert!(
        metrics.contains("restore_candidates_vetoed_total{reason=\"retypes\"} 2"),
        "the whole-job entry and the candidate that aliases it are vetoed:\n{metrics}"
    );

    // A clean final output is registered as before.
    let clean = rs.execute_query(
        "A = load '/d' as (k, v:double); B = foreach A generate k, v; store B into '/out/clean';",
        "/wf/clean",
    );
    clean.unwrap();
    let repo = rs.repository_as(None);
    assert!(repo.entries().iter().any(|e| e.file.path == "/out/clean"));
}

#[test]
fn a_user_output_is_never_an_alias_of_a_typed_file() {
    // The prefix stores its filter as a typed candidate; the query is that
    // filter alone, so its rewritten job is a copy of the candidate into
    // the user's path. It runs as a job, and the user reads text.
    let data = rows(&[("a", 1.0), ("b", -2.0), ("c", 3.5)]);
    let filter = "A = load '/d' as (k, v:double); B = filter A by v > 0.0;";
    let prefix = format!(
        "{filter} G = group B by k; R = foreach G generate group, COUNT(B);
         store R into '/out/prefix';"
    );
    let query = format!("{filter} store B into '/out/query';");
    let exec = reuse_matches_baseline(&data, &prefix, &query);
    assert_eq!(exec.rewrites.len(), 1, "the query reads the prefix's candidate");
    assert_eq!((exec.jobs_skipped, exec.job_results.len()), (0, 1), "the copy ran");
    assert_eq!(exec.final_output, "/out/query");
}

#[test]
fn a_compiled_workflow_runs_the_same_without_restore() {
    // The group's output crosses to the order job through `tmp-0`; read
    // back as text, "007", "07" and "7" would all be Int(7).
    let data = rows(&[("x007", 1.0), ("x07", 2.0), ("x7", 3.0), ("x007", 4.0)]);
    let query = "A = load '/d' as (k, v:double);
                 B = foreach A generate SUBSTRING(k, 1, 9) as s;
                 G = group B by s;
                 R = foreach G generate group, COUNT(B);
                 O = order R by $0;
                 store O into '/out/query';";
    let wf = compile(query, "/wf/query").unwrap();
    assert_eq!(wf.jobs.len(), 2);
    let eng = engine(&data);
    exec::run_workflow(&eng, &wf, "plain").unwrap();
    let plain = eng.dfs().read_all("/out/query").unwrap();

    let rs = session(&data, ReStoreConfig::baseline());
    let baseline = rs.execute_query(query, "/wf/query").unwrap();
    let baseline = rs.engine().dfs().read_all(&baseline.final_output).unwrap();
    assert_eq!(String::from_utf8(plain).unwrap(), String::from_utf8(baseline).unwrap());
}
