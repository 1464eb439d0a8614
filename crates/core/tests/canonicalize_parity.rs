//! Lockstep parity for `ReStoreConfig::canonicalize`:
//!
//! 1. **off = today**: a session with the analyzer disabled is
//!    byte-identical — outputs, execution accounting, and the full
//!    state dump — to a session driving the plain `compile` path by
//!    hand, across a mixed workload;
//! 2. **on = same answers**: the analyzer changes which plans are
//!    *equal*, never what they *compute* — outputs byte-match an
//!    analyzer-off twin;
//! 3. **on = paraphrase reuse**: a semantically-equal rewrite of a warm
//!    query is served from the repository with the analyzer on, and
//!    misses with it off — the tentpole behavior, in one assertion.

use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::{Dfs, DfsConfig};
use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};

fn dfs() -> Dfs {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\ncarol\t9\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\n").unwrap();
    dfs
}

fn session(dfs: Dfs, canonicalize: bool) -> ReStore {
    ReStore::new(
        Engine::new(dfs, ClusterConfig::default(), EngineConfig::default()),
        ReStoreConfig { canonicalize, ..Default::default() },
    )
}

/// A small mixed workload (filter pipeline, join + group, rerun).
fn workload() -> Vec<(String, String)> {
    let filter = |out: &str| {
        format!(
            "A = load '/data/pv' as (user, n:int);
             B = filter A by n > 2;
             C = filter B by user == 'alice';
             store C into '{out}';"
        )
    };
    let join = |out: &str| {
        format!(
            "A = load '/data/pv' as (user, revenue:int);
             B = load '/data/users' as (name, city);
             C = join B by name, A by user;
             D = group C by $0;
             E = foreach D generate group, SUM(C.revenue);
             store E into '{out}';"
        )
    };
    vec![
        (filter("/out/f1"), "/wf/f1".to_string()),
        (join("/out/j1"), "/wf/j1".to_string()),
        (filter("/out/f2"), "/wf/f2".to_string()),
        (join("/out/j2"), "/wf/j2".to_string()),
    ]
}

#[test]
fn canonicalize_off_is_byte_identical_to_the_plain_compile_path() {
    let off = session(dfs(), false);
    let manual = session(dfs(), false);
    for (q, wf) in workload() {
        let a = off.execute_query(&q, &wf).unwrap();
        // The twin drives today's pre-analyzer pipeline by hand.
        let compiled = restore_dataflow::compile(&q, &wf).unwrap();
        let b = manual.execute_workflow_as(None, compiled).unwrap();
        assert_eq!(a.jobs_skipped, b.jobs_skipped);
        assert_eq!(a.rewrites, b.rewrites);
        assert_eq!(a.final_output, b.final_output);
        assert_eq!(
            off.engine().dfs().read_all(&a.final_output).unwrap(),
            manual.engine().dfs().read_all(&b.final_output).unwrap(),
            "output bytes must match for {q}"
        );
    }
    assert_eq!(
        off.save_state(),
        manual.save_state(),
        "the full session state must be byte-identical in lockstep"
    );
}

#[test]
fn canonicalize_on_preserves_every_output_byte() {
    let on = session(dfs(), true);
    let off = session(dfs(), false);
    for (q, wf) in workload() {
        let a = on.execute_query(&q, &wf).unwrap();
        let b = off.execute_query(&q, &wf).unwrap();
        assert_eq!(a.final_output, b.final_output);
        assert_eq!(
            on.engine().dfs().read_all(&a.final_output).unwrap(),
            off.engine().dfs().read_all(&b.final_output).unwrap(),
            "analyzer must never change computed bytes for {q}"
        );
    }
}

#[test]
fn paraphrase_hits_warm_only_with_the_analyzer_on() {
    let original = "A = load '/data/pv' as (user, n:int);
                    B = filter A by n > 2 and user == 'alice';
                    store B into '/out/p';";
    // Same semantics, three paraphrase classes at once: chained filters
    // instead of one conjunction, swapped legs, literal-first compares.
    let paraphrase = "A = load '/data/pv' as (user, n:int);
                      B = filter A by user == 'alice';
                      C = filter B by 2 < n;
                      store C into '/out/p';";

    let on = session(dfs(), true);
    on.execute_query(original, "/wf/p1").unwrap();
    let warm = on.execute_query(paraphrase, "/wf/p2").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "the paraphrase must be served from the repository");

    let off = session(dfs(), false);
    off.execute_query(original, "/wf/p1").unwrap();
    let cold = off.execute_query(paraphrase, "/wf/p2").unwrap();
    assert_eq!(cold.jobs_skipped, 0, "without the analyzer the paraphrase misses");
}
