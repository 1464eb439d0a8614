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
//!    misses with it off — the tentpole behavior, in one assertion;
//! 4. **a template binds to the direct compile**: `compile_as`, whether
//!    it compiles a template or binds a held one, returns the workflow
//!    the dataflow compiler builds from the same text, either way.

use restore_core::{ReStore, ReStoreConfig};
use restore_dataflow::template::MARK;
use restore_dataflow::{compile, compile_canonical};
use restore_pigmix::{paraphrase, queries, synthetic};
use restore_testkit::{pv_users, session_over};

fn session(canonicalize: bool) -> ReStore {
    session_over(&pv_users(), ReStoreConfig { canonicalize, ..Default::default() })
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
    let off = session(false);
    let manual = session(false);
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
    let on = session(true);
    let off = session(false);
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

    let on = session(true);
    on.execute_query(original, "/wf/p1").unwrap();
    let warm = on.execute_query(paraphrase, "/wf/p2").unwrap();
    assert_eq!(warm.jobs_skipped, 1, "the paraphrase must be served from the repository");

    let off = session(false);
    off.execute_query(original, "/wf/p1").unwrap();
    let cold = off.execute_query(paraphrase, "/wf/p2").unwrap();
    assert_eq!(cold.jobs_skipped, 0, "without the analyzer the paraphrase misses");
}

/// The texts the binding oracle compiles, storing under `out`: the
/// PigMix standard queries, every paraphrase-suite original and
/// paraphrase, the §7.5 QP and QF templates, a script that stores one
/// literal twice, one whose store literal is also a Load literal, and
/// one with the mark in a literal.
fn oracle_texts(out: &str) -> Vec<String> {
    let mut texts: Vec<String> =
        queries::standard_workload(out).into_iter().map(|(_, q)| q).collect();
    for case in paraphrase::paraphrase_suite(out) {
        texts.push(case.original);
        texts.extend(case.paraphrases);
    }
    texts.extend((1..=5).map(|k| synthetic::qp(k, &format!("{out}/qp{k}"))));
    texts.extend((6..=12).map(|f| synthetic::qf(f, &format!("{out}/qf{f}"))));
    texts.push(format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         S = foreach G generate group, SUM(A.n);
         store S into '{out}/twice';
         F = filter A by n > 2;
         store F into '{out}/twice';"
    ));
    texts.push(format!(
        "A = load '/data/pv' as (user, n:int);
         store A into '{out}/copy';
         B = load '{out}/copy' as (user, n:int);
         G = group B by user;
         S = foreach G generate group, COUNT(B);
         store S into '{out}/counts';"
    ));
    texts.push(format!("A = load '/data/pv' as (user, n:int); store A into '{out}/{MARK}0';"));
    texts
}

#[test]
fn compile_as_binds_a_template_to_the_direct_compile() {
    for canonicalize in [false, true] {
        let rs = session(canonicalize);
        let direct = |text: &str, prefix: &str| {
            if canonicalize {
                compile_canonical(text, prefix).map(|(wf, _)| wf)
            } else {
                compile(text, prefix)
            }
        };
        let outcome = |outcome: &str| {
            rs.registry()
                .counter("restore_compile_templates_total", "", &[("outcome", outcome)])
                .get()
        };
        // The second round has other output paths and prefixes: every
        // template it needs, the first round compiled.
        let n = oracle_texts("/out").len() as u64;
        for (round, (out, wf)) in [("/out/a", "/wf/a"), ("/elsewhere/b", "/w")].iter().enumerate() {
            for (i, text) in oracle_texts(out).iter().enumerate() {
                let prefix = format!("{wf}/q{i}");
                let bound = rs.compile_as(None, text, &prefix).unwrap();
                assert_eq!(
                    bound,
                    direct(text, &prefix).unwrap(),
                    "canonicalize {canonicalize}: {text}"
                );
            }
            // Only the text with the mark has no key. A Load literal is
            // part of the key, so the script that loads its own store
            // literal is a new template under a new `out`.
            let round = round as u64;
            assert_eq!(outcome("bypass"), round + 1);
            assert_eq!(outcome("miss"), n - 1 + round);
            assert_eq!(outcome("hit"), round * (n - 2));
        }
        // In the direct compile a Load of one of the prefix's own
        // temporaries shares the scan of the temporary it names; bound
        // from a template, it would not. Such a text is compiled directly.
        let reads_tmp = "A = load '/data/pv' as (user, n:int);
                         G = group A by user;
                         S = foreach G generate group, COUNT(A);
                         T = load '/wf/t/tmp-0' as (user, c:int);
                         J = join S by $0, T by user;
                         store J into '/out/j';";
        let bypassed = outcome("bypass");
        assert_eq!(
            rs.compile_as(None, reads_tmp, "/wf/t").unwrap(),
            direct(reads_tmp, "/wf/t").unwrap()
        );
        assert_eq!(outcome("bypass"), bypassed + 1);
        // A malformed text fails with the direct compile's error, its
        // line:col included, although the marked text is what it tried
        // first.
        for bad in [
            "A = load '/data/pv' as (user);\nstore A into '/out/long/path' B = load '/x';",
            "A = load '/data/pv' as (user); store B into '/out/undefined';",
            "A = load '/data/pv' as (user); store A into '/out/x'; #",
            "A = load '/data/pv' as (user); store A into '/out/unterminated;",
        ] {
            let err = rs.compile_as(None, bad, "/wf/bad").unwrap_err();
            assert_eq!(err.to_string(), direct(bad, "/wf/bad").unwrap_err().to_string(), "{bad}");
        }
    }
}
