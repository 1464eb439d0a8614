//! Repository ordering invariants: the §3 "first match is best match"
//! guarantee must not depend on the order entries were inserted.

use restore_core::{MatchProbe, RepoStats, Repository, StoredFile};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};

/// Build the paper's three-plan family: the full Q1 join plan, and the
/// two Load+Project sub-plans it subsumes (Figures 2 and 5).
fn q1_family() -> (PhysicalPlan, PhysicalPlan, PhysicalPlan) {
    let full = {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let p1 = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l1]);
        let l2 = p.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p2 = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l2]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p1, p2]);
        p.add(PhysicalOp::Store { path: "/q1".into() }, vec![j]);
        p
    };
    let sub = |path: &str, cols: Vec<usize>| {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols }, vec![l]);
        p.add(PhysicalOp::Store { path: format!("/s{path}") }, vec![pr]);
        p
    };
    (full, sub("/users", vec![0]), sub("/pv", vec![0, 2]))
}

fn stats(ratio_hint: u64) -> RepoStats {
    RepoStats {
        input_bytes: 1000,
        output_bytes: 1000 / ratio_hint.max(1),
        job_time_s: ratio_hint as f64,
        ..Default::default()
    }
}

/// All six insertion orders of {full, subA, subB} yield the same first
/// match for a Q1-shaped query: the subsuming full plan.
#[test]
fn first_match_is_insertion_order_invariant() {
    let (full, sub_a, sub_b) = q1_family();
    let query = full.clone();

    let plans = [("full", full.clone()), ("subA", sub_a.clone()), ("subB", sub_b.clone())];
    let orders: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for order in orders {
        let repo = Repository::new();
        for &i in &order {
            repo.insert(
                StoredFile::new(format!("/out/{}", plans[i].0), plans[i].1.clone()),
                stats(2),
            );
        }
        // Rule 1: the subsuming plan comes first regardless of insertion.
        let snap = repo.snapshot();
        let first = &snap.entries()[0];
        assert_eq!(first.file.path, "/out/full", "order {order:?} put {} first", first.file.path);
        let mut probe = MatchProbe::default();
        let (id, _) =
            repo.snapshot().find_first_match_probed(&query, |_, _| false, &mut probe).unwrap();
        assert_eq!(repo.snapshot().get(id).unwrap().file.path, "/out/full", "order {order:?}");
    }
}

/// Among incomparable plans, rule 2 ordering (ratio, then time) is also
/// insertion-order invariant.
#[test]
fn rule2_order_is_insertion_order_invariant() {
    let mk = |path: &str| {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
        let f = p.add(PhysicalOp::Filter { pred: Expr::col_eq(0, 1i64) }, vec![l]);
        p.add(PhysicalOp::Store { path: format!("/o{path}") }, vec![f]);
        p
    };
    let entries = [("/a", 10u64), ("/b", 50), ("/c", 2), ("/d", 25)];
    let orders: Vec<Vec<usize>> =
        vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![2, 0, 3, 1], vec![1, 3, 0, 2]];
    let mut reference: Option<Vec<String>> = None;
    for order in orders {
        let repo = Repository::new();
        for &i in &order {
            let (path, ratio) = entries[i];
            repo.insert(StoredFile::new(format!("/out{path}"), mk(path)), stats(ratio));
        }
        let got: Vec<String> =
            repo.snapshot().entries().iter().map(|e| e.file.path.clone()).collect();
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "order {order:?}"),
        }
    }
    // And the order is by descending reduction ratio: /b, /d, /a, /c.
    assert_eq!(reference.unwrap(), vec!["/out/b", "/out/d", "/out/a", "/out/c"]);
}

/// Eviction keeps the remaining order intact.
#[test]
fn eviction_preserves_relative_order() {
    let (full, sub_a, sub_b) = q1_family();
    let repo = Repository::new();
    repo.insert(StoredFile::new("/out/subA", sub_a), stats(2));
    let full_id = match repo.insert(StoredFile::new("/out/full", full), stats(3)) {
        restore_core::repository::InsertOutcome::Inserted(id) => id,
        other => panic!("{other:?}"),
    };
    repo.insert(StoredFile::new("/out/subB", sub_b), stats(4));
    assert_eq!(repo.snapshot().entries()[0].file.path, "/out/full");
    repo.evict(full_id);
    // Sub-plans retain their rule-2 order (subB has higher ratio).
    let paths: Vec<String> =
        repo.snapshot().entries().iter().map(|e| e.file.path.clone()).collect();
    assert_eq!(paths, vec!["/out/subB", "/out/subA"]);
}
