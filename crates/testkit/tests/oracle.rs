//! The oracle cannot pass vacuously: a session whose answer was tampered
//! with is named, query index and both answers, and a repository entry
//! whose file is gone or does not decode is named by its path.

use restore_core::{ReStore, ReStoreConfig};
use restore_testkit::{
    check_repository, join_query, overwrite, pv_users, session_over, sum_query, Oracle,
};

#[test]
fn a_tampered_output_is_named_with_both_answers() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    let runs = Oracle::check(&rs, &[sum_query("/out/a"), sum_query("/out/b")]).unwrap();
    assert_eq!(runs[1].jobs_skipped, 1, "the rerun is answered from the repository");
    assert_eq!(runs[1].final_output, "/out/a");

    // The entry that answers the query is replaced by one with the same
    // plan and statistics whose file holds another answer: what a wrong
    // registration or a wrong match would serve.
    rs.engine().dfs().write_all("/out/forged", b"mallory\t1\n").unwrap();
    rs.with_repository_mut_as(None, |repo| {
        let snapshot = repo.snapshot();
        let real = snapshot.entries().iter().find(|e| e.output_path == "/out/a").unwrap();
        repo.evict(real.id);
        repo.insert(real.plan.clone(), "/out/forged", real.stats());
    });
    let err = Oracle::check(&rs, &[join_query("/out/j"), sum_query("/out/c")]).unwrap_err();
    assert!(err.starts_with("query 1 (stores /out/c): "), "{err}");
    assert!(err.contains(r#"got ["mallory\t1"]"#), "{err}");
    assert!(err.contains(r#"want ["alice\t5", "bob\t7", "carol\t9"]"#), "{err}");
}

#[test]
fn a_store_path_is_used_once() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    Oracle::check(&rs, &[sum_query("/out/a")]).unwrap();
    let err = Oracle::check(&rs, &[sum_query("/out/a")]).unwrap_err();
    assert_eq!(err, "query 0 stores into /out/a, which already exists");
}

fn stored(rs: &ReStore) -> Vec<String> {
    rs.repository_as(None).entries().iter().map(|e| e.output_path.clone()).collect()
}

#[test]
fn an_entry_whose_file_is_gone_or_garbled_is_named() {
    let rs = session_over(&pv_users(), ReStoreConfig::default());
    Oracle::check(&rs, &[join_query("/out/j")]).unwrap();
    let dfs = rs.engine().dfs();
    let typed = stored(&rs)
        .into_iter()
        .find(|p| p.starts_with("/restore/"))
        .expect("a typed candidate is stored");
    let mut bytes = dfs.read_all(&typed).unwrap();
    bytes.remove(0);
    overwrite(dfs, &typed, &bytes);
    let err = check_repository(&rs).unwrap_err();
    assert!(err.contains(&format!("{typed} does not decode")), "{err}");

    assert!(dfs.delete(&typed));
    let err = check_repository(&rs).unwrap_err();
    assert!(err.contains(&format!("points at {typed}")), "{err}");
}
