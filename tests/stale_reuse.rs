//! Reuse must not outlive the data it was computed from. A stored result
//! answers a query only while every base file its plan reads still holds
//! the bytes it was computed from, and only while the stored file itself
//! is still there and still the one ReStore registered. Each test changes
//! one of those behind the session's back, reruns a query, and compares
//! its output bytes with a no-reuse session reading the same DFS; the
//! answer must be a miss (the work runs again), never a stale answer or
//! an error.
//!
//! Each case runs under the default configuration and with final outputs
//! not registered, so both whole-job entries and sub-job candidates are
//! covered, and asserts `restore_entries_evicted_total` by reason.

use restore_suite::core::{ReStore, ReStoreConfig, SelectionPolicy};
use restore_suite::dfs::Dfs;
use restore_testkit::{
    baseline_output, engine_over, join_query, overwrite, pv_users, session_over, small_dfs,
    sum_query, Oracle,
};

/// Filter, group and sum over one base file: one job.
const ONE_JOB: &str = "A = load '/data/e' as (user, n:int);
     B = filter A by n > 0;
     G = group B by user;
     R = foreach G generate group, SUM(B.n);
     store R into 'OUT';";

/// Join two base files, then group by city and sum: the group job reads
/// the join job's `tmp-0`, so its entry's plan reaches both base files
/// only through the join.
const JOIN_GROUP: &str = "A = load '/data/pv' as (user, revenue:int);
     B = load '/data/users' as (name, city);
     C = join B by name, A by user;
     D = group C by $1;
     E = foreach D generate group, SUM(C.revenue);
     store E into 'OUT';";

fn configs() -> [(&'static str, ReStoreConfig); 2] {
    [
        ("default", ReStoreConfig::default()),
        (
            "final outputs not registered",
            ReStoreConfig { register_final_outputs: false, ..Default::default() },
        ),
    ]
}

/// Every user in `/data/users` has a city, carol included: an answer
/// after `/data/pv` is rewritten to carol's row alone is not empty.
fn dfs() -> Dfs {
    const ROWS: &[u8] = b"alice\t4\nbob\t7\nalice\t1\n";
    const USERS: &[u8] = b"alice\tkitchener\nbob\ttoronto\ncarol\tparis\n";
    small_dfs(None, &[("/data/e", ROWS), ("/data/pv", ROWS), ("/data/users", USERS)])
}

fn session(config: ReStoreConfig) -> ReStore {
    ReStore::new(engine_over(dfs(), None), config)
}

fn query(template: &str, out: &str) -> String {
    template.replace("OUT", out)
}

/// Run `template` on `rs` under a fresh output path: `Err` says how its
/// answer differs from a no-reuse session's over the same DFS, line for
/// line and then byte for byte.
fn rerun(rs: &ReStore, template: &str, label: &str) -> Result<(), String> {
    let out = format!("/out/{label}");
    let runs = Oracle::check(rs, &[query(template, &out)])?;
    let dfs = rs.engine().dfs();
    let got = dfs.read_all(&runs[0].final_output).unwrap();
    let want = dfs.read_all(&baseline_output(&out)).unwrap();
    let (got, want) = (String::from_utf8(got).unwrap(), String::from_utf8(want).unwrap());
    (got == want).then_some(()).ok_or(format!("answered {got:?}, no reuse answers {want:?}"))
}

/// Every failed case, one per line.
fn report(failures: &[String]) {
    assert!(failures.is_empty(), "{} case(s) failed:\n{}", failures.len(), failures.join("\n"));
}

fn evicted(rs: &ReStore, reason: &str) -> u64 {
    rs.registry().counter("restore_entries_evicted_total", "", &[("reason", reason)]).get()
}

/// `restore_entries_evicted_total` by reason: `window`, `inputs_changed`,
/// `output_missing` and `overwritten`.
fn evictions(rs: &ReStore, want: [u64; 4]) -> Result<(), String> {
    let got = ["window", "inputs_changed", "output_missing", "overwritten"].map(|r| evicted(rs, r));
    (got == want).then_some(()).ok_or(format!("evicted {got:?} by reason, want {want:?}"))
}

#[test]
fn an_overwritten_input_is_a_miss_for_one_job() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session(config);
        rs.execute_query(&query(ONE_JOB, "/out/cold"), "/wf/cold").unwrap();
        let warm = rs.execute_query(&query(ONE_JOB, "/out/warm"), "/wf/warm").unwrap();
        assert!(!warm.rewrites.is_empty(), "{case}: the warm run reuses");
        let stored = rs.repository_as(None).len() as u64;

        overwrite(rs.engine().dfs(), "/data/e", b"carol\t100\n");
        failures.extend(rerun(&rs, ONE_JOB, "after").err().map(|e| format!("{case}: {e}")));
        // Every entry read `/data/e`, so every one of them goes.
        failures.extend(evictions(&rs, [0, stored, 0, 0]).err().map(|e| format!("{case}: {e}")));
    }
    report(&failures);
}

#[test]
fn an_overwritten_input_is_a_miss_through_an_intermediate_job() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session(config);
        rs.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
        let paths: Vec<String> =
            rs.repository_as(None).entries().iter().map(|e| e.file.path.clone()).collect();
        let stored = paths.len() as u64;
        assert!(stored >= 2, "{case}: the join's tmp-0 and more are stored");

        overwrite(rs.engine().dfs(), "/data/pv", b"carol\t100\n");
        failures.extend(rerun(&rs, JOIN_GROUP, "after").err().map(|e| format!("{case}: {e}")));
        // Every entry's plan reads `/data/pv`, the group job's through
        // the join's lineage.
        failures.extend(evictions(&rs, [0, stored, 0, 0]).err().map(|e| format!("{case}: {e}")));
        // What ReStore stored for itself goes with its entry; the user's
        // output stays.
        for path in &paths {
            if rs.engine().dfs().exists(path) != path.starts_with("/out/") {
                failures.push(format!("{case}: {path} kept: {}", rs.engine().dfs().exists(path)));
            }
        }
    }
    report(&failures);
}

#[test]
fn a_stored_file_lost_out_of_band_is_a_miss_in_a_recovered_session() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let cold = session(config.clone());
        cold.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
        let state = cold.save_state();
        let stored: Vec<String> =
            cold.repository_as(None).entries().iter().map(|e| e.file.path.clone()).collect();
        assert!(stored.len() >= 2, "{case}: {stored:?}");
        for victim in &stored {
            // The same cold run in a fresh DFS stores the same paths.
            let populate = session(config.clone());
            populate.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
            assert_eq!(populate.save_state(), state, "{case}: the cold run repeats");
            assert!(populate.engine().dfs().delete(victim), "{case}: {victim} was stored");

            let rs = ReStore::new(populate.engine().clone(), config.clone());
            rs.recover(&state, &[]).unwrap();
            let case = format!("{case}, {victim} deleted");
            failures.extend(rerun(&rs, JOIN_GROUP, "after").err().map(|e| format!("{case}: {e}")));
            failures.extend(evictions(&rs, [0, 0, 1, 0]).err().map(|e| format!("{case}: {e}")));
        }
    }
    report(&failures);
}

#[test]
fn a_recreated_input_is_a_miss() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session(config);
        rs.execute_query(&query(ONE_JOB, "/out/cold"), "/wf/cold").unwrap();
        let stored = rs.repository_as(None).len() as u64;
        assert!(stored >= 1, "{case}: the cold run stores");

        // Deleted, then written again under the same path: a new file,
        // whatever its path held before.
        let dfs = rs.engine().dfs();
        assert!(dfs.delete("/data/e"));
        dfs.write_all("/data/e", b"carol\t100\n").unwrap();
        failures.extend(rerun(&rs, ONE_JOB, "after").err().map(|e| format!("{case}: {e}")));
        failures.extend(evictions(&rs, [0, stored, 0, 0]).err().map(|e| format!("{case}: {e}")));
    }
    report(&failures);
}

/// What an intruder writes over a stored file: one text row.
const FOREIGN: &[u8] = b"mallory\t1\n";

/// The paths the default namespace's entries store into.
fn stored_paths(rs: &ReStore) -> Vec<String> {
    rs.repository_as(None).entries().iter().map(|e| e.file.path.clone()).collect()
}

#[test]
fn a_registered_output_overwritten_out_of_band_is_a_miss() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session_over(&pv_users(), config);
        Oracle::check(&rs, &[sum_query("/out/a")]).unwrap();
        // Registered only under the default configuration.
        let n = stored_paths(&rs).iter().filter(|p| *p == "/out/a").count() as u64;

        overwrite(rs.engine().dfs(), "/out/a", FOREIGN);
        let check = Oracle::check(&rs, &[sum_query("/out/b")]);
        failures.extend(check.err().map(|e| format!("{case}: {e}")));
        failures.extend(evictions(&rs, [0, 0, 0, n]).err().map(|e| format!("{case}: {e}")));
    }
    report(&failures);
}

#[test]
fn a_typed_candidate_overwritten_out_of_band_is_a_miss_and_keeps_the_new_bytes() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session_over(&pv_users(), config);
        Oracle::check(&rs, &[sum_query("/out/a")]).unwrap();
        let candidate = "/restore/sub-1";
        assert!(stored_paths(&rs).iter().any(|p| p == candidate), "{case}: {candidate} is stored");

        let dfs = rs.engine().dfs();
        overwrite(dfs, candidate, FOREIGN);
        let check = Oracle::check(&rs, &[sum_query("/out/b")]);
        failures.extend(check.err().map(|e| format!("{case}: {e}")));
        failures.extend(evictions(&rs, [0, 0, 0, 1]).err().map(|e| format!("{case}: {e}")));
        // Evicted, not deleted: the file holds what its last writer wrote.
        if dfs.read_all(candidate).ok().as_deref() != Some(FOREIGN) {
            failures.push(format!("{case}: {candidate} does not hold the overwriting bytes"));
        }
    }
    report(&failures);
}

#[test]
fn an_expired_entry_overwritten_out_of_band_counts_as_overwritten_and_keeps_its_file() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let registered = config.register_final_outputs;
        let window = SelectionPolicy { eviction_window: Some(1), ..Default::default() };
        let rs = session_over(&pv_users(), ReStoreConfig { selection: window, ..config });
        // Tick 1 stores the candidate; tick 2 reads nothing it stored, so
        // at tick 3 the candidate is past its one-tick window.
        Oracle::check(&rs, &[sum_query("/out/a"), join_query("/out/j")]).unwrap();
        let candidate = "/restore/sub-1";
        assert!(stored_paths(&rs).iter().any(|p| p == candidate), "{case}: {candidate} is stored");

        let dfs = rs.engine().dfs();
        overwrite(dfs, candidate, FOREIGN);
        let check = Oracle::check(&rs, &[sum_query("/out/b")]);
        failures.extend(check.err().map(|e| format!("{case}: {e}")));
        // `/out/a`, when registered, is past its window too, and is text.
        let window = u64::from(registered);
        failures.extend(evictions(&rs, [window, 0, 0, 1]).err().map(|e| format!("{case}: {e}")));
        if dfs.read_all(candidate).ok().as_deref() != Some(FOREIGN) {
            failures.push(format!("{case}: {candidate} does not hold the overwriting bytes"));
        }
    }
    report(&failures);
}

/// `/data/pv`'s rows with `n > 0`: the candidate the queries below store.
const FILTERED: &str = "A = load '/data/pv' as (user, n:int); B = filter A by n > 0;";

/// Group [`FILTERED`] by user and sum.
fn filtered_sums(out: &str) -> String {
    format!("{FILTERED} G = group B by user; R = foreach G generate group, SUM(B.n); store R into '{out}';")
}

/// [`FILTERED`] as the answer: a final output whose plan duplicates the
/// stored candidate's, so its record has no entry.
fn filtered(out: &str) -> String {
    format!("{FILTERED} store B into '{out}';")
}

/// Read `/out/b` back, filter it and keep its users.
fn users_of_b(out: &str) -> String {
    format!("A = load '/out/b' as (user, n:int); B = filter A by n > 0; C = foreach B generate user; store C into '{out}';")
}

#[test]
fn a_final_output_overwritten_out_of_band_is_not_expanded() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session_over(&pv_users(), config);
        Oracle::check(&rs, &[filtered_sums("/out/a"), filtered("/out/b")]).unwrap();

        overwrite(rs.engine().dfs(), "/out/b", b"zed\t3\n");
        let check = Oracle::check(&rs, &[users_of_b("/out/c")]);
        failures.extend(check.err().map(|e| format!("{case}: {e}")));
        // `/out/b`'s record has no entry: it is forgotten, and no
        // eviction is counted.
        failures.extend(evictions(&rs, [0, 0, 0, 0]).err().map(|e| format!("{case}: {e}")));
    }
    report(&failures);
}

#[test]
fn a_final_output_whose_input_moved_is_not_expanded() {
    let mut failures = Vec::new();
    for (case, config) in configs() {
        let rs = session_over(&pv_users(), config);
        Oracle::check(&rs, &[filtered_sums("/out/a"), filtered("/out/b")]).unwrap();
        let stored = rs.repository_as(None).len() as u64;

        overwrite(rs.engine().dfs(), "/data/pv", b"zed\t3\nyan\t5\n");
        let check = Oracle::check(&rs, &[filtered_sums("/out/a2"), users_of_b("/out/c")]);
        failures.extend(check.err().map(|e| format!("{case}: {e}")));
        // Every entry read `/data/pv`; `/out/b`'s record goes uncounted.
        failures.extend(evictions(&rs, [0, stored, 0, 0]).err().map(|e| format!("{case}: {e}")));
    }
    report(&failures);
}
