//! Reuse must not outlive the data it was computed from. A stored result
//! answers a query only while every base file its plan reads still holds
//! the bytes it was computed from, and only while the stored file itself
//! is still there. Each test changes one of those behind the session's
//! back, reruns a query, and compares its output bytes with a no-reuse
//! session reading the same DFS; the answer must be a miss (the work
//! runs again), never a stale answer or an error.
//!
//! Each case runs under the default configuration and with final outputs
//! not registered, so both whole-job entries and sub-job candidates are
//! covered, and asserts `restore_entries_evicted_total` by reason.

use restore_suite::core::{ReStore, ReStoreConfig};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

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

fn engine() -> Engine {
    let dfs = Dfs::new(DfsConfig::small_for_tests());
    dfs.write_all("/data/e", b"alice\t4\nbob\t7\nalice\t1\n").unwrap();
    dfs.write_all("/data/pv", b"alice\t4\nbob\t7\nalice\t1\n").unwrap();
    dfs.write_all("/data/users", b"alice\tkitchener\nbob\ttoronto\ncarol\tparis\n").unwrap();
    Engine::new(dfs, ClusterConfig::default(), EngineConfig::default())
}

fn query(template: &str, out: &str) -> String {
    template.replace("OUT", out)
}

fn overwrite(dfs: &Dfs, path: &str, bytes: &[u8]) {
    let mut w = dfs.create_overwrite(path).unwrap();
    w.write(bytes);
    w.close().unwrap();
}

/// Run `template` on `rs` under a fresh output path: `Err` says how its
/// answer differs from a no-reuse session's over the same DFS.
fn rerun(rs: &ReStore, template: &str, label: &str) -> Result<(), String> {
    let out = format!("/out/{label}");
    let rerun = rs
        .execute_query(&query(template, &out), &format!("/wf/{label}"))
        .map_err(|e| format!("the rerun failed: {e}"))?;
    let dfs = rs.engine().dfs();
    let got = dfs.read_all(&rerun.final_output).map_err(|e| format!("no final output: {e}"))?;
    let baseline = ReStore::new(rs.engine().clone(), ReStoreConfig::baseline());
    let want = baseline
        .execute_query(&query(template, &format!("{out}-baseline")), &format!("/wf/{label}-b"))
        .unwrap();
    let want = dfs.read_all(&want.final_output).unwrap();
    let (got, want) = (String::from_utf8(got).unwrap(), String::from_utf8(want).unwrap());
    if got != want {
        return Err(format!("answered {got:?}, no reuse answers {want:?}"));
    }
    Ok(())
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
        let rs = ReStore::new(engine(), config);
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
        let rs = ReStore::new(engine(), config);
        rs.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
        let paths: Vec<String> =
            rs.repository_as(None).entries().iter().map(|e| e.output_path.clone()).collect();
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
        let cold = ReStore::new(engine(), config.clone());
        cold.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
        let state = cold.save_state();
        let stored: Vec<String> =
            cold.repository_as(None).entries().iter().map(|e| e.output_path.clone()).collect();
        assert!(stored.len() >= 2, "{case}: {stored:?}");
        for victim in &stored {
            // The same cold run in a fresh DFS stores the same paths.
            let engine = engine();
            let populate = ReStore::new(engine.clone(), config.clone());
            populate.execute_query(&query(JOIN_GROUP, "/out/cold"), "/wf/cold").unwrap();
            assert_eq!(populate.save_state(), state, "{case}: the cold run repeats");
            assert!(engine.dfs().delete(victim), "{case}: {victim} was stored");

            let rs = ReStore::new(engine, config.clone());
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
        let rs = ReStore::new(engine(), config);
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
