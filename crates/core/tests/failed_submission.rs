//! A submission whose job fails runs the same lifecycle to its end as
//! one that succeeds: the failed wave's successes are registered, no
//! later wave runs, and the end-of-workflow steps run. So a failed
//! submission leaves no file that no record names, and returns the error
//! of its lowest-indexed failed job.

use restore_common::Error;
use restore_core::{ReStore, ReStoreConfig};
use restore_dfs::Dfs;
use restore_testkit::{check_repository, pv_users, session_over, Oracle};

/// Two independent jobs, one wave: a sum over `/data/pv` into
/// `/out/sums` and a max over `/data/gone` into `/out/max`, in that
/// job order, or the other way round when `gone_first`.
fn two_job_wave(gone_first: bool, sums: &str, max: &str) -> String {
    let sum = format!(
        "A = load '/data/pv' as (user, n:int);
         G = group A by user;
         S = foreach G generate group, SUM(A.n);
         store S into '{sums}';"
    );
    let max = format!(
        "B = load '/data/gone' as (user, n:int);
         H = group B by user;
         M = foreach H generate group, MAX(B.n);
         store M into '{max}';"
    );
    if gone_first {
        format!("{max}\n{sum}")
    } else {
        format!("{sum}\n{max}")
    }
}

/// `/data/pv` and `/data/users`, and `/data/gone` holding `/data/pv`'s
/// rows.
fn dfs_with_gone() -> Dfs {
    let dfs = pv_users();
    dfs.write_all("/data/gone", &dfs.read_all("/data/pv").unwrap()).unwrap();
    dfs
}

/// Every file under `prefix` that the repository has no record of.
fn unnamed(rs: &ReStore, prefix: &str) -> Vec<String> {
    let repo = rs.repository_as(None);
    rs.engine().dfs().list(prefix).into_iter().filter(|p| repo.file(p).is_none()).collect()
}

/// The input of one of a wave's two jobs is deleted between compile and
/// execution. The submission fails with that job's error, and the other
/// job's outputs, its final output and its candidate alike, are
/// committed and registered, whichever of the two comes first in job
/// order and whether the wave runs its jobs concurrently or one at a
/// time. Before, the error left the wave unregistered: `/restore/sub-1`
/// and `/out/sums` stayed on the DFS with no record, or, with the
/// failing job first, the healthy job ran and its outputs were dropped.
/// A retry reuses what the failed submission registered.
#[test]
fn a_failed_job_leaves_its_wave_mates_registered() {
    for wave_parallel in [false, true] {
        for gone_first in [false, true] {
            let case = format!("wave_parallel {wave_parallel}, gone_first {gone_first}");
            let dfs = dfs_with_gone();
            let rs = session_over(&dfs, ReStoreConfig { wave_parallel, ..Default::default() });
            let q = two_job_wave(gone_first, "/out/sums", "/out/max");
            let wf = rs.compile_as(None, &q, "/wf/1").unwrap();
            assert_eq!(wf.jobs.len(), 2, "{case}");
            assert!(wf.deps().iter().all(|d| d.is_empty()), "{case}: one wave");
            dfs.delete("/data/gone");

            let err = rs.execute_workflow_as(None, wf).unwrap_err();
            assert_eq!(err, Error::FileNotFound("/data/gone".into()), "{case}");
            assert!(dfs.exists("/out/sums"), "{case}: the healthy job's output was not committed");
            assert!(!dfs.exists("/out/max"), "{case}: the failed job left an output");
            assert!(!dfs.list("/restore").is_empty(), "{case}: no candidate was stored");
            assert_eq!(unnamed(&rs, "/restore"), Vec::<String>::new(), "{case}");
            assert_eq!(unnamed(&rs, "/out"), Vec::<String>::new(), "{case}");
            assert_eq!(unnamed(&rs, "/wf"), Vec::<String>::new(), "{case}");
            check_repository(&rs).unwrap_or_else(|e| panic!("{case}: {e}"));

            // The retry, once the input is back, is answered for the
            // healthy job from what the failed submission registered.
            dfs.write_all("/data/gone", &dfs.read_all("/data/pv").unwrap()).unwrap();
            let retry = two_job_wave(gone_first, "/out/sums2", "/out/max2");
            let ran = rs.execute_query(&retry, "/wf/2").unwrap();
            assert_eq!(ran.jobs_skipped, 1, "{case}");
            Oracle::check(&rs, &[two_job_wave(gone_first, "/out/sums3", "/out/max3")])
                .unwrap_or_else(|e| panic!("{case}: {e}"));
        }
    }
}

/// Join, group, then join with `/data/gone`: three jobs in three waves,
/// the last reading `tmp-1` and `/data/gone`.
const CHAIN: &str = "A = load '/data/pv' as (user, revenue:int);
     B = load '/data/users' as (name, city);
     C = join B by name, A by user;
     D = group C by $0;
     E = foreach D generate group, SUM(C.revenue);
     F = load '/data/gone' as (user, m:int);
     J = join E by $0, F by user;
     store J into '/out/chain';";

/// A no-reuse session deletes a workflow's temporaries when it ends,
/// and a failed one ends the same way: with the third wave's input
/// deleted, the first two waves' `tmp-0` and `tmp-1` are gone
/// afterwards. Before, the error returned before the cleanup and left
/// both.
#[test]
fn a_failed_no_reuse_submission_deletes_its_temporaries() {
    let dfs = dfs_with_gone();
    let rs = session_over(&dfs, ReStoreConfig::baseline());
    let wf = rs.compile_as(None, CHAIN, "/wf/1").unwrap();
    assert_eq!(wf.deps(), [&[][..], &[0], &[1]], "one job per wave");
    assert_eq!(wf.tmp_paths().count(), 2);
    dfs.delete("/data/gone");

    let err = rs.execute_workflow_as(None, wf).unwrap_err();
    assert_eq!(err, Error::FileNotFound("/data/gone".into()));
    assert_eq!(dfs.list("/wf/1"), Vec::<String>::new());
    assert!(!dfs.exists("/out/chain"));
    assert_eq!(rs.repository_as(None).files().count(), 0);
}
