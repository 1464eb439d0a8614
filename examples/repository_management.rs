//! Managing the ReStore repository — the §5 rules in action.
//!
//! Demonstrates:
//! * admission rules 1–2 (keep only size-reducing / time-saving outputs)
//!   via [`SelectionPolicy::strict`];
//! * repository persistence across "sessions" (save/load);
//! * eviction rule 3 (a window of disuse);
//! * eviction rule 4 (input files overwritten, or deleted and written
//!   again, or a stored output overwritten), which holds under every
//!   policy: the example runs it under the default one and checks the
//!   answer after each change against a no-reuse run.
//!
//! ```sh
//! cargo run --example repository_management
//! ```

use restore_suite::common::{codec, tuple, Tuple};
use restore_suite::core::{ReStore, ReStoreConfig, RepoSnapshot, Repository, SelectionPolicy};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

fn seed(dfs: &Dfs) {
    let rows: Vec<Tuple> = (0..500)
        .map(|i| tuple![format!("u{}", i % 17), i as i64, (i % 100) as f64, "padpadpadpadpad"])
        .collect();
    dfs.write_all("/data/events", &codec::encode_all(&rows)).unwrap();
}

const QUERY: &str = "
    A = load '/data/events' as (user, seq:int, score:double, pad);
    B = foreach A generate user, score;
    G = group B by user;
    R = foreach G generate group, SUM(B.score);
    store R into '/out/scores';
";

fn print_repo(repo: &RepoSnapshot) {
    if repo.is_empty() {
        println!("  (empty)");
        return;
    }
    for e in repo.entries() {
        println!(
            "  #{:<2} {:<26} out={:<8} used={} last_tick={}",
            e.id,
            e.file.path,
            e.stats().output_bytes,
            e.stats().use_count,
            e.stats().last_used
        );
    }
}

/// Does `answer` (a reuse run's final output) hold what a no-reuse
/// session answers over the same DFS?
fn equals_no_reuse(rs: &ReStore, answer: &str, label: &str) -> bool {
    let baseline = ReStore::new(rs.engine().clone(), ReStoreConfig::baseline());
    let out = format!("/out/scores-{label}");
    let reference = baseline
        .execute_query(&QUERY.replace("/out/scores", &out), &format!("/wf/{label}"))
        .unwrap();
    let dfs = rs.engine().dfs();
    dfs.read_all(answer).unwrap() == dfs.read_all(&reference.final_output).unwrap()
}

fn main() {
    let dfs =
        Dfs::new(DfsConfig { nodes: 4, block_size: 2048, replication: 2, node_capacity: None });
    seed(&dfs);
    let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());

    // A strict policy: admission rules 1-2 on, 3-tick eviction window.
    let config = ReStoreConfig { selection: SelectionPolicy::strict(3), ..Default::default() };
    let rs = ReStore::new(engine, config);

    println!("== run 1: populate the repository (strict admission) ==");
    rs.execute_query(QUERY, "/wf/run1").unwrap();
    print_repo(&rs.repository_as(None));
    println!(
        "(rule 1 rejected any candidate whose output was not smaller than its\n\
         input; rule 2 any whose reload would be slower than recomputing)\n"
    );

    println!("== run 2: the same query reuses the stored outputs ==");
    let e2 = rs.execute_query(QUERY, "/wf/run2").unwrap();
    println!("  rewrites applied: {}", e2.rewrites.len());
    print_repo(&rs.repository_as(None));

    println!("\n== persistence: save and reload the repository ==");
    let saved = rs.repository_as(None).save();
    println!("  serialized {} bytes", saved.len());
    let reloaded = Repository::load(&saved).unwrap();
    println!("  reloaded {} entries — identical order and stats", reloaded.snapshot().len());

    println!("\n== rule 3: entries unused for >3 queries are evicted ==");
    // Run unrelated queries to advance the clock without touching the
    // stored outputs.
    for i in 0..4 {
        let q = format!(
            "A = load '/data/events' as (user, seq:int, score:double, pad);
             B = filter A by seq == {i};
             store B into '/out/probe{i}';"
        );
        rs.execute_query(&q, &format!("/wf/probe{i}")).unwrap();
    }
    println!("  repository after 4 unrelated queries:");
    print_repo(&rs.repository_as(None));
    println!(
        "\nEvicted outputs were deleted from the DFS; the repository only pays\n\
         for entries with a live chance of reuse."
    );

    // Rule 4 is not part of any policy: a session storing everything
    // under the default policy evicts the same way. A file deleted and
    // written again is a new file: its version is the DFS clock's tick
    // at the new commit, never one an entry recorded.
    println!("\n== rule 4: deleting and recreating an input invalidates dependents ==");
    let rs = ReStore::new(rs.engine().clone(), ReStoreConfig::default());
    rs.execute_query(QUERY, "/wf/run3").unwrap();
    let warm = rs.execute_query(QUERY, "/wf/run4").unwrap();
    println!("  rewrites before the recreate: {} (default policy)", warm.rewrites.len());
    let dfs = rs.engine().dfs().clone();
    dfs.delete("/data/events");
    dfs.write_all("/data/events", &codec::encode_all(&[tuple!["yy", 3, 4.5, "pad"]])).unwrap();
    let after = rs.execute_query(QUERY, "/wf/run5").unwrap();
    println!("  rewrites after the recreate: {} (stale entries evicted)", after.rewrites.len());
    let same = equals_no_reuse(&rs, &after.final_output, "recreated");
    println!("  post-recreate answer equals a no-reuse run: {same}");

    println!("\n== rule 4: overwriting an input invalidates dependents ==");
    let warm = rs.execute_query(QUERY, "/wf/run6").unwrap();
    println!("  rewrites before the overwrite: {}", warm.rewrites.len());
    let mut w = dfs.create_overwrite("/data/events").unwrap();
    w.write(&codec::encode_all(&[tuple!["zz", 1, 2.0, "pad"]]));
    w.close().unwrap();
    let after = rs.execute_query(QUERY, "/wf/run7").unwrap();
    println!("  rewrites after the overwrite: {} (stale entries evicted)", after.rewrites.len());
    print_repo(&rs.repository_as(None));
    let same = equals_no_reuse(&rs, &after.final_output, "overwritten");
    println!("  post-overwrite answer equals a no-reuse run: {same}");

    // An entry records the version its own file was committed at, so a
    // stored answer rewritten behind the session is a miss too.
    println!("\n== rule 4: overwriting a stored output invalidates its entry ==");
    let warm = rs.execute_query(QUERY, "/wf/run8").unwrap();
    println!("  jobs skipped before the overwrite: {}", warm.jobs_skipped);
    let mut w = dfs.create_overwrite(&warm.final_output).unwrap();
    w.write(&codec::encode_all(&[tuple!["mallory", 1.0]]));
    w.close().unwrap();
    let after = rs.execute_query(QUERY, "/wf/run9").unwrap();
    println!("  jobs skipped after the overwrite: {} (stale entry evicted)", after.jobs_skipped);
    let same = equals_no_reuse(&rs, &after.final_output, "output-overwritten");
    println!("  post-output-overwrite answer equals a no-reuse run: {same}");
}
