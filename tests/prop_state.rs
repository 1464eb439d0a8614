//! Property: `save_state` → `recover` → `save_state` round-trips
//! **byte-identically** for arbitrary multi-tenant repository states —
//! entries and records without an entry — in the current format epoch.

use proptest::prelude::*;
use restore_suite::common::{codec, tuple, typed};
use restore_suite::core::{
    Heuristic, ReStore, ReStoreConfig, RepoStats, SelectionPolicy, StoredFile, EPOCH,
};
use restore_suite::dataflow::physical::{PhysicalOp, PhysicalPlan};
use restore_suite::dfs::{Dfs, DfsConfig};
use restore_suite::mapreduce::{ClusterConfig, Engine, EngineConfig};

/// One synthetic repository entry: which base input it loads, which
/// columns it projects, its statistics, whether its file is typed, and
/// whether a second file holds its plan (a record without an entry).
#[derive(Debug, Clone)]
struct EntrySpec {
    input: u8,
    cols: Vec<usize>,
    in_bytes: u64,
    out_bytes: u64,
    time_ds: u32,
    uses: u64,
    copied: bool,
    typed: bool,
}

/// One synthetic tenant namespace: its entries and an optional policy
/// override.
#[derive(Debug, Clone)]
struct SpaceSpec {
    entries: Vec<EntrySpec>,
    override_config: Option<(usize, Option<u64>)>,
}

fn entry_spec() -> impl Strategy<Value = EntrySpec> {
    (
        0u8..4,
        prop::sample::subsequence(vec![0usize, 1, 2], 1..=3),
        1u64..100_000,
        1u64..100_000,
        0u32..5000,
        0u64..9,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(input, cols, in_bytes, out_bytes, time_ds, uses, copied, typed)| {
            EntrySpec { input, cols, in_bytes, out_bytes, time_ds, uses, copied, typed }
        })
}

fn space_spec() -> impl Strategy<Value = SpaceSpec> {
    (
        prop::collection::vec(entry_spec(), 0..5),
        prop::option::of((0usize..4, prop::option::of(1u64..100))),
    )
        .prop_map(|(entries, override_config)| SpaceSpec { entries, override_config })
}

fn heuristics() -> [Heuristic; 4] {
    [Heuristic::None, Heuristic::Conservative, Heuristic::Aggressive, Heuristic::NoHeuristic]
}

/// `slug` keys the DFS paths (kept path-safe even when the tenant name
/// itself contains spaces or quotes).
fn plan_for(slug: &str, idx: usize, spec: &EntrySpec) -> (PhysicalPlan, String) {
    let out_path = format!("/r/{slug}/o{idx}");
    let mut p = PhysicalPlan::new();
    let l = p.add(PhysicalOp::Load { path: format!("/data/p{}", spec.input) }, vec![]);
    let pr = p.add(PhysicalOp::Project { cols: spec.cols.clone() }, vec![l]);
    p.add(PhysicalOp::Store { path: out_path.clone() }, vec![pr]);
    (p, out_path)
}

/// Materialize a synthetic multi-tenant session: every referenced path
/// is written to the DFS (snapshots exclude paths with no file behind
/// them), repositories are populated through the public admin APIs, and
/// tenant overrides are installed.
fn build_session(dfs: &Dfs, spaces: &[(Option<&str>, &SpaceSpec)]) -> ReStore {
    let engine = Engine::new(
        dfs.clone(),
        ClusterConfig::default(),
        EngineConfig { worker_threads: 1, default_reduce_tasks: 2 },
    );
    let rs = ReStore::new(engine, ReStoreConfig::default());
    for (ns, (tenant, spec)) in spaces.iter().enumerate() {
        let slug = format!("s{ns}");
        if let Some((h, window)) = &spec.override_config {
            if tenant.is_some() {
                rs.set_config_as(
                    *tenant,
                    ReStoreConfig {
                        heuristic: heuristics()[*h],
                        selection: SelectionPolicy {
                            eviction_window: *window,
                            ..Default::default()
                        },
                        ..Default::default()
                    },
                );
            }
        }
        for (i, e) in spec.entries.iter().enumerate() {
            let (plan, out_path) = plan_for(&slug, i, e);
            let input_path = format!("/data/p{}", e.input);
            if !dfs.exists(&input_path) {
                dfs.write_all(&input_path, b"a\t1\nb\t2\n").unwrap();
            }
            let copy_path = format!("{out_path}-copy");
            for path in [&out_path, &copy_path] {
                if !dfs.exists(path) {
                    let rows = [tuple!["x", 1i64]];
                    let bytes =
                        if e.typed { typed::encode_file(&rows) } else { codec::encode_all(&rows) };
                    dfs.write_all(path, &bytes).unwrap();
                }
            }
            let version = |path: &str| dfs.status(path).unwrap().mtime;
            let file = StoredFile {
                path: out_path.clone(),
                tick: version(&out_path),
                typed: e.typed,
                plan,
                inputs: vec![(input_path.clone(), version(&input_path))],
            };
            let copy =
                StoredFile { path: copy_path.clone(), tick: version(&copy_path), ..file.clone() };
            let stats = RepoStats {
                input_bytes: e.in_bytes,
                output_bytes: e.out_bytes,
                job_time_s: e.time_ds as f64 / 10.0,
                avg_map_time_s: e.time_ds as f64 / 40.0,
                avg_reduce_time_s: e.time_ds as f64 / 80.0,
                use_count: e.uses,
                last_used: e.uses,
                created: 1,
            };
            rs.with_repository_mut_as(*tenant, |repo| {
                repo.batch(|b| {
                    b.insert(file, stats.clone());
                    if e.copied {
                        b.insert(copy, stats);
                    }
                })
            });
        }
    }
    rs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary multi-tenant states round-trip byte-identically, and a
    /// second generation reproduces the same bytes again. ("v2" in the
    /// name is the first tenant-aware format; what is written is the
    /// current epoch.)
    #[test]
    fn v2_round_trip_is_byte_identical(
        default_space in space_spec(),
        ana in space_spec(),
        bo in space_spec(),
        with_ana in any::<bool>(),
        with_bo in any::<bool>(),
    ) {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        let mut spaces: Vec<(Option<&str>, &SpaceSpec)> = vec![(None, &default_space)];
        if with_ana {
            spaces.push((Some("ana"), &ana));
        }
        if with_bo {
            spaces.push((Some("bo w.\"q\""), &bo));
        }
        let rs = build_session(&dfs, &spaces);

        let s1 = rs.save_state();
        let header = format!("restore-journal v{EPOCH}\n");
        prop_assert!(s1.starts_with(&header));
        let engine = Engine::new(dfs.clone(), ClusterConfig::default(), EngineConfig::default());
        let resumed = ReStore::new(engine, ReStoreConfig::default());
        resumed.recover(&s1, &[]).unwrap();
        let s2 = resumed.save_state();
        prop_assert_eq!(&s1, &s2, "save -> load -> save must be byte-identical");

        let engine = Engine::new(dfs.clone(), ClusterConfig::default(), EngineConfig::default());
        let third = ReStore::new(engine, ReStoreConfig::default());
        third.recover(&s2, &[]).unwrap();
        prop_assert_eq!(third.save_state(), s2);
    }
}
