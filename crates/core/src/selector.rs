//! Repository management — the keep/evict rules of §5.
//!
//! "A job output that is kept in the repository needs to satisfy two
//! properties: (1) replacing the job with a Load of the job output from
//! the distributed file system can reduce the execution time of a
//! workflow that contains this job, and (2) there are future workflows
//! that can reuse the output of this job."
//!
//! Rules 1–2 gate admission (checked against post-execution statistics);
//! rules 3–4 drive eviction (a time window of disuse, and invalidated or
//! deleted inputs). The paper's experiments store everything ("we store
//! the outputs of all candidate jobs and sub-jobs in the repository"),
//! and so does the default policy here: rules 1–3 are off by default.
//!
//! Rule 4 is not a setting: reusing an entry whose inputs changed
//! returns a wrong answer, and one whose file is gone fails the query. So
//! every execution first runs one staleness pass ([`ReStore::sweep`]).

use crate::driver::{ReStore, Space};
use crate::repository::{RepoBatch, RepoEntry, RepoStats};
use restore_mapreduce::split_reader;

/// Configuration of the §5 rules that are choices: admission (rules 1–2)
/// and the disuse window (rule 3); rule 4 is not one (see the module).
///
/// With per-tenant policies (see `ReStore::set_config_as`) each tenant
/// namespace can carry its own instance: sweeps run with the submitting
/// tenant's rules, and the policy is serialized with the tenant's state
/// in `restore-state` (`PartialEq` lets round-trip tests compare).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionPolicy {
    /// Rule 1: keep only if output is smaller than input.
    pub require_size_reduction: bool,
    /// Rule 2: keep only if reloading the output is modeled to be faster
    /// than recomputing the job.
    pub require_time_benefit: bool,
    /// Modeled DFS read bandwidth used by rule 2, bytes/second.
    pub reload_read_bps: f64,
    /// Rule 3: evict entries unused for this many ticks (queries).
    pub eviction_window: Option<u64>,
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        SelectionPolicy {
            require_size_reduction: false,
            require_time_benefit: false,
            reload_read_bps: 80.0 * 1024.0 * 1024.0,
            eviction_window: None,
        }
    }
}

impl SelectionPolicy {
    /// A policy enforcing admission rules 1–2 and eviction rule 3.
    pub fn strict(window: u64) -> Self {
        SelectionPolicy {
            require_size_reduction: true,
            require_time_benefit: true,
            eviction_window: Some(window),
            ..Default::default()
        }
    }

    /// Admission decision for a candidate with the given statistics
    /// (rules 1 and 2); with neither rule on, every candidate is kept.
    pub fn should_keep(&self, stats: &RepoStats) -> bool {
        if self.require_size_reduction && stats.output_bytes >= stats.input_bytes {
            return false;
        }
        if self.require_time_benefit {
            let reload_s = stats.output_bytes as f64 / self.reload_read_bps;
            if stats.job_time_s <= reload_s {
                return false;
            }
        }
        true
    }

    /// Rule 3: unused within the window at tick `now` (an entry never
    /// used is judged from its creation tick).
    fn expired(&self, e: &RepoEntry, now: u64) -> bool {
        self.eviction_window.is_some_and(|w| {
            let stats = e.stats();
            now.saturating_sub(stats.last_used.max(stats.created)) > w
        })
    }
}

/// Why an entry left the repository; the discriminant indexes the
/// `reason` labels of `restore_entries_evicted_total`. `Overwritten`: a
/// workflow wrote new bytes to the stored path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Eviction {
    Window,
    InputsChanged,
    OutputMissing,
    Overwritten,
}

pub(crate) const EVICTION_REASONS: [&str; 4] =
    ["window", "inputs_changed", "output_missing", "overwritten"];

/// A file's DFS version, `None` if there is no such file.
type VersionOf<'a> = dyn Fn(&str) -> Option<u64> + 'a;

impl ReStore {
    /// The staleness pass, run once per execution before matching, so no
    /// stale entry is reused: forget every stored path the DFS no longer
    /// holds, and evict every entry whose file is gone, whose recorded
    /// inputs moved (rule 4) or, with a window set, that went unused
    /// (rule 3). Returns the evicted ids.
    ///
    /// Both DFS checks read one repository snapshot, provenance included,
    /// and share one namenode read, skipped while `Dfs::now` reads the
    /// clock at which that snapshot was last found clean (its `PresentAt`
    /// memo, which a publish's clone forgets). A delete or commit ticks
    /// the clock only once its change is visible, so a job-free warm
    /// query only reads the clock and the memo. A victim's file goes only
    /// if ReStore wrote it for itself (typed), never a user's text output
    /// (see [`ReStore::evict_entries`]).
    pub(crate) fn sweep(&self, space: &Space, policy: &SelectionPolicy, now: u64) -> Vec<u64> {
        let dfs = self.engine.dfs();
        let clock = dfs.now();
        let repo = space.repo.snapshot();
        let prov = repo.provenance();
        let check = !repo.clean.at(clock);
        if !check && policy.eviction_window.is_none() {
            return Vec::new();
        }
        let scan = |version: Option<&VersionOf<'_>>| {
            let gone = |p: &str| version.is_some_and(|v| v(p).is_none());
            let moved = |e: &RepoEntry| {
                version.is_some_and(|v| e.input_files().iter().any(|(p, n)| v(p) != Some(*n)))
            };
            let why = |e: &RepoEntry| match () {
                _ if policy.expired(e, now) => Some(Eviction::Window),
                _ if gone(&e.output_path) => Some(Eviction::OutputMissing),
                _ if moved(e) => Some(Eviction::InputsChanged),
                _ => None,
            };
            let dead: Vec<String> =
                prov.iter_paths().filter(|p| gone(p)).map(String::from).collect();
            let victims: Vec<_> =
                repo.entries().iter().filter_map(|e| Some((e.id, why(e)?))).collect();
            (dead, victims)
        };
        let (dead, victims) =
            if check { dfs.with_versions(|version| scan(Some(version))) } else { scan(None) };
        if check && dead.is_empty() && victims.iter().all(|&(_, why)| why == Eviction::Window) {
            repo.clean.set(clock);
        }
        if dead.is_empty() && victims.is_empty() {
            return Vec::new();
        }
        self.evict_entries(space, dead, |_| victims)
    }

    /// Evict the entries `pick` chooses from the repository's pending
    /// state, and forget their paths and those of `forget` in path order,
    /// as one published batch (one `repo-batch` record). Files are
    /// deleted, pin-checked, only after the batch publishes: a session
    /// that pinned a match and revalidates sees the entry (its pin defers
    /// the delete) or its absence (it skips it), never a deleted file
    /// behind a live entry. Only a file ReStore wrote typed for itself (a
    /// candidate or a `tmp-N`) is deleted, whatever the reason, never a
    /// user's text output, and never an overwritten path, which holds the
    /// overwriting workflow's bytes. An id a racing writer evicted is
    /// skipped.
    pub(crate) fn evict_entries(
        &self,
        space: &Space,
        mut forget: Vec<String>,
        pick: impl FnOnce(&RepoBatch<'_>) -> Vec<(u64, Eviction)>,
    ) -> Vec<u64> {
        let dfs = self.engine.dfs();
        space.repo.batch_then(
            |b| {
                let victims = pick(b);
                let evicted: Vec<_> =
                    victims.into_iter().filter_map(|(id, why)| Some((b.evict(id)?, why))).collect();
                forget.extend(evicted.iter().map(|(e, _)| e.output_path.clone()));
                forget.sort_unstable();
                forget.dedup();
                for p in &forget {
                    b.forget(p);
                }
                evicted
            },
            |evicted| {
                for (entry, why) in &evicted {
                    let path = &entry.output_path;
                    let delete = *why != Eviction::Overwritten
                        && split_reader::is_typed(dfs, path).unwrap_or(false);
                    if delete && !space.pins.defer_delete(path) {
                        dfs.delete(path);
                    }
                    self.obs.evicted[*why as usize].inc();
                }
                evicted.iter().map(|(e, _)| e.id).collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReStoreConfig;
    use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
    use restore_dfs::{Dfs, DfsConfig};
    use restore_mapreduce::{ClusterConfig, Engine, EngineConfig};
    use std::sync::Arc;

    fn plan(path: &str) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        p.add(PhysicalOp::Store { path: format!("/repo{path}") }, vec![pr]);
        p
    }

    fn stats(input: u64, output: u64, time: f64) -> RepoStats {
        RepoStats {
            input_bytes: input,
            output_bytes: output,
            job_time_s: time,
            ..Default::default()
        }
    }

    /// A session whose default namespace holds one entry, created at tick
    /// 9 from `/data/in` at its current version and stored as text in
    /// `/repo/out`.
    fn session() -> (ReStore, Arc<Space>) {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/in", b"v0").unwrap();
        dfs.write_all("/repo/out", b"r").unwrap();
        let version = dfs.with_versions(|v| v("/data/in")).unwrap();
        let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
        let rs = ReStore::new(engine, ReStoreConfig::default());
        let space = rs.space_for(None);
        let input_files = vec![("/data/in".into(), version)];
        space.repo.insert(
            plan("/x"),
            "/repo/out",
            RepoStats { created: 9, input_files, ..stats(10, 1, 1.0) },
        );
        (rs, space)
    }

    #[test]
    fn store_all_keeps_everything() {
        let p = SelectionPolicy::default();
        assert!(p.should_keep(&stats(10, 1000, 0.0)));
    }

    #[test]
    fn rule1_size_reduction() {
        let p = SelectionPolicy { require_size_reduction: true, ..Default::default() };
        assert!(p.should_keep(&stats(100, 50, 1.0)));
        assert!(!p.should_keep(&stats(100, 100, 1.0)));
        assert!(!p.should_keep(&stats(100, 150, 1.0)));
    }

    #[test]
    fn rule2_time_benefit() {
        let p = SelectionPolicy {
            require_time_benefit: true,
            reload_read_bps: 100.0,
            ..Default::default()
        };
        // Reload takes 10s; producing took 60s → keep.
        assert!(p.should_keep(&stats(10_000, 1000, 60.0)));
        // Reload takes 10s; producing took 5s → discard.
        assert!(!p.should_keep(&stats(10_000, 1000, 5.0)));
    }

    #[test]
    fn rule3_window_eviction() {
        let (rs, space) = session();
        let dfs = rs.engine().dfs();
        let typed = restore_common::typed::encode_file(&[restore_common::tuple!["x", 1i64]]);
        dfs.write_all("/repo/old", &typed).unwrap();
        dfs.write_all("/repo/text", b"x\t1\n").unwrap();
        let mut s_old = stats(10, 1, 1.0);
        s_old.created = 1;
        s_old.last_used = 2;
        space.repo.insert(plan("/old"), "/repo/old", s_old.clone());
        space.repo.insert(plan("/text"), "/repo/text", s_old);

        let policy = SelectionPolicy { eviction_window: Some(5), ..Default::default() };
        let evicted = rs.sweep(&space, &policy, 10);
        assert_eq!(evicted.len(), 2);
        assert_eq!(space.repo.snapshot().len(), 1);
        assert!(!dfs.exists("/repo/old"), "a typed output ReStore wrote is deleted");
        assert!(dfs.exists("/repo/text"), "a text output is not ReStore's to delete");
        assert!(dfs.exists("/repo/out"));
    }

    #[test]
    fn rule4_input_invalidation() {
        let (rs, space) = session();
        let dfs = rs.engine().dfs();
        // Rule 4 holds under the default policy. Input untouched:
        // nothing happens.
        let policy = SelectionPolicy::default();
        assert!(rs.sweep(&space, &policy, 1).is_empty());
        // Overwrite the input: version bumps, entry evicted.
        let mut w = dfs.create_overwrite("/data/in").unwrap();
        w.write(b"v1");
        w.close().unwrap();
        let evicted = rs.sweep(&space, &policy, 2);
        assert_eq!(evicted.len(), 1);
        assert!(space.repo.snapshot().is_empty());
        assert!(dfs.exists("/repo/out"), "a text output is not ReStore's to delete");
    }

    #[test]
    fn rule4_deleted_input() {
        let (rs, space) = session();
        rs.engine().dfs().delete("/data/in");
        assert_eq!(rs.sweep(&space, &SelectionPolicy::default(), 1).len(), 1);
    }

    #[test]
    fn strict_policy_combines_rules() {
        let p = SelectionPolicy::strict(7);
        assert!(p.require_size_reduction && p.require_time_benefit);
        assert_eq!(p.eviction_window, Some(7));
    }
}
