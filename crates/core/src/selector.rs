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
//! Rule 4 is not a setting: reusing an entry whose inputs changed, or
//! whose own file was rewritten, returns a wrong answer, and one whose
//! file is gone fails the query; expanding a Load of such a file into
//! its plan does the same. So every execution first runs one staleness
//! pass (`ReStore::sweep`), which checks every file a record names
//! against the tick the record holds of it.

use crate::driver::{ReStore, Space};
use crate::repository::{RepoEntry, RepoSnapshot, RepoStats, StoredFile};
use std::collections::HashMap;

/// Configuration of the §5 rules that are choices: admission (rules 1–2)
/// and the disuse window (rule 3); rule 4 is not one (see the module).
///
/// With per-tenant policies (see `ReStore::set_config_as`) each tenant
/// namespace can carry its own instance: sweeps run with the submitting
/// tenant's rules, and the policy is serialized with the tenant's state
/// in its `tenant-config` record (`PartialEq` lets round-trip tests
/// compare).
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

/// Why a record was forgotten; the discriminant indexes the `reason`
/// labels of `restore_entries_evicted_total`, which counts the entries
/// evicted with their records. `Overwritten`: the file is at another
/// tick than the one its record holds (a workflow, or someone out of
/// band, wrote new bytes to the path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Eviction {
    Window,
    InputsChanged,
    OutputMissing,
    Overwritten,
}

pub(crate) const EVICTION_REASONS: [&str; 4] =
    ["window", "inputs_changed", "output_missing", "overwritten"];

impl Eviction {
    /// Whether evicting an entry for this reason deletes its file, if
    /// ReStore wrote the file for itself (typed). A missing file has
    /// nothing to delete and an overwritten one holds another writer's
    /// bytes; a user's text output is never ReStore's to delete.
    fn deletes(self, typed: bool) -> bool {
        typed && matches!(self, Eviction::Window | Eviction::InputsChanged)
    }
}

/// A file's DFS version, `None` if there is no such file.
type VersionOf<'a> = dyn Fn(&str) -> Option<u64> + 'a;

/// The staleness pass's verdicts on one repository snapshot (see
/// [`ReStore::stale`]).
pub(crate) struct Stale {
    /// The DFS clock reading the file checks ran at; `None` when the
    /// snapshot's memo showed nothing moved since it was found clean.
    pub checked_at: Option<u64>,
    /// The paths of the records to forget, sorted, each with its reason.
    pub victims: Vec<(String, Eviction)>,
}

impl ReStore {
    /// The staleness pass, run once per execution before matching, so no
    /// stale record is expanded or reused: forget every record
    /// [`ReStore::stale`] names, evicting its entry if it has one.
    /// Returns the evicted ids.
    pub(crate) fn sweep(&self, space: &Space, policy: &SelectionPolicy, now: u64) -> Vec<u64> {
        let repo = space.repo.snapshot();
        let Stale { checked_at, victims } = self.stale(&repo, policy, now);
        if let Some(clock) =
            checked_at.filter(|_| victims.iter().all(|(_, why)| *why == Eviction::Window))
        {
            repo.clean.set(clock);
        }
        if victims.is_empty() {
            return Vec::new();
        }
        self.forget_files(space, victims)
    }

    /// What the staleness pass would do to `repo` at driver tick `now`,
    /// without doing it. A record is stale when a file it names is not
    /// at the tick it holds, or, with a window set, when its entry went
    /// unused (rule 3). The first reason that holds is the one counted:
    /// its own file is gone (`output_missing`), its file is at another
    /// tick (`overwritten`), its entry's window expired (`window`), a
    /// base file its plan reads moved or is gone (`inputs_changed`,
    /// rule 4).
    ///
    /// Every file check reads one namenode view, skipped while `Dfs::now`
    /// reads the clock at which `repo` was last found clean (its
    /// `PresentAt` memo, which a publish's clone forgets). A delete or
    /// commit ticks the clock only once its change is visible, so a
    /// job-free warm query only reads the clock and the memo.
    pub(crate) fn stale(&self, repo: &RepoSnapshot, policy: &SelectionPolicy, now: u64) -> Stale {
        let dfs = self.engine.dfs();
        let clock = dfs.now();
        let checked_at = (!repo.clean.at(clock)).then_some(clock);
        if checked_at.is_none() && policy.eviction_window.is_none() {
            return Stale { checked_at, victims: Vec::new() };
        }
        // Rule 3 reads an entry's usage, so only a window needs them.
        let entries: HashMap<&str, &RepoEntry> = match policy.eviction_window {
            Some(_) => repo.entries().iter().map(|e| (e.file.path.as_str(), &**e)).collect(),
            None => HashMap::new(),
        };
        let scan = |version: Option<&VersionOf<'_>>| {
            let moved = |(p, n): &(String, u64)| version.is_some_and(|v| v(p) != Some(*n));
            let why = |f: &StoredFile| match version.map(|v| v(&f.path)) {
                Some(None) => Some(Eviction::OutputMissing),
                Some(Some(at)) if at != f.tick => Some(Eviction::Overwritten),
                _ if entries.get(f.path.as_str()).is_some_and(|e| policy.expired(e, now)) => {
                    Some(Eviction::Window)
                }
                _ if f.inputs.iter().any(moved) => Some(Eviction::InputsChanged),
                _ => None,
            };
            let mut victims: Vec<_> =
                repo.files().filter_map(|f| Some((f.path.clone(), why(f)?))).collect();
            victims.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            Stale { checked_at, victims }
        };
        match checked_at {
            Some(_) => dfs.with_versions(|version| scan(Some(version))),
            None => scan(None),
        }
    }

    /// Forget the records of `victims`' paths, in order, evicting the
    /// entry of each that has one, as one published batch (one
    /// `repo-batch` record). Files are deleted,
    /// pin-checked, only after the batch publishes: a session that
    /// pinned a match and revalidates sees the entry (its pin defers the
    /// delete) or its absence (it skips it), never a deleted file behind
    /// a live entry. Whether an evicted entry's file goes is decided
    /// from its record alone, without reading the DFS: only a file
    /// ReStore wrote typed for itself (a candidate or a `tmp-N`),
    /// evicted for its window or its inputs (see `Eviction::deletes`). A
    /// path with no record in the pending state (a racing writer forgot
    /// it) is skipped. Returns the evicted ids.
    pub(crate) fn forget_files(&self, space: &Space, victims: Vec<(String, Eviction)>) -> Vec<u64> {
        let dfs = self.engine.dfs();
        space.repo.batch_then(
            |b| {
                victims
                    .into_iter()
                    .filter_map(|(path, why)| Some((b.forget(&path)?, why)))
                    .collect()
            },
            |evicted: Vec<(std::sync::Arc<RepoEntry>, Eviction)>| {
                for (entry, why) in &evicted {
                    let path = &entry.file.path;
                    if why.deletes(entry.file.typed) && !space.pins.defer_delete(path) {
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

    /// Write `path` as one row, typed or text, and return the record of
    /// it as produced by `plan(input)`: its file's real tick and format.
    fn stored(dfs: &Dfs, path: &str, typed: bool, input: &str) -> StoredFile {
        let rows = [restore_common::tuple!["x", 1i64]];
        let bytes = if typed {
            restore_common::typed::encode_file(&rows)
        } else {
            restore_common::codec::encode_all(&rows)
        };
        dfs.write_all(path, &bytes).unwrap();
        let tick = dfs.status(path).unwrap().mtime;
        StoredFile { tick, typed, ..StoredFile::new(path, plan(input)) }
    }

    /// A session whose default namespace holds one entry, created at tick
    /// 9 from `/data/in` at its current version and stored as text in
    /// `/repo/out`.
    fn session() -> (ReStore, Arc<Space>) {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/in", b"v0").unwrap();
        let out = stored(&dfs, "/repo/out", false, "/x");
        let version = dfs.with_versions(|v| v("/data/in")).unwrap();
        let engine = Engine::new(dfs, ClusterConfig::default(), EngineConfig::default());
        let rs = ReStore::new(engine, ReStoreConfig::default());
        let space = rs.space_for(None);
        let inputs = vec![("/data/in".into(), version)];
        space
            .repo
            .insert(StoredFile { inputs, ..out }, RepoStats { created: 9, ..stats(10, 1, 1.0) });
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
        let old = RepoStats { created: 1, last_used: 2, ..stats(10, 1, 1.0) };
        space.repo.insert(stored(dfs, "/repo/old", true, "/old"), old.clone());
        space.repo.insert(stored(dfs, "/repo/text", false, "/text"), old);

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
    fn a_rewritten_output_is_overwritten_before_expired_and_its_file_stays() {
        let (rs, space) = session();
        let dfs = rs.engine().dfs();
        let expired = RepoStats { created: 1, ..stats(10, 1, 1.0) };
        space.repo.insert(stored(dfs, "/repo/cand", true, "/cand"), expired);
        let mut w = dfs.create_overwrite("/repo/cand").unwrap();
        w.write(b"mallory\t1\n");
        w.close().unwrap();

        let policy = SelectionPolicy { eviction_window: Some(5), ..Default::default() };
        // The read-only step names the entry and leaves it where it is.
        let stale = rs.stale(&space.repo.snapshot(), &policy, 10);
        let reasons: Vec<Eviction> = stale.victims.iter().map(|(_, why)| *why).collect();
        assert_eq!(reasons, [Eviction::Overwritten]);
        assert_eq!(space.repo.snapshot().len(), 2);

        assert_eq!(rs.sweep(&space, &policy, 10).len(), 1);
        assert_eq!(dfs.read_all("/repo/cand").unwrap(), b"mallory\t1\n", "the new bytes stay");
        assert!(space.repo.snapshot().entries().iter().all(|e| e.file.path == "/repo/out"));
    }

    #[test]
    fn strict_policy_combines_rules() {
        let p = SelectionPolicy::strict(7);
        assert!(p.require_size_reduction && p.require_time_benefit);
        assert_eq!(p.eviction_window, Some(7));
    }
}
