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
//! and so does the default policy here, which enables no rule; the rules
//! are exercised by their own tests, benches, and an example.

use crate::pin::PinSet;
use crate::repository::{RepoStats, Repository};
use restore_dfs::Dfs;

/// Configuration of the §5 rules.
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
    /// Rule 4: evict entries whose inputs were deleted or overwritten.
    pub check_input_versions: bool,
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        SelectionPolicy {
            require_size_reduction: false,
            require_time_benefit: false,
            reload_read_bps: 80.0 * 1024.0 * 1024.0,
            eviction_window: None,
            check_input_versions: false,
        }
    }
}

impl SelectionPolicy {
    /// A policy enforcing admission rules 1–2 and both eviction rules.
    pub fn strict(window: u64) -> Self {
        SelectionPolicy {
            require_size_reduction: true,
            require_time_benefit: true,
            eviction_window: Some(window),
            check_input_versions: true,
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

    /// Eviction sweep (rules 3 and 4). Evicted outputs are deleted from
    /// the DFS — except outputs pinned by an in-flight workflow, whose
    /// file deletion is deferred to the last unpin (the repository entry
    /// itself is removed immediately either way). Returns the evicted
    /// entry ids.
    ///
    /// Concurrency: the sweep never blocks matching. Victims are chosen
    /// from a snapshot, removed in one atomically published
    /// batch, and only **then** are files deleted (pin-checked) — so by
    /// the time a file can disappear, no fresh snapshot still carries
    /// its entry. Sessions matching against an older snapshot are
    /// protected by the pin-then-revalidate protocol in the driver's
    /// match loop. Returns immediately (no writer serialization) when no
    /// eviction rule is active — the common store-everything policy.
    pub fn sweep(&self, repo: &Repository, dfs: &Dfs, pins: &PinSet, now: u64) -> Vec<u64> {
        if self.eviction_window.is_none() && !self.check_input_versions {
            return Vec::new();
        }
        let mut victims = Vec::new();
        for e in repo.snapshot().entries() {
            let stats = e.stats();
            // Rule 3: unused within the window (entries never used are
            // judged from their creation tick).
            if let Some(w) = self.eviction_window {
                let last_activity = stats.last_used.max(stats.created);
                if now.saturating_sub(last_activity) > w {
                    victims.push(e.id);
                    continue;
                }
            }
            // Rule 4: an input was deleted or modified.
            if self.check_input_versions {
                let invalidated =
                    stats.input_files.iter().any(|(path, version)| match dfs.status(path) {
                        Ok(st) => st.version != *version,
                        Err(_) => true, // deleted
                    });
                if invalidated {
                    victims.push(e.id);
                }
            }
        }
        if victims.is_empty() {
            return victims;
        }
        // Remove every victim in one published batch, then perform the
        // pin-checked file deletions *after* the publish but still
        // inside the writer section (see `Repository::batch_then`): a
        // session that pinned a match and revalidates sees either the
        // entry (so its pin defers our deletion) or its absence (so it
        // skips the entry) — never a deleted file behind a live entry.
        // An id already evicted by a racing sweep simply comes back
        // `None` and is skipped.
        repo.batch_then(
            |b| victims.iter().filter_map(|&id| b.evict(id)).collect::<Vec<_>>(),
            |evicted| {
                let mut swept = Vec::with_capacity(evicted.len());
                for entry in evicted {
                    if !pins.defer_delete(&entry.output_path) {
                        dfs.delete(&entry.output_path);
                    }
                    swept.push(entry.id);
                }
                swept
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
    use restore_dfs::DfsConfig;

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
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/repo/old", b"x").unwrap();
        dfs.write_all("/repo/fresh", b"y").unwrap();
        let repo = Repository::new();
        let mut s_old = stats(10, 1, 1.0);
        s_old.created = 1;
        s_old.last_used = 2;
        repo.insert(plan("/old"), "/repo/old", s_old);
        let mut s_new = stats(10, 1, 1.0);
        s_new.created = 9;
        repo.insert(plan("/fresh"), "/repo/fresh", s_new);

        let policy = SelectionPolicy { eviction_window: Some(5), ..Default::default() };
        let evicted = policy.sweep(&repo, &dfs, &PinSet::default(), 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(repo.snapshot().len(), 1);
        assert!(!dfs.exists("/repo/old"), "evicted output deleted from DFS");
        assert!(dfs.exists("/repo/fresh"));
    }

    #[test]
    fn rule4_input_invalidation() {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/in", b"v0").unwrap();
        dfs.write_all("/repo/out", b"r").unwrap();
        let repo = Repository::new();
        let mut s = stats(10, 1, 1.0);
        s.input_files = vec![("/data/in".into(), 0)];
        repo.insert(plan("/x"), "/repo/out", s);

        let policy = SelectionPolicy { check_input_versions: true, ..Default::default() };
        // Input untouched: nothing happens.
        assert!(policy.sweep(&repo, &dfs, &PinSet::default(), 1).is_empty());
        // Overwrite the input: version bumps, entry evicted.
        let mut w = dfs.create_overwrite("/data/in").unwrap();
        w.write(b"v1");
        w.close().unwrap();
        let evicted = policy.sweep(&repo, &dfs, &PinSet::default(), 2);
        assert_eq!(evicted.len(), 1);
        assert!(repo.snapshot().is_empty());
    }

    #[test]
    fn rule4_deleted_input() {
        let dfs = Dfs::new(DfsConfig::small_for_tests());
        dfs.write_all("/data/in", b"v0").unwrap();
        dfs.write_all("/repo/out", b"r").unwrap();
        let repo = Repository::new();
        let mut s = stats(10, 1, 1.0);
        s.input_files = vec![("/data/in".into(), 0)];
        repo.insert(plan("/x"), "/repo/out", s);
        dfs.delete("/data/in");
        let policy = SelectionPolicy { check_input_versions: true, ..Default::default() };
        assert_eq!(policy.sweep(&repo, &dfs, &PinSet::default(), 1).len(), 1);
    }

    #[test]
    fn strict_policy_combines_rules() {
        let p = SelectionPolicy::strict(7);
        assert!(p.require_size_reduction && p.require_time_benefit);
        assert_eq!(p.eviction_window, Some(7));
        assert!(p.check_input_versions);
    }
}
