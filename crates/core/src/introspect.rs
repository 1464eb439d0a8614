//! Explain, trace and stats: what an operator can ask a session
//! without changing it.
//!
//! ```text
//!   explain_query_as     dry-run the prepare phase against a namespace
//!   explain_last_as      the newest workflow's reuse decisions, rendered
//!   trace_for            the reuse decisions recorded for one tick
//!   stats_as             one namespace's repository summary
//!   stats_all            every namespace from one consistent cut
//!   write_counters_as    a repository's publish and writer-section counts
//! ```
//!
//! Nothing here enters a writer section: each answer is read from
//! repository snapshots (records included) and the session's trace
//! ring.
//!
//! | File | Purpose |
//! |------|---------|
//! | `introspect.rs` | this module: explain, trace, stats |
//! | `driver.rs` | the per-job preparation that `explain_query_as` dry-runs |
//! | `obs.rs` | the registry, stage histograms and the trace ring |
//! | `spaces.rs` | the namespaces these read |

use crate::driver::{Prepared, ReStore, ReStoreStats, Space};
use crate::obs::ReuseTraceEvent;
use restore_common::{human_bytes, Result};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::atomic::Ordering;

impl ReStore {
    /// Dry-run a query against a tenant's namespace (`None` = the
    /// default namespace): compile it and report what the repository
    /// would answer — without executing anything or mutating any state.
    /// Each job, in wave order with one alias map, goes through
    /// execution's own preparation as a dry run: the report lists the
    /// entries it would reuse and whether it would be skipped. A job
    /// Loading the output of one that executes is left undecided: that
    /// output is registered, with its statistics, only once written. The
    /// dry run reads the staleness pass that precedes matching without
    /// running it: a record the pass would forget is neither expanded nor
    /// reused here, and stays in the repository.
    pub fn explain_query_as(
        &self,
        tenant: Option<&str>,
        text: &str,
        out_prefix: &str,
    ) -> Result<String> {
        let space = self.space_snapshot(tenant);
        let config = self.effective_config(&space);
        let wf = self.compile_as(tenant, text, out_prefix)?;
        let repo = space.repo.snapshot();
        let next_tick = self.tick.load(Ordering::SeqCst) + 1;
        let stale: HashSet<String> = self
            .stale(&repo, &config.selection, next_tick)
            .victims
            .into_iter()
            .map(|(path, _)| path)
            .collect();
        let mut report = format!(
            "workflow: {} job(s); repository: {} entr{}\n",
            wf.jobs.len(),
            repo.len(),
            if repo.len() == 1 { "y" } else { "ies" },
        );
        let mut aliases = HashMap::new();
        // The jobs not predicted skipped: they execute, or are undecided.
        let mut runs = vec![false; wf.jobs.len()];
        for idx in wf.waves()?.into_iter().flatten() {
            let job = &wf.jobs[idx];
            let deps = match &job.deps[..] {
                [] => String::new(),
                deps => format!(", depends on {deps:?}"),
            };
            let _ = writeln!(report, "job {idx} ({} operators{deps}):", job.plan.effective_len());
            let waits: Vec<usize> = job.deps.iter().copied().filter(|&d| runs[d]).collect();
            if !waits.is_empty() {
                runs[idx] = true;
                let _ = writeln!(
                    report,
                    "  loads the output of job(s) {waits:?}, not predicted skipped; \
                     decided only once they have run"
                );
                continue;
            }
            let mut rewrites = Vec::new();
            let prep = self.prepare_job(
                &space,
                Self::space_name(tenant),
                &wf,
                idx,
                job.plan.clone(),
                0,
                &config,
                &mut aliases,
                &mut rewrites,
                None,
                &stale,
            )?;
            for ev in &rewrites {
                let (bytes, uses) = repo
                    .get(ev.entry_id)
                    .map(|e| (e.stats().output_bytes, e.use_count()))
                    .unwrap_or((0, 0));
                let _ = writeln!(
                    report,
                    "  would reuse entry #{} -> {} ({}, used {uses} time(s))",
                    ev.entry_id,
                    ev.reused_path,
                    human_bytes(bytes),
                );
            }
            runs[idx] = matches!(prep, Prepared::Run { .. });
            let verdict = match prep {
                Prepared::Skipped { dst } => {
                    format!("whole job answered from {}; job would be skipped", aliases[&dst])
                }
                Prepared::Run { copy_of: Some(src), .. } => {
                    format!(
                        "reduced to a copy of typed {src} into a text output; job runs as a copy"
                    )
                }
                Prepared::Run { .. } if rewrites.is_empty() => {
                    "no matches; job executes in full".to_string()
                }
                Prepared::Run { .. } => continue,
            };
            let _ = writeln!(report, "  {verdict}");
        }
        Ok(report)
    }

    /// The reuse-decision trace of the most recent traced execution in a
    /// tenant's namespace (`None` = the default namespace), rendered one
    /// decision per line (newest workflow only). `None` when nothing has
    /// been traced there yet.
    pub fn explain_last_as(&self, tenant: Option<&str>) -> Option<String> {
        let t = Self::space_name(tenant);
        let last_tick =
            self.obs.trace.snapshot_filtered(|e| e.tenant == t).iter().map(|e| e.tick).max()?;
        let events = self.trace_for(tenant, last_tick);
        let mut out = format!("workflow tick {last_tick} (tenant {t:?}):\n");
        for e in &events {
            out.push_str(&format!("  {e}\n"));
        }
        Some(out)
    }

    /// Reuse-decision trace events recorded for `tick` in a tenant's
    /// namespace, oldest first. The trace ring holds the most recent
    /// [`crate::obs`] events session-wide; an old workflow's events may
    /// have been evicted.
    pub fn trace_for(&self, tenant: Option<&str>, tick: u64) -> Vec<ReuseTraceEvent> {
        let t = Self::space_name(tenant);
        self.obs.trace.snapshot_filtered(|e| e.tenant == t && e.tick == tick)
    }

    /// One consistent cut of every namespace's stats: a single tick read
    /// and a single tenant-map load, so each returned row reports the
    /// same `queries_executed` and a tenant created concurrently is
    /// either absent or fully present. Rows are sorted by name, so the
    /// default namespace is the first row, `""`. Callers that show
    /// totals (the service's `stats`, the metrics exposition) use this
    /// instead of per-tenant [`ReStore::stats_as`] calls, whose
    /// row-by-row reads can straddle executions.
    pub fn stats_all(&self) -> Vec<(String, ReStoreStats)> {
        let queries_executed = self.tick.load(Ordering::SeqCst);
        self.spaces_by_name()
            .into_iter()
            .map(|(name, space)| (name, Self::space_stats(&space, queries_executed)))
            .collect()
    }

    /// Point-in-time summary of a tenant's repository and reuse activity
    /// (`None` = the default namespace). `queries_executed` counts
    /// queries across all namespaces (the tick clock is shared).
    pub fn stats_as(&self, tenant: Option<&str>) -> ReStoreStats {
        Self::space_stats(&self.space_snapshot(tenant), self.tick.load(Ordering::SeqCst))
    }

    /// One namespace's stats at the given clock reading. Wait-free: one
    /// repository snapshot, records included; no writer ever blocked.
    fn space_stats(space: &Space, queries_executed: u64) -> ReStoreStats {
        let repo = space.repo.snapshot();
        let stored_files = repo.files().len();
        let entries = repo.entries();
        ReStoreStats {
            repository_entries: entries.len(),
            stored_bytes: repo.stored_bytes(),
            total_uses: entries.iter().map(|e| e.use_count()).sum(),
            never_used: entries.iter().filter(|e| e.use_count() == 0).count(),
            queries_executed,
            stored_files,
        }
    }

    /// Write-side counters of a tenant's repository: `(snapshot
    /// publishes, writer-section entries)`, both cumulative.
    /// Benchmarks read deltas of these around a round to
    /// attribute wall-time to write-side contention (`None` = the
    /// default namespace).
    pub fn write_counters_as(&self, tenant: Option<&str>) -> (u64, u64) {
        let space = self.space_snapshot(tenant);
        (space.repo.publish_count(), space.repo.writer_sections())
    }
}
