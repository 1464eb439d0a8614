//! The per-tenant dead-letter queue: failed submissions parked for
//! inspection and redrive, durable through the snapshot journal.
//!
//! An entry carries the **whole compiled workflow** (every job plan,
//! the dependency edges, the inter-job temporaries), so a redrive
//! re-submits exactly the bytes that failed — no recompilation, no
//! dependence on the original query text surviving anywhere. Entries
//! serialize through the same line format the repository and
//! provenance tables use (plans via [`crate::plan_text`], strings
//! Rust-quoted):
//!
//! ```text
//! dead <id> <attempts> <tick>
//! error "<why the final attempt failed>"
//! tmp "/wf/q/tmp-0"
//! job -            (dependency list; `-` = none, else `0,2`)
//!   0 load "/data/pv"
//!   1 store "/out/q" <- 0
//! end
//! ```
//!
//! Durability composes with the journal exactly like repository
//! batches: a put appends a `dlq-put` record inside the queue's lock
//! (record order = application order), an ack appends `dlq-ack` with
//! the removed ids, and full dumps write a per-space `--dlq--` section
//! — so the queue survives crash-recovery and rides checkpoint
//! compaction with no extra machinery.
//! Entry ids are monotonic within a namespace (max + 1), which makes
//! replay idempotent: a re-applied put keys on its id, a re-applied
//! ack removes nothing twice.
//!
//! The file holds the codec and the queue's `impl ReStore`
//! (`dlq_put_as`, `dlq_entries_as`, `dlq_ack_as`, `dlq_depth_as`,
//! `dlq_depths`); the service's retry and redrive policy sits on top, in
//! `restore-service`.

use crate::driver::ReStore;
use restore_common::{Error, Result};
use restore_dataflow::mr_compiler::CompiledJob;
use restore_dataflow::CompiledWorkflow;
use std::sync::atomic::Ordering;

/// One dead-lettered submission.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// Namespace-local id (monotonic; assigned at put).
    pub id: u64,
    /// Execution attempts consumed before the submission was parked.
    pub attempts: u32,
    /// The driver tick current when the entry was parked — the
    /// session's logical clock, not wall time, so dumps stay
    /// deterministic.
    pub tick: u64,
    /// Why the final attempt failed.
    pub error: String,
    /// The compiled workflow, byte-exact for redrive.
    pub wf: CompiledWorkflow,
}

fn bad(msg: impl Into<String>) -> Error {
    Error::Other(format!("dlq entry: {}", msg.into()))
}

/// Serialize one entry onto `out` (see the module docs for the
/// grammar).
pub(crate) fn encode_entry_into(out: &mut String, e: &DlqEntry) {
    out.push_str(&format!("dead {} {} {}\n", e.id, e.attempts, e.tick));
    out.push_str(&format!("error {:?}\n", e.error));
    for t in &e.wf.tmp_paths {
        out.push_str(&format!("tmp {t:?}\n"));
    }
    for job in &e.wf.jobs {
        let deps = if job.deps.is_empty() {
            "-".to_string()
        } else {
            job.deps.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
        };
        out.push_str(&format!("job {deps}\n"));
        for line in crate::plan_text::encode_plan(&job.plan).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("end\n");
    }
}

/// Unquote a `{:?}`-quoted string (the state codec's unquoter, with
/// the positional error rewritten as a plain dlq message).
fn unquote(s: &str, what: &str) -> Result<String> {
    crate::state::unquote(s, 0).map_err(|_| bad(format!("bad quoted {what} {s:?}")))
}

/// Parse the next `dead …` entry off the line iterator. Returns
/// `Ok(None)` — consuming nothing — when the next non-empty line does
/// not start an entry, so callers with mixed bodies can dispatch on
/// the leading keyword.
pub(crate) fn parse_entry_lines(
    lines: &mut std::iter::Peekable<std::str::Lines<'_>>,
) -> Result<Option<DlqEntry>> {
    while let Some(l) = lines.peek() {
        if l.trim().is_empty() {
            lines.next();
        } else {
            break;
        }
    }
    let Some(line) = lines.peek() else { return Ok(None) };
    let Some(head) = line.strip_prefix("dead ") else { return Ok(None) };
    let mut it = head.split(' ');
    let mut next_num = |what: &str| -> Result<u64> {
        it.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("bad {what} in header {head:?}")))
    };
    let id = next_num("id")?;
    let attempts = next_num("attempts")? as u32;
    let tick = next_num("tick")?;
    if it.next().is_some() {
        return Err(bad(format!("trailing fields in header {head:?}")));
    }
    lines.next();

    let err_line = lines.next().ok_or_else(|| bad("missing error line"))?;
    let quoted = err_line
        .strip_prefix("error ")
        .ok_or_else(|| bad(format!("expected 'error', got {err_line:?}")))?;
    let error = unquote(quoted, "error")?;

    let mut tmp_paths = Vec::new();
    while let Some(l) = lines.peek() {
        let Some(q) = l.strip_prefix("tmp ") else { break };
        tmp_paths.push(unquote(q, "tmp path")?);
        lines.next();
    }

    let mut jobs = Vec::new();
    while let Some(l) = lines.peek() {
        let Some(deps) = l.strip_prefix("job ") else { break };
        let deps: Vec<usize> = if deps == "-" {
            Vec::new()
        } else {
            deps.split(',')
                .map(|d| d.parse().map_err(|_| bad(format!("bad job deps {deps:?}"))))
                .collect::<Result<_>>()?
        };
        lines.next();
        let mut plan_text = String::new();
        loop {
            let Some(pl) = lines.next() else { return Err(bad("job plan missing 'end'")) };
            if pl == "end" {
                break;
            }
            let Some(body) = pl.strip_prefix("  ") else {
                return Err(bad(format!("expected indented plan line or 'end', got {pl:?}")));
            };
            plan_text.push_str(body);
            plan_text.push('\n');
        }
        let plan = crate::plan_text::decode_plan(&plan_text)
            .map_err(|e| bad(format!("in job plan: {e}")))?;
        jobs.push(CompiledJob { plan, deps });
    }
    for job in &jobs {
        if let Some(&d) = job.deps.iter().find(|&&d| d >= jobs.len()) {
            return Err(bad(format!("job dependency {d} out of range ({} jobs)", jobs.len())));
        }
    }
    Ok(Some(DlqEntry { id, attempts, tick, error, wf: CompiledWorkflow { jobs, tmp_paths } }))
}

/// Serialize a whole queue (entries in id order — the only order a
/// live queue ever holds).
pub(crate) fn save(entries: &[DlqEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        encode_entry_into(&mut out, e);
    }
    out
}

/// Reload a queue serialized by [`save`].
pub(crate) fn load(text: &str) -> Result<Vec<DlqEntry>> {
    let mut entries = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(e) = parse_entry_lines(&mut lines)? {
        entries.push(e);
    }
    if let Some(line) = lines.next() {
        return Err(bad(format!("expected 'dead', got {line:?}")));
    }
    Ok(entries)
}

impl ReStore {
    /// Park a failed submission in the tenant's dead-letter queue and
    /// return the durable entry. The entry id is namespace-monotonic
    /// (max + 1, so the queue is always in id order) and the put is
    /// journaled inside the queue's lock — record order equals
    /// application order, and the entry survives crash-recovery and
    /// checkpoint compaction.
    pub fn dlq_put_as(
        &self,
        tenant: Option<&str>,
        wf: CompiledWorkflow,
        error: &str,
        attempts: u32,
    ) -> DlqEntry {
        let name = Self::space_name(tenant);
        let space = self.space_for(tenant);
        // Effective policy read before taking the queue lock (the
        // config load holds nothing once it returns; no lock-order edge
        // is created).
        let policy = self.effective_config(&space).failure;
        let mut q = space.dlq.lock();
        let entry = DlqEntry {
            id: q.last().map_or(1, |e| e.id + 1),
            attempts,
            tick: self.tick.load(Ordering::SeqCst),
            error: error.to_string(),
            wf,
        };
        q.push(entry.clone());
        self.journal.append_dlq_put(name, &entry);
        // Enforce the tenant's bounds while still holding the queue
        // lock: age-expire first, then evict oldest past the size cap.
        // Evictions are journaled as an ack *after* the put record, so
        // replay converges on exactly this queue.
        let mut evicted: Vec<u64> = Vec::new();
        if policy.dlq_max_age_ticks > 0 {
            let now = entry.tick;
            q.retain(|e| {
                if now.saturating_sub(e.tick) > policy.dlq_max_age_ticks {
                    evicted.push(e.id);
                    false
                } else {
                    true
                }
            });
        }
        if policy.dlq_max_entries > 0 {
            while q.len() > policy.dlq_max_entries {
                evicted.push(q.remove(0).id);
            }
        }
        self.journal.append_dlq_ack(name, &evicted);
        entry
    }

    /// The tenant's dead-letter queue, in id (= arrival) order. An
    /// unknown tenant has an empty queue.
    pub fn dlq_entries_as(&self, tenant: Option<&str>) -> Vec<DlqEntry> {
        self.space_snapshot(tenant).dlq.lock().clone()
    }

    /// Remove entries by id from the tenant's dead-letter queue and
    /// return the removed entries (unknown ids are skipped). The ack is
    /// journaled — with exactly the ids actually removed — inside the
    /// queue's lock, so replay never un-parks an entry twice.
    pub fn dlq_ack_as(&self, tenant: Option<&str>, ids: &[u64]) -> Vec<DlqEntry> {
        let name = Self::space_name(tenant);
        let space = self.space_snapshot(tenant);
        let mut q = space.dlq.lock();
        let mut removed = Vec::new();
        q.retain(|e| {
            if ids.contains(&e.id) {
                removed.push(e.clone());
                false
            } else {
                true
            }
        });
        if !removed.is_empty() {
            let removed_ids: Vec<u64> = removed.iter().map(|e| e.id).collect();
            self.journal.append_dlq_ack(name, &removed_ids);
        }
        removed
    }

    /// Depth of the tenant's dead-letter queue.
    pub fn dlq_depth_as(&self, tenant: Option<&str>) -> usize {
        self.space_snapshot(tenant).dlq.lock().len()
    }

    /// Dead-letter depth of **every** namespace (the default namespace
    /// is named `""`), sorted by name — the telemetry scrape's view, so
    /// `restore_dlq_depth` always reports every live namespace, zeros
    /// included.
    pub fn dlq_depths(&self) -> Vec<(String, usize)> {
        self.spaces_by_name().into_iter().map(|(n, s)| (n, s.dlq.lock().len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workflow() -> CompiledWorkflow {
        restore_dataflow::compile(
            "A = load '/data/pv' as (user, n:int);
             G = group A by user;
             R = foreach G generate group, SUM(A.n);
             store R into '/out/dlq';",
            "/wf/dlq",
        )
        .unwrap()
    }

    #[test]
    fn entry_round_trips_byte_identically() {
        let e = DlqEntry {
            id: 3,
            attempts: 4,
            tick: 17,
            error: "engine: node 2 \"exploded\"\nwith a newline".to_string(),
            wf: workflow(),
        };
        let text = save(std::slice::from_ref(&e));
        let back = load(&text).unwrap();
        assert_eq!(back, vec![e]);
        assert_eq!(save(&back), text, "canonical: re-encoding is byte-identical");
    }

    #[test]
    fn empty_queue_is_the_empty_string() {
        assert_eq!(save(&[]), "");
        assert_eq!(load("").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_entries_are_typed_errors() {
        assert!(load("dead x 0 0\nerror \"e\"\n").is_err(), "bad id");
        assert!(load("dead 1 0 0\n").is_err(), "missing error line");
        assert!(load("dead 1 0 0\nerror \"e\"\njob -\n  0 load \"/p\"\n").is_err(), "missing end");
        assert!(
            load("dead 1 0 0\nerror \"e\"\njob 9\n  0 load \"/p\"\nend\n").is_err(),
            "dep range"
        );
        assert!(load("unexpected\n").is_err(), "junk line");
    }
}
