//! Persistence and recovery: how a session's durable state leaves the
//! process and comes back.
//!
//! ReStore's value is the repository of stored job outputs and the
//! plans that produced them, kept across workflows (§2.2). This module
//! is the one way that state is saved and the one way it is loaded:
//!
//! ```text
//!   save:  save_state()        — a base: one segment holding the whole session
//!          save_state_delta()  — journal segments since the last capture
//!   load:  recover(base, segments)   — apply the base, replay later records
//! ```
//!
//! Both are `restore-journal` segments read by one decoder (see
//! `journal.rs`). A plain dump loads as `recover(base, &[])`. The
//! service's checkpoint keeper (`checkpoint_begin` /
//! `checkpoint_incremental` / `checkpoint_set` to save,
//! `restore_incremental` to load, in `restore-service`) is built on
//! these calls, and it is also how a session moves to a new process.
//! This is one of several `impl ReStore` blocks over the same fields;
//! the table lists the others.
//!
//! | File | Purpose |
//! |------|---------|
//! | `persist.rs` | this module: journal switch, base dumps, delta capture, recovery, record replay |
//! | `state.rs` | the format epoch and the config codec |
//! | `journal.rs` | the one durable format: typed records, framing, segments, bases, the torn-tail rule |
//! | `repository.rs` | the published snapshot — entries and the record of every stored file, saved and captured together — and the one block codec `repository` and `repo-batch` records share |
//! | `driver.rs` | the execution loop: the match step's effects (pins, revalidation, use, trace, counters), run, register |
//! | `matching.rs` | no `impl ReStore`: the §3 match and rewrite, a free function of a plan and a snapshot, and the snapshot's memo of its outcomes |
//! | `spaces.rs` | the namespace map (the default namespace is its `""` entry) and configuration |
//! | `introspect.rs` | explain, trace and stats |

use crate::driver::{ReStore, Space};
use crate::journal::{
    self, BaseWriter, Journal, JournalConfig, JournalStats, Record, RecoveryReport,
};
use crate::repository::{Block, RepoOp};
use restore_common::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl ReStore {
    /// Turn on the snapshot journal: from here on, every structural
    /// mutation (a repository batch, tenant/config changes) is
    /// recorded, reuse counters are dirty-tracked, and
    /// [`ReStore::save_state_delta`] captures cheap deltas. Take a base checkpoint ([`ReStore::save_state`]) *after*
    /// enabling — mutations from before the journal was on are only in
    /// the base, never in a delta.
    pub fn enable_journal(&self, config: JournalConfig) {
        self.journal.enable(config);
        // Wire existing namespaces inside the map's writer section:
        // tenant creation serializes on the same writer, so a namespace
        // racing this enable either is in the map when the closure runs
        // (wired here) or is created by a later-serialized `space_for`
        // whose `make_space` reads `enabled() == true` (wired there).
        // Wiring from a plain `load()` would let a concurrently created
        // space slip through both checks and journal nothing, silently.
        self.spaces.update(|m| {
            for (name, space) in m.iter() {
                Self::wire_space(&self.journal, name, space);
            }
        });
    }

    /// Journal introspection: whether it records, its sequence number,
    /// buffered bytes and segments, and the capture lag.
    pub fn journal_stats(&self) -> JournalStats {
        self.journal.stats()
    }

    /// Install the journal sink on a namespace's repository so its
    /// batches — entries and records — emit `repo-batch` records at
    /// publish time.
    fn wire_space(journal: &Arc<Journal>, name: &str, space: &Space) {
        let j = journal.clone();
        let n = name.to_string();
        space
            .repo
            .set_journal_sink(Some(Arc::new(move |ops: &[RepoOp]| j.append_repo_batch(&n, ops))));
    }

    /// A fresh namespace, journal-wired when the journal is on.
    pub(crate) fn make_space(&self, name: &str) -> Arc<Space> {
        let space = Arc::new(Space::registered(&self.obs.registry, name));
        if self.journal.enabled() {
            Self::wire_space(&self.journal, name, &space);
        }
        space
    }

    /// Serialize the full ReStore session state as a **base**: one
    /// `restore-journal` segment of this build's [`EPOCH`](crate::EPOCH)
    /// holding the global configuration, **every** namespace — default
    /// and per-tenant — with its (when set) policy override and its
    /// repository (every record included), the counters, and last the
    /// journal anchor (see `journal.rs`, "A base is a segment"). Paired
    /// with [`ReStore::recover`], this lets a new process resume with
    /// everything a previous session learned (§2.2's repository is
    /// persistent in spirit; the DFS holds the outputs).
    ///
    /// Snapshots are consistent under load: each namespace is captured
    /// in its repository's writer freeze with the pin set consulted
    /// first, so records
    /// whose files have a **pending deferred deletion** (evicted while
    /// pinned by an in-flight workflow) — or are already gone from the
    /// DFS — are excluded rather than serialized as dangling paths.
    /// Tenants are written in sorted order, so re-saving a loaded state
    /// is byte-identical.
    ///
    /// With the journal on, the anchor is the journal sequence read
    /// *before* any table is captured, so every record at or below it is
    /// reflected in the base (its writer section completes before the
    /// capture's freeze), and records after it replay idempotently on
    /// top. No workflow drain is required — only per-namespace writer
    /// freezes.
    pub fn save_state(&self) -> String {
        // Serialize with delta captures: a delta drains dirty usage
        // into absolute-valued `note-use` records stamped *after* this
        // base's anchor; if that drain interleaved with this capture,
        // replay could regress a counter the base already saw newer.
        // Writer-section-emitted records (repository batches) are
        // race-free by construction; the capture lock extends the same
        // guarantee to the lazily drained ones.
        let _capture = self.journal.capture.lock();
        let mut base = BaseWriter::new(self.journal.seq());
        base.push(&journal::global_config_payload(&self.config_as(None)));
        for (name, space) in self.spaces_by_name() {
            if !name.is_empty() {
                base.push(&journal::tenant_create_payload(&name));
            }
            if let Some(config) = &*space.config.load() {
                base.push(&journal::tenant_config_payload(&name, Some(config)));
            }
            base.push(&journal::repository_payload(&name, &self.capture_repository(&space)));
        }
        base.push(&journal::counters_payload(
            self.tick.load(Ordering::SeqCst),
            self.cand_counter.load(Ordering::SeqCst),
        ));
        base.finish()
    }

    /// Capture an **incremental checkpoint**: every journal record
    /// accumulated since the previous capture — structural mutations
    /// recorded at publish time, plus the lazily dirty-tracked state
    /// flushed here (per-space `note-use` batches for entries whose
    /// reuse counters moved, and a `counters` record when tick/cand
    /// advanced). Returns the sealed segments, which the caller
    /// persists alongside its base checkpoint; an idle session yields
    /// an empty list. Cost is proportional to what changed, never to
    /// repository size, and nothing is drained or frozen — submissions
    /// keep flowing.
    ///
    /// Requires [`ReStore::enable_journal`]; recovery is
    /// [`ReStore::recover`] with a base taken at or after the enable.
    pub fn save_state_delta(&self) -> Result<Vec<String>> {
        if !self.journal.enabled() {
            return Err(Error::Other(
                "incremental snapshots require ReStore::enable_journal".into(),
            ));
        }
        let _capture = self.journal.capture.lock();
        for (name, space) in self.spaces_by_name() {
            let uses = space.repo.drain_dirty_usage();
            self.journal.append_note_use(&name, &uses);
        }
        self.journal.append_counters_if_changed(
            self.tick.load(Ordering::SeqCst),
            self.cand_counter.load(Ordering::SeqCst),
        );
        Ok(self.journal.cut())
    }

    /// Rebuild session state from a base checkpoint plus journal
    /// segments: apply the base, then replay every record with a
    /// sequence number past the base's anchor, in **seq order**. The
    /// journal writes segments and frames in seq order, but segments
    /// are input: recovery decodes all of them first and sorts on seq,
    /// so files handed over in the wrong order still replay correctly
    /// and a repeated frame is refused. A torn tail in the
    /// **final** segment — the crash artifact of a process dying
    /// mid-append — is truncated and reported. A base that is not whole
    /// (cut, changed, or without its closing record) fails with
    /// [`Error::Base`] naming the record, and a segment that does not
    /// decode (a bad header or frame) with [`Error::Journal`], both
    /// before the session is touched; a duplicated sequence number
    /// fails with [`Error::Journal`] naming the segment and record,
    /// leaving the base and whatever prefix already applied. Call on a
    /// fresh or quiesced session.
    ///
    /// With no segments this loads a plain [`ReStore::save_state`]
    /// base — the one way a saved session comes back. The base replaces
    /// the whole session: global config, every tenant namespace
    /// (existing tenant state is dropped), and the counters; the stored
    /// output files come from the DFS of the engine this instance was
    /// built with. A base or segment of another format epoch, or a
    /// `restore-state` document, yields [`Error::Epoch`].
    pub fn recover(&self, base: &str, segments: &[String]) -> Result<RecoveryReport> {
        let _capture = self.journal.capture.lock();
        // Replay drives the normal mutation paths; pause the journal so
        // they do not re-record what they apply.
        let _pause = self.journal.pause();
        let (base_seq, base_records) = journal::decode_base(base)?;
        let mut torn_tail = None;
        // (seq, record, segment index, 1-based ordinal) — coordinates
        // kept so a duplicate seq names its record.
        let mut all: Vec<(u64, Record, usize, usize)> = Vec::new();
        for (i, segment) in segments.iter().enumerate() {
            let is_final = i + 1 == segments.len();
            let (records, torn) = journal::decode_segment(segment, i, is_final)?;
            for (ordinal, (seq, record)) in records.into_iter().enumerate() {
                all.push((seq, record, i, ordinal + 1));
            }
            torn_tail = torn;
        }
        // Everything decoded: only now is the session replaced, from a
        // fresh default namespace, so a base without a `repository ""`
        // record still leaves no stale default-namespace state behind.
        self.spaces.store(HashMap::from([(String::new(), self.make_space(""))]));
        for record in base_records {
            self.apply_record(record)?;
        }
        // Sequence numbers stay monotonic across restores: never hand
        // out a seq a base checkpoint already covers.
        self.journal.advance_seq(base_seq);
        // Stable on (segment, ordinal) ties — a duplicate pair stays in
        // physical order, so the error below names the *later* copy.
        all.sort_by_key(|&(seq, ..)| seq);
        let mut applied = 0usize;
        let mut skipped = 0usize;
        let mut last_seq = base_seq;
        for (seq, record, segment, ordinal) in all {
            if seq <= base_seq {
                skipped += 1;
                continue;
            }
            if seq == last_seq {
                return Err(Error::Journal {
                    segment,
                    record: ordinal,
                    msg: format!("duplicate record seq {seq}"),
                });
            }
            last_seq = seq;
            self.apply_record(record)?;
            applied += 1;
        }
        self.journal.advance_seq(last_seq);
        Ok(RecoveryReport {
            base_seq,
            records_applied: applied,
            records_skipped: skipped,
            torn_tail,
        })
    }

    /// Apply one decoded journal record. Every application is
    /// idempotent: puts carry full entries, note-use carries absolute
    /// counters, and space/tenant creation is keyed by name.
    fn apply_record(&self, record: Record) -> Result<()> {
        use crate::journal::RepoRecOp;
        match record {
            Record::Counters { tick, cand } => {
                self.tick.store(tick, Ordering::SeqCst);
                self.cand_counter.store(cand, Ordering::SeqCst);
                // Replay runs with the journal paused, so the append-side
                // dedup cache must be moved by hand or the next delta
                // would re-emit this pair as a phantom record.
                self.journal.sync_counters_cache(tick, cand);
            }
            Record::TenantCreate { space } => {
                let _ = self.space_for(Some(&space));
            }
            Record::TenantConfigSet { space, config } => {
                self.set_config_as(Some(&space), config);
            }
            Record::TenantConfigClear { space } => self.clear_config_as(&space),
            Record::GlobalConfig { config } => self.set_config_as(None, config),
            Record::RepoBatch { space, ops } => {
                let sp = self.space_for(Some(&space));
                sp.repo.batch(|b| {
                    for op in ops {
                        match op {
                            RepoRecOp::Block(Block::Entry { id, stats, file }) => {
                                b.put(id, file, stats)
                            }
                            RepoRecOp::Block(Block::File(file)) => b.put_file(file),
                            RepoRecOp::Evict(id) => {
                                b.evict(id);
                            }
                            RepoRecOp::Forget(path) => {
                                b.forget(&path);
                            }
                        }
                    }
                });
            }
            Record::NoteUse { space, uses } => {
                let sp = self.space_for(Some(&space));
                for (id, count, last_used) in uses {
                    sp.repo.set_usage(id, count, last_used);
                }
            }
            // A table loaded verbatim, in the order it was saved in.
            Record::Repository { space, repo } => self.space_for(Some(&space)).repo.adopt(repo),
            // The anchor means something only as a base's last record,
            // which `decode_base` reads.
            Record::BaseEnd { .. } => {}
        }
        Ok(())
    }

    /// Serialize one namespace's repository with condemned paths
    /// excluded. The capture **freezes the repository's
    /// writer side** (no snapshot can be published while it runs):
    /// deferrals come from eviction sweeps, which must enter that
    /// writer, so none can land between the capture of the deferred
    /// set and the serialization — a deferral either completed before
    /// we froze (and its path is excluded) or is blocked until we
    /// finish. Readers (matching, stats) are not blocked; only
    /// mutations wait, and only for the duration of the serialization.
    /// A path in the deferred set still exists on the DFS right now but
    /// is deleted the moment its last pin drops, so serializing it
    /// would hand a restarted session dangling references.
    fn capture_repository(&self, space: &Space) -> String {
        space.repo.freeze(|repo| {
            let deferred: HashSet<String> = space.pins.deferred_paths().into_iter().collect();
            let dfs = self.engine.dfs();
            repo.save_filtered(|p| !deferred.contains(p) && dfs.exists(p))
        })
    }
}
