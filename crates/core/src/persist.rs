//! Persistence and recovery: how a session's durable state leaves the
//! process and comes back.
//!
//! ReStore's value is the repository of stored job outputs and the
//! plans that produced them, kept across workflows (§2.2). This module
//! is the one way that state is saved and the one way it is loaded:
//!
//! ```text
//!   save:  save_state()        — a full `restore-state` document (a base)
//!          save_state_delta()  — journal segments since the last capture
//!   load:  recover(base, segments)   — load the base, replay later records
//! ```
//!
//! A plain dump loads as `recover(doc, &[])`. The service's checkpoint
//! keeper (`checkpoint_begin` / `checkpoint_incremental` /
//! `checkpoint_set` to save, `restore_incremental` to load, in
//! `restore-service`) is built on these calls, and it is also how a
//! session moves to a new process. This is one of several `impl
//! ReStore` blocks over the same fields; the table lists the others.
//!
//! | File | Purpose |
//! |------|---------|
//! | `persist.rs` | this module: journal switch, base dumps, delta capture, recovery, record replay |
//! | `state.rs` | the `restore-state` document codec and the format epoch both writers name |
//! | `journal.rs` | the record log: typed appends, framing, segments, the torn-tail rule |
//! | `repository.rs` | the published snapshot — entries and provenance, saved and captured together — and the entry codec |
//! | `provenance.rs` | the provenance table's codec; documents and `repo-batch` records share both codecs |
//! | `driver.rs` | the execution loop: match, rewrite, run, register |
//! | `spaces.rs` | the namespace map (the default namespace is its `""` entry) and configuration |
//! | `introspect.rs` | explain, trace and stats |

use crate::driver::{ReStore, Space};
use crate::journal::{self, Journal, JournalConfig, JournalStats, Record, RecoveryReport};
use crate::repository::RepoOp;
use restore_common::{Error, Result};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl ReStore {
    /// Turn on the snapshot journal: from here on, every structural
    /// mutation (a repository batch with its provenance changes,
    /// tenant/config changes) is recorded, reuse counters are
    /// dirty-tracked, and [`ReStore::save_state_delta`] captures cheap
    /// deltas. Take a base checkpoint ([`ReStore::save_state`]) *after*
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
    /// batches — entries and provenance — emit `repo-batch` records at
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

    /// Serialize the full ReStore session state (a `restore-state`
    /// document of this build's [`EPOCH`](crate::EPOCH)):
    /// the counters, the journal anchor, the global configuration, and
    /// **every** namespace — default and per-tenant — with its
    /// repository, provenance table, and (when set) its policy
    /// override. Paired with [`ReStore::recover`], this lets a new
    /// process resume with everything a previous session learned
    /// (§2.2's repository is persistent in spirit; the DFS holds the
    /// outputs).
    ///
    /// Snapshots are consistent under load: each namespace is captured
    /// in its repository's writer freeze with the pin set consulted
    /// first, so entries
    /// whose files have a **pending deferred deletion** (evicted while
    /// pinned by an in-flight workflow) — or are already gone from the
    /// DFS — are excluded rather than serialized as dangling paths.
    /// Tenants are written in sorted order, so re-saving a loaded state
    /// is byte-identical.
    ///
    /// With the journal on, the dump doubles as a **base checkpoint**:
    /// the `seq` line is the journal sequence read *before* any table
    /// is captured, so every record at or below it is reflected in the
    /// dump (its writer section completes before the capture's freeze),
    /// and records after it replay idempotently on top. No workflow
    /// drain is required — only per-namespace writer freezes.
    pub fn save_state(&self) -> String {
        // Serialize with delta captures: a delta drains dirty usage
        // into absolute-valued `note-use` records stamped *after* this
        // base's anchor; if that drain interleaved with this capture,
        // replay could regress a counter the base already saw newer.
        // Writer-section-emitted records (repository batches) are
        // race-free by construction; the capture lock extends the same
        // guarantee to the lazily drained ones.
        let _capture = self.journal.capture.lock();
        let seq = self.journal.seq();
        let mut out = format!(
            "{}\ntick {}\ncand {}\nseq {}\n--config--\n{}",
            crate::state::HEADER,
            self.tick.load(Ordering::SeqCst),
            self.cand_counter.load(Ordering::SeqCst),
            seq,
            crate::state::encode_config(&self.config_as(None)),
        );
        for (name, space) in self.spaces_by_name() {
            out.push_str(&self.save_space(&name, &space));
        }
        out
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
    /// segments: load the base, then replay every record with a
    /// sequence number past the base's anchor, in **seq order**. The
    /// journal writes segments and frames in seq order, but segments
    /// are input: recovery decodes all of them first and sorts on seq,
    /// so files handed over in the wrong order still replay correctly
    /// and a repeated frame is refused. A torn tail in the
    /// **final** segment — the crash artifact of a process dying
    /// mid-append — is truncated and reported. A segment that does not
    /// decode (another epoch, a bad header or frame) fails before the
    /// base is loaded, leaving the session as it was; a duplicated
    /// sequence number or a record that does not apply fails with
    /// [`Error::Journal`] naming the segment and record, leaving the
    /// base and whatever prefix already applied. Call on a fresh or
    /// quiesced session.
    ///
    /// With no segments this loads a plain [`ReStore::save_state`]
    /// document — the one way a saved session comes back. The document
    /// replaces the whole session: global config, every tenant namespace
    /// (existing tenant state is dropped), and the counters; the stored
    /// output files come from the DFS of the engine this instance was
    /// built with. A malformed document yields [`Error::State`] naming
    /// the offending line; a document or segment of another format
    /// epoch yields [`Error::Epoch`].
    pub fn recover(&self, base: &str, segments: &[String]) -> Result<RecoveryReport> {
        let _capture = self.journal.capture.lock();
        // Replay drives the normal mutation paths; pause the journal so
        // they do not re-record what they apply.
        let _pause = self.journal.pause();
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
        // Every segment decoded: only now is the session replaced.
        let base_seq = self.load_document(base)?;
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
                            RepoRecOp::Put(e) => b.put(e.id, e.plan, e.output_path, e.stats),
                            RepoRecOp::Evict(id) => {
                                b.evict(id);
                            }
                            RepoRecOp::Register { path, plan } => {
                                b.register_replay(path, Arc::new(plan))
                            }
                            RepoRecOp::Forget { path } => {
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
        }
        Ok(())
    }

    /// Serialize one namespace's provenance and repository with
    /// condemned paths excluded. The capture **freezes the repository's
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
    fn capture_space_tables(&self, space: &Space) -> (String, String) {
        space.repo.freeze(|repo| {
            let deferred: HashSet<String> = space.pins.deferred_paths().into_iter().collect();
            let dfs = self.engine.dfs();
            let live = |p: &str| !deferred.contains(p) && dfs.exists(p);
            (repo.provenance().save_filtered(live), repo.save_filtered(live))
        })
    }

    /// One `--space--` section: the namespace's policy override (if
    /// any), provenance, and repository, with condemned paths excluded.
    fn save_space(&self, name: &str, space: &Space) -> String {
        let config = (*space.config.load()).clone();
        let (prov_text, repo_text) = self.capture_space_tables(space);
        let mut out = format!("--space {name:?}--\n");
        if let Some(c) = config {
            out.push_str("--config--\n");
            out.push_str(&crate::state::encode_config(&c));
        }
        out.push_str("--provenance--\n");
        out.push_str(&prov_text);
        out.push_str("--repository--\n");
        out.push_str(&repo_text);
        out
    }

    /// Replace the session with a `restore-state` document. The caller
    /// holds a journal pause (replay must not re-record what it
    /// applies). Returns the document's journal anchor.
    fn load_document(&self, text: &str) -> Result<u64> {
        let loaded = crate::state::parse(text)?;
        self.set_config_as(None, loaded.global_config);
        // Start from a fresh default namespace, so a document without a
        // `--space ""--` section (e.g. hand-pruned) still replaces the
        // whole session instead of leaving stale default-namespace
        // state behind.
        let mut spaces = HashMap::from([(String::new(), self.make_space(""))]);
        for sp in loaded.spaces {
            let space = self.make_space(&sp.name);
            space.repo.adopt(sp.repo);
            // The default namespace follows the global config; an
            // override in its section (never written) is not loaded.
            space.config.store(sp.config.filter(|_| !sp.name.is_empty()));
            spaces.insert(sp.name, space);
        }
        // One publish replaces the whole map atomically.
        self.spaces.store(spaces);
        self.tick.store(loaded.tick, Ordering::SeqCst);
        self.cand_counter.store(loaded.cand, Ordering::SeqCst);
        self.journal.sync_counters_cache(loaded.tick, loaded.cand);
        // Sequence numbers stay monotonic across restores: never hand
        // out a seq a base checkpoint already covers.
        self.journal.advance_seq(loaded.seq);
        Ok(loaded.seq)
    }
}
