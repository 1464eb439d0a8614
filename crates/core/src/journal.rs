//! The snapshot journal: an append-only record log behind incremental
//! session checkpoints.
//!
//! A full `restore-state` dump costs O(repository) — at scale that is a
//! stall on the exact path the paper says should be cheap bookkeeping
//! (ReStore's metadata store is maintained *alongside* job execution,
//! §2.2). The journal makes checkpoint cost proportional to **what
//! changed** instead: every structural mutation is recorded as a typed
//! record at publish time, reuse accounting is dirty-tracked per entry,
//! and a delta capture drains only the accumulated records — no
//! quiesce, no repository walk.
//!
//! # Record grammar
//!
//! A record's payload is line-oriented text whose first line names its
//! type; bodies reuse the exact durable codecs of the tables they
//! touch, so a journaled insert and a full dump are byte-identical:
//!
//! ```text
//! counters <tick> <cand>
//! tenant-create <name:?>
//! tenant-config <name:?>          + config `key value` lines
//! tenant-config-clear <name:?>
//! global-config                   + config `key value` lines
//! repo-batch <space:?>            + `entry …` blocks / `evict <id>` lines, in order
//! note-use <space:?>              + `use <id> <count> <last>` lines (absolute values)
//! prov-batch <space:?>            + `path …` blocks / `forget <p:?>` lines, in order
//! prov-replace <space:?>          + a full provenance table
//! dlq-put <space:?>               + one `dead …` dead-letter entry (see [`crate::dlq`])
//! dlq-ack <space:?>               + `ack <id>` lines (entries removed)
//! breaker-state <space:?> <open|closed>
//! replace                         + a full `restore-state` document (read only)
//! ```
//!
//! `replace` is no longer written: a full document comes back through
//! `recover`, which bumps the lineage instead of recording the load. It
//! is still read, so a journal from a release that recorded a wholesale
//! load mid-journal still replays.
//!
//! One record is one **atomic replay unit** — a wave's registrations
//! land as a single `repo-batch` (plus its `prov-batch`), an eviction
//! sweep as a single `repo-batch` — so a recovered state is always a
//! prefix of committed batches, never half a wave.
//!
//! # Framing and the torn-tail rule
//!
//! Records are framed as `r <seq> <len> <fnv64>\n` followed by exactly
//! `len` payload bytes. `seq` is a session-global sequence number
//! drawn inside the frame buffer's lock, so a segment's physical order
//! is its seq order (recovery still sorts by seq and refuses
//! duplicates: segments are input, and input is checked). `len` is the
//! payload byte length, and `fnv64` is the payload's FNV-1a 64-bit
//! checksum in hex. A crash can truncate the tail of the segment being
//! written; on decode:
//!
//! * an **incomplete final frame** (header cut short, or fewer than
//!   `len` payload bytes remaining) in the *final* segment is a **torn
//!   tail**: it is dropped and recovery proceeds with the consistent
//!   prefix — truncation at *any* byte offset recovers to some prefix
//!   of committed records;
//! * the same in a non-final segment is an error (later segments would
//!   replay against a hole);
//! * a checksum mismatch on a *complete* frame, an unparseable frame
//!   header, or an undecodable payload is **corruption**, not a crash
//!   artifact, and fails with [`Error::Journal`] naming the segment and
//!   record.
//!
//! # Sequence numbers and compaction
//!
//! Base checkpoints (`restore-state v5`) record the journal sequence
//! number current when the capture began. Recovery replays only records
//! with `seq >` the base's, and every record is **idempotent** (puts
//! carry full entries, note-use carries absolute counters), so a base
//! captured concurrently with journaling is safe: a record the base
//! already reflects replays as a no-op. Compaction is therefore just
//! "take a fresh base, drop segments whose records it covers" — the
//! service's checkpoint keeper does exactly that when the
//! journal-to-base byte ratio crosses its threshold.

use crate::dlq::DlqEntry;
use crate::driver::ReStoreConfig;
use crate::provenance::{self, Provenance};
use crate::repository::{self, RepoOp};
use parking_lot::Mutex;
use restore_common::Error;
use restore_dataflow::physical::PhysicalPlan;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// First line of every journal segment.
pub const SEGMENT_HEADER: &str = "restore-journal v1";

/// Journal tuning.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Seal the live segment once it exceeds this many bytes; a delta
    /// capture may therefore return several segments.
    pub segment_bytes: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { segment_bytes: 64 * 1024 }
    }
}

/// Point-in-time journal introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    pub enabled: bool,
    /// Last assigned record sequence number (0 = none yet).
    pub seq: u64,
    /// Bytes buffered in the live (unsealed) segment.
    pub live_bytes: usize,
    /// Sealed segments awaiting the next delta capture.
    pub sealed_segments: usize,
}

/// Where a torn tail was detected (and truncated) during recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Index of the segment (in recovery order) carrying the tear.
    pub segment: usize,
    /// Byte offset of the first incomplete frame.
    pub offset: usize,
}

/// What a [`ReStore::recover`](crate::ReStore::recover) call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal sequence number the base checkpoint was anchored at.
    pub base_seq: u64,
    /// Records replayed on top of the base.
    pub records_applied: usize,
    /// Records skipped because the base already covered them.
    pub records_skipped: usize,
    /// A torn tail was detected in the final segment and truncated.
    pub torn_tail: Option<TornTail>,
}

// ---- decoded records ----

/// One decoded journal record (see the module docs for the grammar;
/// `Replace` is read, never written).
#[derive(Debug)]
pub(crate) enum Record {
    Counters { tick: u64, cand: u64 },
    TenantCreate { space: String },
    TenantConfigSet { space: String, config: ReStoreConfig },
    TenantConfigClear { space: String },
    GlobalConfig { config: ReStoreConfig },
    RepoBatch { space: String, ops: Vec<RepoRecOp> },
    NoteUse { space: String, uses: Vec<(u64, u64, u64)> },
    ProvBatch { space: String, ops: Vec<ProvRecOp> },
    ProvReplace { space: String, table: Provenance },
    DlqPut { space: String, entry: DlqEntry },
    DlqAck { space: String, ids: Vec<u64> },
    BreakerState { space: String, open: bool },
    Replace { state: String },
}

/// A decoded repository mutation, in application order.
#[derive(Debug)]
pub(crate) enum RepoRecOp {
    Put(repository::ParsedEntry),
    Evict(u64),
}

/// A decoded provenance mutation, in application order.
#[derive(Debug)]
pub(crate) enum ProvRecOp {
    Register { path: String, plan: PhysicalPlan },
    Forget { path: String },
}

// ---- checksum ----

/// FNV-1a 64-bit: tiny, dependency-free, and plenty to catch the
/// random corruption the frame checksum exists for.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---- the journal ----

/// The session journal: an append-only, segment-rolled record log.
/// Appends are cheap (encode + one short mutex section) and happen
/// inside the mutating table's writer section, so the log's physical
/// order equals publish order. Disabled journals drop appends at a
/// single atomic load.
pub(crate) struct Journal {
    enabled: AtomicBool,
    /// Recovery replays records through the normal mutation paths;
    /// pausing stops those paths from re-journaling what they apply.
    paused: AtomicUsize,
    /// Last assigned sequence number (lock-free readers; assignments
    /// happen under the `live` lock).
    seq: AtomicU64,
    /// Seal the live buffer into a segment once it crosses this bound.
    segment_bytes: AtomicUsize,
    /// Bytes in the live buffer, readable without its lock (stats).
    live_bytes: AtomicUsize,
    /// The live frame buffer (frames only; the segment header is
    /// prepended when it is sealed).
    live: Mutex<String>,
    /// Full segments sealed since the last delta capture.
    sealed: Mutex<Vec<String>>,
    /// Highest seq handed off by [`Journal::cut`] — `seq - captured_seq`
    /// is the records a crash right now would have to replay (the
    /// exposition's `restore_journal_seq_lag`).
    captured_seq: AtomicU64,
    /// Counters as last journaled, so a delta only carries a
    /// `counters` record when they moved.
    counters: Mutex<(u64, u64)>,
    /// Serializes delta captures (two concurrent captures would race
    /// on the dirty sets and segment hand-off).
    pub(crate) capture: Mutex<()>,
    /// Lineage token: bumped whenever the session's state is replaced
    /// wholesale *without* journaling what changed (recovery replay).
    /// Replication stamps shipments with it so a standby can detect
    /// that its primary rolled back underneath the record stream.
    lineage: AtomicU64,
    /// Segment taps, fired under the sealed-segments lock as each
    /// segment seals — observers (replication) therefore see segments
    /// in exactly the order recovery would replay them. A tap must not
    /// append to or roll this journal (the live buffer is locked while
    /// it runs).
    taps: Mutex<Vec<(u64, SegmentTap)>>,
    tap_ids: AtomicU64,
}

/// A sealed-segment observer: called with the current lineage token and
/// the full segment text (header included) as each segment seals.
pub(crate) type SegmentTap = Arc<dyn Fn(u64, &str) + Send + Sync>;

/// Handle for deregistering a [`SegmentTap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TapId(u64);

impl Default for Journal {
    fn default() -> Self {
        Journal {
            enabled: AtomicBool::new(false),
            paused: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            segment_bytes: AtomicUsize::new(JournalConfig::default().segment_bytes),
            live_bytes: AtomicUsize::new(0),
            live: Mutex::new(String::new()),
            sealed: Mutex::new(Vec::new()),
            captured_seq: AtomicU64::new(0),
            counters: Mutex::new((0, 0)),
            capture: Mutex::new(()),
            lineage: AtomicU64::new(1),
            taps: Mutex::new(Vec::new()),
            tap_ids: AtomicU64::new(0),
        }
    }
}

impl Journal {
    pub(crate) fn enable(&self, config: JournalConfig) {
        self.segment_bytes.store(config.segment_bytes.max(SEGMENT_HEADER.len() + 1), SeqCst);
        self.enabled.store(true, SeqCst);
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(SeqCst)
    }

    /// Should an append actually record? (enabled and not paused)
    pub(crate) fn active(&self) -> bool {
        self.enabled() && self.paused.load(SeqCst) == 0
    }

    /// Last assigned sequence number.
    pub(crate) fn seq(&self) -> u64 {
        self.seq.load(SeqCst)
    }

    /// Never hand out a sequence number at or below `to` again (called
    /// when loading a base checkpoint that already covers them, and
    /// after recovery replays shipped or on-disk records). Records at
    /// or below `to` are durable in the caller's base or segments by
    /// definition, so the captured mark advances too — otherwise a
    /// freshly recovered session with an empty buffer would report `to`
    /// records of phantom seq lag.
    pub(crate) fn advance_seq(&self, to: u64) {
        self.seq.fetch_max(to, SeqCst);
        self.captured_seq.fetch_max(to, SeqCst);
    }

    /// Current lineage token (see [`Journal::bump_lineage`]).
    pub(crate) fn lineage(&self) -> u64 {
        self.lineage.load(SeqCst)
    }

    /// Mark a lineage break: the session's state was replaced by a
    /// replay that did **not** journal what it applied (recovery), so a
    /// downstream replica that was tailing the old record stream can no
    /// longer reconcile by seq alone. Replication stamps every shipment
    /// with the token; a mismatch at the standby is a typed divergence
    /// that forces a full-base resync.
    pub(crate) fn bump_lineage(&self) {
        self.lineage.fetch_add(1, SeqCst);
    }

    /// Suspend recording for the guard's lifetime (journal replay).
    pub(crate) fn pause(&self) -> PauseGuard<'_> {
        self.paused.fetch_add(1, SeqCst);
        PauseGuard(self)
    }

    pub(crate) fn stats(&self) -> JournalStats {
        JournalStats {
            enabled: self.enabled(),
            seq: self.seq(),
            live_bytes: self.live_bytes.load(SeqCst),
            sealed_segments: self.sealed.lock().len(),
        }
    }

    /// Frame `payload` and append it to the live buffer, sealing the
    /// buffer into a segment once it crosses the bound. `seq` is drawn
    /// inside the buffer's lock, so physical order equals seq order.
    fn append_payload(&self, payload: &str) {
        let mut buf = self.live.lock();
        let seq = self.seq.fetch_add(1, SeqCst) + 1;
        buf.push_str(&format!("r {seq} {} {:016x}\n", payload.len(), fnv1a64(payload.as_bytes())));
        buf.push_str(payload);
        self.live_bytes.store(buf.len(), SeqCst);
        if buf.len() >= self.segment_bytes.load(SeqCst) {
            self.seal_locked(&mut buf);
        }
    }

    /// Move the live buffer (if non-empty) into a sealed segment. The
    /// caller holds the buffer's lock.
    fn seal_locked(&self, buf: &mut String) {
        if buf.is_empty() {
            return;
        }
        let seg = format!("{SEGMENT_HEADER}\n{buf}");
        buf.clear();
        self.live_bytes.store(0, SeqCst);
        // Push and notify under one sealed-lock hold: concurrent seals
        // cannot reorder between the queue and the taps, so observers
        // see segments in recovery order.
        let mut sealed = self.sealed.lock();
        let lineage = self.lineage();
        for (_, tap) in self.taps.lock().iter() {
            tap(lineage, &seg);
        }
        sealed.push(seg);
    }

    /// Register a sealed-segment observer (see [`SegmentTap`]). The tap
    /// sees every segment sealed from here on; segments sealed earlier
    /// are invisible to it, which is why replication registers its tap
    /// *before* capturing the anchoring base.
    pub(crate) fn add_tap(&self, tap: SegmentTap) -> TapId {
        let id = TapId(self.tap_ids.fetch_add(1, SeqCst) + 1);
        self.taps.lock().push((id.0, tap));
        id
    }

    pub(crate) fn remove_tap(&self, id: TapId) {
        self.taps.lock().retain(|(tid, _)| *tid != id.0);
    }

    /// Seal the live buffer into a segment **without** consuming the
    /// sealed queue or advancing the captured mark: the segment still
    /// belongs to the next [`Journal::cut`] (the checkpoint keeper's
    /// delta), while registered taps have already received a copy —
    /// replication shipping and incremental checkpointing share the
    /// same sealed segments without stealing from each other.
    pub(crate) fn seal(&self) {
        self.seal_locked(&mut self.live.lock());
    }

    /// Seal the live buffer (if non-empty) and hand every sealed
    /// segment to the caller; the journal forgets them — the caller
    /// (the driver's `save_state_delta`) owns persistence from here.
    pub(crate) fn cut(&self) -> Vec<String> {
        self.seal();
        let segments = std::mem::take(&mut *self.sealed.lock());
        // Everything sequenced before the seal is now the caller's to
        // persist; later appends are the new lag.
        self.captured_seq.fetch_max(self.seq(), SeqCst);
        segments
    }

    /// Records appended since the last [`Journal::cut`] (what a crash
    /// right now would replay from the live buffer).
    pub(crate) fn seq_lag(&self) -> u64 {
        self.seq().saturating_sub(self.captured_seq.load(SeqCst))
    }

    // ---- typed appends (encode side) ----

    /// Append a `counters` record iff tick/cand moved since the last
    /// one. Returns whether a record was appended.
    pub(crate) fn append_counters_if_changed(&self, tick: u64, cand: u64) -> bool {
        if !self.active() {
            return false;
        }
        {
            let mut last = self.counters.lock();
            if *last == (tick, cand) {
                return false;
            }
            *last = (tick, cand);
        }
        self.append_payload(&format!("counters {tick} {cand}\n"));
        true
    }

    /// Overwrite the `counters` dedup cache without appending. Replay
    /// paths (state load, recovery, shipped-record replay) move
    /// tick/cand with the journal paused; the cache must follow, or the
    /// next delta capture would re-emit an unchanged pair as a phantom
    /// record.
    pub(crate) fn sync_counters_cache(&self, tick: u64, cand: u64) {
        *self.counters.lock() = (tick, cand);
    }

    pub(crate) fn append_tenant_create(&self, space: &str) {
        if self.active() {
            self.append_payload(&format!("tenant-create {space:?}\n"));
        }
    }

    pub(crate) fn append_tenant_config(&self, space: &str, config: Option<&ReStoreConfig>) {
        if !self.active() {
            return;
        }
        match config {
            Some(c) => self.append_payload(&format!(
                "tenant-config {space:?}\n{}",
                crate::state::encode_config(c)
            )),
            None => self.append_payload(&format!("tenant-config-clear {space:?}\n")),
        }
    }

    pub(crate) fn append_global_config(&self, config: &ReStoreConfig) {
        if self.active() {
            self.append_payload(&format!("global-config\n{}", crate::state::encode_config(config)));
        }
    }

    /// Journal one repository batch.
    pub(crate) fn append_repo_batch(&self, space: &str, ops: &[RepoOp]) {
        if !self.active() {
            return;
        }
        let mut payload = format!("repo-batch {space:?}\n");
        for op in ops {
            match op {
                RepoOp::Put(e) => repository::encode_entry_into(&mut payload, e),
                RepoOp::Evict(id) => payload.push_str(&format!("evict {id}\n")),
            }
        }
        self.append_payload(&payload);
    }

    pub(crate) fn append_note_use(&self, space: &str, uses: &[(u64, u64, u64)]) {
        if !self.active() || uses.is_empty() {
            return;
        }
        let mut payload = format!("note-use {space:?}\n");
        for (id, count, last) in uses {
            payload.push_str(&format!("use {id} {count} {last}\n"));
        }
        self.append_payload(&payload);
    }

    pub(crate) fn append_prov_batch(
        &self,
        space: &str,
        registers: &[(String, Arc<PhysicalPlan>)],
        forgets: &[String],
    ) {
        if !self.active() || (registers.is_empty() && forgets.is_empty()) {
            return;
        }
        let mut payload = format!("prov-batch {space:?}\n");
        for (path, plan) in registers {
            provenance::encode_record_into(&mut payload, path, plan);
        }
        for path in forgets {
            payload.push_str(&format!("forget {path:?}\n"));
        }
        self.append_payload(&payload);
    }

    pub(crate) fn append_prov_replace(&self, space: &str, table: &str) {
        if self.active() {
            self.append_payload(&format!("prov-replace {space:?}\n{table}"));
        }
    }

    /// Journal one dead-letter put. Called inside the queue's lock, so
    /// record order equals application order under racing puts.
    pub(crate) fn append_dlq_put(&self, space: &str, entry: &DlqEntry) {
        if !self.active() {
            return;
        }
        let mut payload = format!("dlq-put {space:?}\n");
        crate::dlq::encode_entry_into(&mut payload, entry);
        self.append_payload(&payload);
    }

    /// Journal a dead-letter removal (redrive or purge) by entry id.
    pub(crate) fn append_dlq_ack(&self, space: &str, ids: &[u64]) {
        if !self.active() || ids.is_empty() {
            return;
        }
        let mut payload = format!("dlq-ack {space:?}\n");
        for id in ids {
            payload.push_str(&format!("ack {id}\n"));
        }
        self.append_payload(&payload);
    }

    /// Journal a circuit-breaker transition for a tenant (`""` is the
    /// default tenant), so a promoted standby inherits open breakers
    /// instead of admitting a thundering herd at the failing tenant.
    pub(crate) fn append_breaker_state(&self, space: &str, open: bool) {
        if self.active() {
            let state = if open { "open" } else { "closed" };
            self.append_payload(&format!("breaker-state {space:?} {state}\n"));
        }
    }
}

/// RAII pause token from [`Journal::pause`].
pub(crate) struct PauseGuard<'a>(&'a Journal);

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.0.paused.fetch_sub(1, SeqCst);
    }
}

// ---- decode side ----

/// Byte offsets at which `segment` cleanly splits: after the segment
/// header and after every complete, checksum-valid frame. Truncating
/// the segment at any byte `o` recovers exactly the records before the
/// largest boundary ≤ `o` — the torn-tail rule in one list. Returns an
/// empty list when the text does not begin with a full segment header.
pub fn segment_boundaries(segment: &str) -> Vec<usize> {
    let header_len = SEGMENT_HEADER.len() + 1;
    if !segment.starts_with(SEGMENT_HEADER) || segment.len() < header_len {
        return Vec::new();
    }
    let mut out = vec![header_len];
    let mut pos = header_len;
    while pos < segment.len() {
        let Some((_, len, sum, body_start)) = parse_frame_at(segment, pos) else { break };
        let end = body_start + len;
        if end > segment.len() || fnv1a64(&segment.as_bytes()[body_start..end]) != sum {
            // Incomplete or checksum-invalid frame: no boundary past
            // here — decode_segment would reject the same frame.
            break;
        }
        out.push(end);
        pos = end;
    }
    out
}

/// `(min_seq, max_seq, frames)` of a sealed segment, by walking frame
/// headers only — no payload decode, no checksum. The segment is
/// input, so nothing is assumed about the order of its frames. `None`
/// for a header-less or frame-less segment. Replication
/// stamps shipments with the max (the standby's catch-up target)
/// without paying for a decode the standby does anyway.
pub(crate) fn segment_seq_span(segment: &str) -> Option<(u64, u64, usize)> {
    let header_len = SEGMENT_HEADER.len() + 1;
    if !segment.starts_with(SEGMENT_HEADER) || segment.len() < header_len {
        return None;
    }
    let mut span: Option<(u64, u64, usize)> = None;
    let mut pos = header_len;
    while pos < segment.len() {
        let (seq, len, _, body_start) = parse_frame_at(segment, pos)?;
        let end = body_start + len;
        if end > segment.len() {
            return None;
        }
        span = Some(match span {
            None => (seq, seq, 1),
            Some((lo, hi, n)) => (lo.min(seq), hi.max(seq), n + 1),
        });
        pos = end;
    }
    span
}

/// Parse the frame header starting at `pos`; returns
/// `(seq, payload_len, checksum, payload_start)` or `None` when the
/// header line is incomplete or unparseable.
fn parse_frame_at(text: &str, pos: usize) -> Option<(u64, usize, u64, usize)> {
    let nl = text[pos..].find('\n')?;
    let line = &text[pos..pos + nl];
    let rest = line.strip_prefix("r ")?;
    let mut it = rest.split(' ');
    let seq: u64 = it.next()?.parse().ok()?;
    let len: usize = it.next()?.parse().ok()?;
    let sum = u64::from_str_radix(it.next()?, 16).ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((seq, len, sum, pos + nl + 1))
}

/// A decoded segment: the `(seq, record)` pairs plus the torn tail, if
/// the final frame was cut short.
pub(crate) type DecodedSegment = (Vec<(u64, Record)>, Option<TornTail>);

/// Decode one segment into `(seq, record)` pairs. `is_final` permits a
/// torn tail (reported, not fatal); any other malformation is an
/// [`Error::Journal`] naming the segment and the 1-based record
/// ordinal.
pub(crate) fn decode_segment(
    text: &str,
    segment: usize,
    is_final: bool,
) -> restore_common::Result<DecodedSegment> {
    let err = |record: usize, msg: String| Error::Journal { segment, record, msg };
    let torn = |records, offset| Ok((records, Some(TornTail { segment, offset })));
    let header_len = SEGMENT_HEADER.len() + 1;
    if !text.starts_with(SEGMENT_HEADER) || text.len() < header_len {
        // A truncated header can only happen to the segment being
        // written at crash time.
        if is_final && format!("{SEGMENT_HEADER}\n").starts_with(text) {
            return torn(Vec::new(), 0);
        }
        return Err(err(0, "missing segment header".into()));
    }
    let mut records = Vec::new();
    let mut pos = header_len;
    let mut ordinal = 0usize;
    while pos < text.len() {
        ordinal += 1;
        let Some(nl) = text[pos..].find('\n') else {
            // Header line cut short mid-write.
            if is_final {
                return torn(records, pos);
            }
            return Err(err(ordinal, "truncated frame header in non-final segment".into()));
        };
        let Some((seq, len, sum, body_start)) = parse_frame_at(text, pos) else {
            // The line is complete (its newline survived), so an
            // unparseable header is corruption, not truncation.
            return Err(err(ordinal, format!("bad frame header {:?}", &text[pos..pos + nl])));
        };
        if body_start + len > text.len() {
            if is_final {
                return torn(records, pos);
            }
            return Err(err(ordinal, "truncated record payload in non-final segment".into()));
        }
        let payload = &text[body_start..body_start + len];
        let actual = fnv1a64(payload.as_bytes());
        if actual != sum {
            return Err(err(
                ordinal,
                format!("checksum mismatch for record seq {seq}: stored {sum:016x}, computed {actual:016x}"),
            ));
        }
        let record = decode_payload(payload).map_err(|e| match e {
            PayloadError::Malformed(msg) => err(ordinal, msg),
            PayloadError::Refused(e) => e,
        })?;
        records.push((seq, record));
        pos = body_start + len;
    }
    Ok((records, None))
}

/// Why a payload did not decode.
enum PayloadError {
    /// A plain message; the caller attaches segment / record coordinates.
    Malformed(String),
    /// A well-formed record this release refuses, passed through typed
    /// (a config written by a sharded repository, [`Error::Config`]).
    Refused(Error),
}

impl From<String> for PayloadError {
    fn from(msg: String) -> Self {
        PayloadError::Malformed(msg)
    }
}

impl From<&str> for PayloadError {
    fn from(msg: &str) -> Self {
        PayloadError::Malformed(msg.to_string())
    }
}

/// Decode the `key value` body of a `tenant-config` / `global-config`
/// record.
fn decode_config_body(body: &str) -> Result<ReStoreConfig, PayloadError> {
    let lines: Vec<&str> = body.lines().collect();
    crate::state::decode_config(&lines, 0).map_err(|e| match e {
        Error::Config(_) => PayloadError::Refused(e),
        e => PayloadError::Malformed(format!("in config: {e}")),
    })
}

/// Decode one record payload (the framed bytes, checksum already
/// verified).
fn decode_payload(payload: &str) -> Result<Record, PayloadError> {
    let nl = payload.find('\n').ok_or("record payload has no tag line")?;
    let tag_line = &payload[..nl];
    let body = &payload[nl + 1..];
    let (tag, arg) = match tag_line.split_once(' ') {
        Some((t, a)) => (t, a),
        None => (tag_line, ""),
    };
    let space = |arg: &str| -> Result<String, String> {
        crate::state::unquote(arg, 0).map_err(|_| format!("bad space name {arg:?}"))
    };
    match tag {
        "counters" => {
            let (t, c) = arg.split_once(' ').ok_or("counters record needs two values")?;
            Ok(Record::Counters {
                tick: t.parse().map_err(|_| "bad tick value".to_string())?,
                cand: c.parse().map_err(|_| "bad cand value".to_string())?,
            })
        }
        "tenant-create" => Ok(Record::TenantCreate { space: space(arg)? }),
        "tenant-config" => {
            Ok(Record::TenantConfigSet { space: space(arg)?, config: decode_config_body(body)? })
        }
        "tenant-config-clear" => Ok(Record::TenantConfigClear { space: space(arg)? }),
        "global-config" => Ok(Record::GlobalConfig { config: decode_config_body(body)? }),
        "repo-batch" => {
            let space = space(arg)?;
            let mut ops = Vec::new();
            let mut lines = body.lines().peekable();
            loop {
                match repository::parse_entry_lines(&mut lines) {
                    Ok(Some(e)) => {
                        ops.push(RepoRecOp::Put(e));
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => return Err(format!("in repo-batch: {e}").into()),
                }
                let Some(line) = lines.next() else { break };
                let Some(id) = line.strip_prefix("evict ") else {
                    return Err(format!("unexpected repo-batch line {line:?}").into());
                };
                let id = id.parse().map_err(|_| format!("bad evict id {line:?}"))?;
                ops.push(RepoRecOp::Evict(id));
            }
            Ok(Record::RepoBatch { space, ops })
        }
        "note-use" => {
            let space = space(arg)?;
            let mut uses = Vec::new();
            for line in body.lines() {
                let rest = line
                    .strip_prefix("use ")
                    .ok_or_else(|| format!("unexpected note-use line {line:?}"))?;
                let mut it = rest.split(' ');
                let mut next = || {
                    it.next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| format!("bad note-use line {line:?}"))
                };
                uses.push((next()?, next()?, next()?));
            }
            Ok(Record::NoteUse { space, uses })
        }
        "prov-batch" => {
            let space = space(arg)?;
            let mut ops = Vec::new();
            let mut lines = body.lines().peekable();
            loop {
                match provenance::parse_record_lines(&mut lines) {
                    Ok(Some((path, plan))) => {
                        ops.push(ProvRecOp::Register { path, plan });
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => return Err(format!("in prov-batch: {e}").into()),
                }
                let Some(line) = lines.next() else { break };
                let Some(p) = line.strip_prefix("forget ") else {
                    return Err(format!("unexpected prov-batch line {line:?}").into());
                };
                let path =
                    crate::state::unquote(p, 0).map_err(|_| format!("bad forget path {p:?}"))?;
                ops.push(ProvRecOp::Forget { path });
            }
            Ok(Record::ProvBatch { space, ops })
        }
        "prov-replace" => {
            let table =
                Provenance::load(body).map_err(|e| format!("in prov-replace table: {e}"))?;
            Ok(Record::ProvReplace { space: space(arg)?, table })
        }
        "dlq-put" => {
            let space = space(arg)?;
            let mut lines = body.lines().peekable();
            let entry = crate::dlq::parse_entry_lines(&mut lines)
                .map_err(|e| format!("in dlq-put: {e}"))?
                .ok_or("dlq-put record has no entry")?;
            if let Some(line) = lines.next() {
                return Err(format!("unexpected dlq-put line {line:?}").into());
            }
            Ok(Record::DlqPut { space, entry })
        }
        "dlq-ack" => {
            let space = space(arg)?;
            let mut ids = Vec::new();
            for line in body.lines() {
                let id = line
                    .strip_prefix("ack ")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad dlq-ack line {line:?}"))?;
                ids.push(id);
            }
            Ok(Record::DlqAck { space, ids })
        }
        "breaker-state" => {
            let (name, state) =
                arg.rsplit_once(' ').ok_or("breaker-state record needs a space and a state")?;
            let open = match state {
                "open" => true,
                "closed" => false,
                other => return Err(format!("bad breaker state {other:?}").into()),
            };
            Ok(Record::BreakerState { space: space(name)?, open })
        }
        "replace" => Ok(Record::Replace { state: body.to_string() }),
        other => Err(format!("unknown record type {other:?}").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal() -> Journal {
        let j = Journal::default();
        j.enable(JournalConfig::default());
        j
    }

    #[test]
    fn disabled_journal_drops_appends() {
        let j = Journal::default();
        j.append_tenant_create("ana");
        assert_eq!(j.seq(), 0);
        assert!(j.cut().is_empty());
    }

    #[test]
    fn paused_journal_drops_appends() {
        let j = journal();
        {
            let _p = j.pause();
            j.append_tenant_create("ana");
        }
        assert_eq!(j.seq(), 0);
        j.append_tenant_create("ana");
        assert_eq!(j.seq(), 1);
    }

    #[test]
    fn records_round_trip_through_a_segment() {
        let j = journal();
        j.append_counters_if_changed(7, 3);
        j.append_tenant_create("ana");
        j.append_note_use("", &[(4, 10, 99)]);
        let segs = j.cut();
        assert_eq!(segs.len(), 1);
        let (records, torn) = decode_segment(&segs[0], 0, true).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].0, 1);
        assert!(matches!(records[0].1, Record::Counters { tick: 7, cand: 3 }));
        assert!(matches!(&records[1].1, Record::TenantCreate { space } if space == "ana"));
        match &records[2].1 {
            Record::NoteUse { space, uses } => {
                assert_eq!(space, "");
                assert_eq!(uses, &vec![(4, 10, 99)]);
            }
            other => panic!("expected note-use, got {other:?}"),
        }
    }

    #[test]
    fn breaker_state_round_trips() {
        let j = journal();
        j.append_breaker_state("ana", true);
        j.append_breaker_state("", false);
        let seg = j.cut().pop().unwrap();
        let (records, torn) = decode_segment(&seg, 0, true).unwrap();
        assert!(torn.is_none());
        assert_eq!(records.len(), 2);
        assert!(
            matches!(&records[0].1, Record::BreakerState { space, open: true } if space == "ana")
        );
        assert!(
            matches!(&records[1].1, Record::BreakerState { space, open: false } if space.is_empty())
        );
    }

    #[test]
    fn counters_record_only_when_changed() {
        let j = journal();
        assert!(j.append_counters_if_changed(1, 0));
        assert!(!j.append_counters_if_changed(1, 0));
        assert!(j.append_counters_if_changed(2, 0));
    }

    #[test]
    fn segments_roll_over_at_the_size_bound() {
        let j = Journal::default();
        j.enable(JournalConfig { segment_bytes: 64 });
        for i in 0..10 {
            j.append_tenant_create(&format!("tenant-{i}"));
        }
        let segs = j.cut();
        assert!(segs.len() > 1, "expected rollover, got {} segment(s)", segs.len());
        // Every sealed segment decodes cleanly and the seqs chain.
        let mut seqs = Vec::new();
        for (i, s) in segs.iter().enumerate() {
            let (records, torn) = decode_segment(s, i, i + 1 == segs.len()).unwrap();
            assert!(torn.is_none());
            seqs.extend(records.iter().map(|(q, _)| *q));
        }
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn truncation_at_every_byte_is_a_clean_prefix_or_torn() {
        let j = journal();
        for i in 0..5 {
            j.append_tenant_create(&format!("t{i}"));
        }
        let seg = j.cut().pop().unwrap();
        let boundaries = segment_boundaries(&seg);
        assert_eq!(boundaries.len(), 6, "header + five records");
        for cut in 0..=seg.len() {
            let t = &seg[..cut];
            let (records, torn) = decode_segment(t, 0, true)
                .unwrap_or_else(|e| panic!("cut at {cut} must not be fatal: {e}"));
            let want = boundaries.iter().filter(|&&b| b <= cut).count().saturating_sub(1);
            assert_eq!(records.len(), want, "cut at byte {cut}");
            let at_boundary = boundaries.contains(&cut) || cut == seg.len();
            assert_eq!(torn.is_none(), at_boundary, "cut at byte {cut}");
        }
    }

    #[test]
    fn torn_tail_in_non_final_segment_is_an_error() {
        let j = journal();
        j.append_tenant_create("ana");
        let seg = j.cut().pop().unwrap();
        let t = &seg[..seg.len() - 3];
        match decode_segment(t, 2, false) {
            Err(Error::Journal { segment: 2, record: 1, msg }) => {
                assert!(msg.contains("non-final"), "{msg}");
            }
            other => panic!("expected a journal error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_checksum_names_the_record() {
        let j = journal();
        j.append_tenant_create("ana");
        j.append_tenant_create("bo");
        let seg = j.cut().pop().unwrap();
        // Flip one payload byte of the *second* record.
        let pos = seg.rfind("bo").unwrap();
        let mut bytes = seg.into_bytes();
        bytes[pos] = b'X';
        let seg = String::from_utf8(bytes).unwrap();
        match decode_segment(&seg, 0, true) {
            Err(Error::Journal { segment: 0, record: 2, msg }) => {
                assert!(msg.contains("checksum"), "{msg}");
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_record_type_names_the_record() {
        let payload = "frobnicate\n";
        let seg = format!(
            "{SEGMENT_HEADER}\nr 1 {} {:016x}\n{payload}",
            payload.len(),
            fnv1a64(payload.as_bytes())
        );
        match decode_segment(&seg, 0, true) {
            Err(Error::Journal { record: 1, msg, .. }) => {
                assert!(msg.contains("frobnicate"), "{msg}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
    }
    /// A `tenant-config` / `global-config` record written by a sharded
    /// repository is refused with the same typed error as a base
    /// document carrying the key; `repo_shards 1` is read and ignored.
    #[test]
    fn config_record_from_a_sharded_repository_is_refused_typed() {
        let seg = |payload: &str| {
            format!(
                "{SEGMENT_HEADER}\nr 1 {} {:016x}\n{payload}",
                payload.len(),
                fnv1a64(payload.as_bytes())
            )
        };
        for tag in ["tenant-config \"ana\"", "global-config"] {
            match decode_segment(&seg(&format!("{tag}\nrepo_shards 8\n")), 0, true) {
                Err(Error::Config(msg)) => {
                    assert!(msg.contains("shard-concatenation order"), "{msg}")
                }
                other => panic!("expected Error::Config, got {other:?}"),
            }
            let (records, _) =
                decode_segment(&seg(&format!("{tag}\nrepo_shards 1\n")), 0, true).unwrap();
            assert!(matches!(
                &records[0].1,
                Record::TenantConfigSet { config, .. } | Record::GlobalConfig { config }
                    if *config == ReStoreConfig::default()
            ));
            // Anything else wrong with the body is still a located
            // journal error.
            match decode_segment(&seg(&format!("{tag}\nrepo_shards many\n")), 3, true) {
                Err(Error::Journal { segment: 3, record: 1, msg }) => {
                    assert!(msg.contains("repo_shards"), "{msg}")
                }
                other => panic!("expected Error::Journal, got {other:?}"),
            }
        }
    }
}
