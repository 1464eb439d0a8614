//! The snapshot journal: the one durable format of a session, and the
//! append-only record log behind incremental checkpoints.
//!
//! A base checkpoint costs O(repository) — at scale that is a stall on
//! the exact path the paper says should be cheap bookkeeping (ReStore's
//! metadata store is maintained *alongside* job execution, §2.2). The
//! journal makes checkpoint cost proportional to **what changed**
//! instead: every structural mutation is recorded as a typed record at
//! publish time, reuse accounting is dirty-tracked per entry, and a delta
//! capture drains only the accumulated records — no quiesce, no
//! repository walk.
//!
//! # Record grammar
//!
//! A segment's first line is [`SEGMENT_HEADER`] (`restore-journal v9`),
//! which names the format epoch (see `state.rs`); a segment of another
//! epoch, or a `restore-state` document of an earlier one, is refused
//! with [`Error::Epoch`]. A record's payload is line-oriented text whose
//! first line names its type; bodies reuse the codecs of the tables they
//! touch (`repository.rs`'s blocks, `state.rs`'s config lines). The
//! reader reads exactly these kinds, the ones the writer writes:
//!
//! ```text
//! counters <tick> <cand>
//! tenant-create <name:?>
//! tenant-config <name:?>          + config `key value` lines
//! tenant-config-clear <name:?>
//! global-config                   + config `key value` lines
//! repo-batch <space:?>            + `entry …` + `file …` / lone `file …` blocks,
//!                                   `evict <id>` / `forget <p:?>` lines, in
//!                                   application order
//! note-use <space:?>              + `use <id> <count> <last>` lines (absolute values)
//! repository <space:?>            + the namespace's whole table (bases only)
//! base-end <seq>                  the anchor; closes a base (bases only)
//! ```
//!
//! One record is one **atomic replay unit** — a wave's entries and
//! records land as a single `repo-batch`, an eviction sweep's forgets as
//! another — so a recovered state is always a prefix of committed
//! batches, never half a wave. An entry and its file's record are one
//! block, so no prefix recovers one without the other
//! (`tests/prop_journal.rs`,
//! `every_clean_prefix_recovers_records_at_their_files_ticks`).
//!
//! # A base is a segment
//!
//! [`ReStore::save_state`](crate::ReStore::save_state) writes a segment
//! too, with the payload encoders and the frame writer the appends use,
//! so a record of one kind has the same payload bytes in a base and in a
//! delta. In order: `global-config`; per namespace, sorted with `""`
//! first, `tenant-create` (not for `""`), `tenant-config` when the
//! namespace has an override, and `repository`; `counters`; last,
//! `base-end <seq>`. Every frame of a base carries the anchor `seq`, and
//! the closing record carries it again inside its checksummed payload.
//! A `repository` body is the namespace's table in match-priority order
//! (`RepoSnapshot::save_filtered`), loaded verbatim by
//! `Repository::load` rather than replayed entry by entry: a replayed
//! put re-derives each entry's position, O(n) per entry.
//!
//! A base is read by `decode_base`, which forgives nothing: a torn
//! frame, a first record other than `global-config`, a last record
//! other than `base-end`, or a frame whose seq is not the anchor is an
//! [`Error::Base`] naming the record. So a base cut at any byte, or with
//! any one byte changed, is refused before the session is touched.
//!
//! # Framing and the torn-tail rule
//!
//! Records are framed as `r <seq> <len> <sum>\n` followed by exactly
//! `len` payload bytes. In a delta, `seq` is a session-global sequence
//! number drawn inside the frame buffer's lock, so a segment's physical
//! order is its seq order (recovery still sorts by seq and refuses
//! duplicates: segments are input, and input is checked). `len` is the
//! payload byte length, and `sum` is the payload's 64-bit checksum
//! (`frame_hash`) in hex. A crash can truncate the tail of the segment
//! being written; on decode:
//!
//! * an **incomplete final frame** (header cut short, or fewer than
//!   `len` payload bytes remaining) in the *final* delta segment is a
//!   **torn tail**: it is dropped and recovery proceeds with the
//!   consistent prefix — truncation at *any* byte offset recovers to
//!   some prefix of committed records;
//! * the same in a non-final segment or in a base is an error (later
//!   records would replay against a hole);
//! * a checksum mismatch on a *complete* frame, an unparseable frame
//!   header, or an undecodable payload is **corruption**, not a crash
//!   artifact, and fails with [`Error::Journal`] naming the segment and
//!   record.
//!
//! # Sequence numbers and compaction
//!
//! A base records the journal sequence number current when the capture
//! began. Recovery replays only delta records with `seq >` the base's,
//! and every record is **idempotent** (puts carry full entries, note-use
//! carries absolute counters), so a base captured concurrently with
//! journaling is safe: a record the base already reflects replays as a
//! no-op. Compaction is therefore just "take a fresh base, drop segments
//! whose records it covers" — the service's checkpoint keeper does
//! exactly that when the journal-to-base byte ratio crosses its
//! threshold.

use crate::driver::ReStoreConfig;
use crate::repository::{self, Block, RepoOp, Repository};
use crate::state::{self, EPOCH};
use parking_lot::Mutex;
use restore_common::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};

/// First line of every segment, base or delta: the format epoch.
pub const SEGMENT_HEADER: &str = concat!("restore-journal v", crate::state::epoch!());

/// [`SEGMENT_HEADER`] with its newline: what every segment begins with.
const HEADER_LINE: &str = concat!("restore-journal v", crate::state::epoch!(), "\n");

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
    /// Records appended since the last delta capture — what a crash
    /// right now would have to replay from the live buffer.
    pub seq_lag: u64,
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
/// only a base holds `Repository`, a namespace's whole table, and
/// `BaseEnd`, its closing anchor).
#[derive(Debug)]
pub(crate) enum Record {
    Counters { tick: u64, cand: u64 },
    TenantCreate { space: String },
    TenantConfigSet { space: String, config: ReStoreConfig },
    TenantConfigClear { space: String },
    GlobalConfig { config: ReStoreConfig },
    RepoBatch { space: String, ops: Vec<RepoRecOp> },
    NoteUse { space: String, uses: Vec<(u64, u64, u64)> },
    Repository { space: String, repo: Repository },
    BaseEnd { seq: u64 },
}

/// A decoded repository mutation, in application order.
#[derive(Debug)]
pub(crate) enum RepoRecOp {
    /// An entry put, or a record without an entry.
    Block(Block),
    Evict(u64),
    Forget(String),
}

// ---- checksum ----

/// The frame checksum: FNV-1a's shape (offset basis
/// `0xcbf2_9ce4_8422_2325`, then per byte XOR and multiply), but the
/// multiplier is `0x1000_0000_01b3` = 2^44 + 0x1b3, not FNV's 64-bit
/// prime 2^40 + 0x1b3, so it is not FNV-1a and a standard FNV-1a does
/// not reproduce a frame's sum. Tiny, dependency-free, and plenty to
/// catch the random corruption it exists for. The multiplier is part of
/// every frame's bytes: changing it waits for a format epoch.
pub(crate) fn frame_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

// ---- payload encoders and the frame writer ----

/// Frame `payload` as one record with sequence number `seq`.
fn write_frame(out: &mut String, seq: u64, payload: &str) {
    out.push_str(&format!("r {seq} {} {:016x}\n", payload.len(), frame_hash(payload.as_bytes())));
    out.push_str(payload);
}

pub(crate) fn counters_payload(tick: u64, cand: u64) -> String {
    format!("counters {tick} {cand}\n")
}

pub(crate) fn tenant_create_payload(space: &str) -> String {
    format!("tenant-create {space:?}\n")
}

/// A `tenant-config` record, or `tenant-config-clear` for `None`.
pub(crate) fn tenant_config_payload(space: &str, config: Option<&ReStoreConfig>) -> String {
    match config {
        Some(c) => format!("tenant-config {space:?}\n{}", state::encode_config(c)),
        None => format!("tenant-config-clear {space:?}\n"),
    }
}

pub(crate) fn global_config_payload(config: &ReStoreConfig) -> String {
    format!("global-config\n{}", state::encode_config(config))
}

/// A `repository` record: `table` is the namespace's whole table in the
/// block format of `RepoSnapshot::save_filtered`.
pub(crate) fn repository_payload(space: &str, table: &str) -> String {
    format!("repository {space:?}\n{table}")
}

/// A base checkpoint being written: a segment whose every frame carries
/// the anchor `seq`, closed by a `base-end` record (see the module
/// docs).
pub(crate) struct BaseWriter {
    out: String,
    seq: u64,
}

impl BaseWriter {
    pub(crate) fn new(seq: u64) -> BaseWriter {
        BaseWriter { out: HEADER_LINE.to_string(), seq }
    }

    pub(crate) fn push(&mut self, payload: &str) {
        write_frame(&mut self.out, self.seq, payload);
    }

    /// Close the base with its `base-end` record.
    pub(crate) fn finish(mut self) -> String {
        self.push(&format!("base-end {}\n", self.seq));
        self.out
    }
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
}

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
        }
    }
}

impl Journal {
    pub(crate) fn enable(&self, config: JournalConfig) {
        self.segment_bytes.store(config.segment_bytes.max(HEADER_LINE.len()), SeqCst);
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
    /// after recovery replays on-disk records). Records at or below `to`
    /// are durable in the caller's base or segments by definition, so
    /// the captured mark advances too — otherwise a freshly recovered
    /// session with an empty buffer would report `to` records of phantom
    /// seq lag.
    pub(crate) fn advance_seq(&self, to: u64) {
        self.seq.fetch_max(to, SeqCst);
        self.captured_seq.fetch_max(to, SeqCst);
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
            seq_lag: self.seq().saturating_sub(self.captured_seq.load(SeqCst)),
        }
    }

    /// Frame `payload` and append it to the live buffer, sealing the
    /// buffer into a segment once it crosses the bound. `seq` is drawn
    /// inside the buffer's lock, so physical order equals seq order.
    fn append_payload(&self, payload: &str) {
        let mut buf = self.live.lock();
        let seq = self.seq.fetch_add(1, SeqCst) + 1;
        write_frame(&mut buf, seq, payload);
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
        let seg = format!("{HEADER_LINE}{buf}");
        buf.clear();
        self.live_bytes.store(0, SeqCst);
        self.sealed.lock().push(seg);
    }

    /// Seal the live buffer (if non-empty) and hand every sealed
    /// segment to the caller; the journal forgets them — the caller
    /// (the driver's `save_state_delta`) owns persistence from here.
    pub(crate) fn cut(&self) -> Vec<String> {
        self.seal_locked(&mut self.live.lock());
        let segments = std::mem::take(&mut *self.sealed.lock());
        // Everything sequenced before the seal is now the caller's to
        // persist; later appends are the new lag.
        self.captured_seq.fetch_max(self.seq(), SeqCst);
        segments
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
        self.append_payload(&counters_payload(tick, cand));
        true
    }

    /// Overwrite the `counters` dedup cache without appending. Replay
    /// paths (state load, recovery) move tick/cand with the journal
    /// paused; the cache must follow, or the next delta capture would
    /// re-emit an unchanged pair as a phantom record.
    pub(crate) fn sync_counters_cache(&self, tick: u64, cand: u64) {
        *self.counters.lock() = (tick, cand);
    }

    pub(crate) fn append_tenant_create(&self, space: &str) {
        if self.active() {
            self.append_payload(&tenant_create_payload(space));
        }
    }

    pub(crate) fn append_tenant_config(&self, space: &str, config: Option<&ReStoreConfig>) {
        if self.active() {
            self.append_payload(&tenant_config_payload(space, config));
        }
    }

    pub(crate) fn append_global_config(&self, config: &ReStoreConfig) {
        if self.active() {
            self.append_payload(&global_config_payload(config));
        }
    }

    /// Journal one repository batch: its entries, records, evictions and
    /// forgets, in application order.
    pub(crate) fn append_repo_batch(&self, space: &str, ops: &[RepoOp]) {
        if !self.active() {
            return;
        }
        let mut payload = format!("repo-batch {space:?}\n");
        for op in ops {
            match op {
                RepoOp::Put(e) => repository::encode_entry_into(&mut payload, e),
                RepoOp::File(f) => repository::encode_file_into(&mut payload, f),
                RepoOp::Evict(id) => payload.push_str(&format!("evict {id}\n")),
                RepoOp::Forget(path) => payload.push_str(&format!("forget {path:?}\n")),
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
    if !segment.starts_with(HEADER_LINE) {
        return Vec::new();
    }
    let mut out = vec![HEADER_LINE.len()];
    let mut pos = HEADER_LINE.len();
    while pos < segment.len() {
        let Some((_, len, sum, body_start)) = parse_frame_at(segment, pos) else { break };
        let end = body_start + len;
        if end > segment.len() || frame_hash(&segment.as_bytes()[body_start..end]) != sum {
            // Incomplete or checksum-invalid frame: no boundary past
            // here — decode_segment would reject the same frame.
            break;
        }
        out.push(end);
        pos = end;
    }
    out
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

/// Refuse a first line that names another epoch: a segment of another
/// epoch, or a `restore-state` document, the base format before epoch 9.
/// A line of any other shape passes; the caller reports a missing header.
fn check_epoch(line: &str) -> Result<()> {
    let found = ["restore-journal v", "restore-state v"]
        .into_iter()
        .find_map(|kind| line.strip_prefix(kind)?.parse().ok());
    match found {
        Some(found) if found != EPOCH => {
            Err(Error::Epoch { line: line.to_string(), found, reads: EPOCH })
        }
        _ => Ok(()),
    }
}

/// Decode one segment into `(seq, record)` pairs. `is_final` permits a
/// torn tail (reported, not fatal); any other malformation is an
/// [`Error::Journal`] naming the segment and the 1-based record
/// ordinal.
pub(crate) fn decode_segment(text: &str, segment: usize, is_final: bool) -> Result<DecodedSegment> {
    let err = |record: usize, msg: String| Error::Journal { segment, record, msg };
    let torn = |records, offset| Ok((records, Some(TornTail { segment, offset })));
    if let Some((first, _)) = text.split_once('\n') {
        check_epoch(first)?;
    }
    if !text.starts_with(HEADER_LINE) {
        // A truncated header can only happen to the segment being
        // written at crash time.
        if is_final && HEADER_LINE.starts_with(text) {
            return torn(Vec::new(), 0);
        }
        return Err(err(0, "missing segment header".into()));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LINE.len();
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
        let actual = frame_hash(payload.as_bytes());
        if actual != sum {
            return Err(err(
                ordinal,
                format!("checksum mismatch for record seq {seq}: stored {sum:016x}, computed {actual:016x}"),
            ));
        }
        let record = decode_payload(payload).map_err(|msg| err(ordinal, msg))?;
        records.push((seq, record));
        pos = body_start + len;
    }
    Ok((records, None))
}

/// Decode a base checkpoint (see the module docs): a segment read with
/// no torn tail forgiven, which begins with `global-config`, ends with
/// `base-end <seq>`, and every frame of which carries that seq. Returns
/// the anchor and the records before the closing one, in order. A base
/// that is not whole is an [`Error::Base`] naming the record (0 for the
/// header); one of another epoch is an [`Error::Epoch`].
pub(crate) fn decode_base(text: &str) -> Result<(u64, Vec<Record>)> {
    let (mut framed, _) = decode_segment(text, 0, false).map_err(|e| match e {
        Error::Journal { record, msg, .. } => Error::Base { record, msg },
        e => e,
    })?;
    let err = |record: usize, msg: String| Err(Error::Base { record, msg });
    let anchor = match framed.last() {
        Some(&(_, Record::BaseEnd { seq })) => seq,
        _ => return err(framed.len(), "the base does not end with its base-end record".into()),
    };
    if let Some(i) = framed.iter().position(|&(seq, _)| seq != anchor) {
        return err(i + 1, format!("frame seq {} is not the base's anchor {anchor}", framed[i].0));
    }
    if !matches!(framed.first(), Some((_, Record::GlobalConfig { .. }))) {
        return err(1, "the base does not begin with its global-config record".into());
    }
    framed.pop();
    Ok((anchor, framed.into_iter().map(|(_, record)| record).collect()))
}

/// Decode the body of a `repo-batch` into its ops, in order: `entry …`
/// and `file …` blocks, `evict <id>` and `forget <p:?>` lines.
fn decode_batch_body(body: &str) -> std::result::Result<Vec<RepoRecOp>, String> {
    let mut ops = Vec::new();
    let mut lines = body.lines().peekable();
    loop {
        if let Some(block) =
            repository::parse_block(&mut lines).map_err(|e| format!("in repo-batch: {e}"))?
        {
            ops.push(RepoRecOp::Block(block));
            continue;
        }
        let Some(line) = lines.next() else { break };
        if let Some(id) = line.strip_prefix("evict ") {
            ops.push(RepoRecOp::Evict(id.parse().map_err(|_| format!("bad evict id {line:?}"))?));
        } else if let Some(p) = line.strip_prefix("forget ") {
            let path = state::unquote(p).ok_or_else(|| format!("bad forget path {p:?}"))?;
            ops.push(RepoRecOp::Forget(path));
        } else {
            return Err(format!("unexpected repo-batch line {line:?}"));
        }
    }
    Ok(ops)
}

/// Decode one record payload (the framed bytes, checksum already
/// verified).
fn decode_payload(payload: &str) -> std::result::Result<Record, String> {
    let nl = payload.find('\n').ok_or("record payload has no tag line")?;
    let tag_line = &payload[..nl];
    let body = &payload[nl + 1..];
    let (tag, arg) = match tag_line.split_once(' ') {
        Some((t, a)) => (t, a),
        None => (tag_line, ""),
    };
    let space = |arg: &str| state::unquote(arg).ok_or_else(|| format!("bad space name {arg:?}"));
    let config = |body: &str| state::decode_config(body).map_err(|e| format!("in config: {e}"));
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
            Ok(Record::TenantConfigSet { space: space(arg)?, config: config(body)? })
        }
        "tenant-config-clear" => Ok(Record::TenantConfigClear { space: space(arg)? }),
        "global-config" => Ok(Record::GlobalConfig { config: config(body)? }),
        "repo-batch" => Ok(Record::RepoBatch { space: space(arg)?, ops: decode_batch_body(body)? }),
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
        "repository" => Ok(Record::Repository {
            space: space(arg)?,
            repo: Repository::load(body).map_err(|e| format!("in repository: {e}"))?,
        }),
        "base-end" => Ok(Record::BaseEnd { seq: arg.parse().map_err(|_| "bad base-end seq")? }),
        other => Err(format!("unknown record type {other:?}")),
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

    /// A segment of literal payloads, framed with seqs 1, 2, ….
    fn segment_of(payloads: &[&str]) -> String {
        let mut seg = format!("{SEGMENT_HEADER}\n");
        for (i, p) in payloads.iter().enumerate() {
            seg += &format!("r {} {} {:016x}\n{p}", i + 1, p.len(), frame_hash(p.as_bytes()));
        }
        seg
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

    /// The kinds earlier epochs wrote are read as what they are now:
    /// unknown.
    #[test]
    fn unknown_record_type_names_the_record() {
        for kind in [
            "frobnicate",
            "prov-batch \"\"",
            "prov-replace \"\"",
            "replace",
            "breaker-state \"ana\" open",
            "dlq-put \"ana\"",
            "dlq-ack \"ana\"",
        ] {
            let tag = kind.split(' ').next().unwrap();
            match decode_segment(&segment_of(&["counters 1 0\n", &format!("{kind}\n")]), 3, true) {
                Err(Error::Journal { segment: 3, record: 2, msg }) => {
                    assert!(msg.contains(&format!("unknown record type {tag:?}")), "{msg}");
                }
                other => panic!("{kind}: expected a decode error, got {other:?}"),
            }
        }
    }

    /// A config record carrying a key an earlier epoch wrote, such as a
    /// sharded repository's `repo_shards`, is refused like any unknown
    /// key: a located journal error.
    #[test]
    fn config_record_from_a_sharded_repository_is_refused_typed() {
        for tag in ["tenant-config \"ana\"", "global-config"] {
            for n in [1, 8] {
                let seg = segment_of(&[&format!("{tag}\nrepo_shards {n}\n")]);
                match decode_segment(&seg, 3, true) {
                    Err(Error::Journal { segment: 3, record: 1, msg }) => {
                        assert!(msg.contains("unknown config key \"repo_shards\""), "{msg}")
                    }
                    other => panic!("expected Error::Journal, got {other:?}"),
                }
            }
        }
    }
}
