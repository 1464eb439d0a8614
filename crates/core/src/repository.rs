//! The ReStore repository of MapReduce job outputs — §2.2 and §5.
//!
//! Each entry holds "(1) the physical query execution plan of the
//! MapReduce job that was executed to produce this output, (2) the
//! filename of the output in the distributed file system, and (3)
//! statistics about the MapReduce job that produced the output and the
//! frequency of use of this output".
//!
//! Entries are kept **ordered** so the sequential scan's first match is
//! the best match (§3): plans that subsume others come first; among
//! incomparable plans, higher input/output reduction ratio, then longer
//! job execution time, win.
//!
//! # Concurrency: RCU snapshots
//!
//! The repository is the hottest shared structure in a multi-session
//! deployment, and its read/write mix is extreme: every job of every
//! workflow matches against it (reads), while only executed waves and
//! eviction sweeps mutate it. It is therefore published as immutable
//! [`RepoSnapshot`]s through an [`Rcu`] cell:
//!
//! * **readers** ([`Repository::snapshot`]) get the current snapshot
//!   for one pointer copy — never waiting on a writer's clone,
//!   mutation, journal sink or `after` — and match, resolve paths, and
//!   read statistics entirely from it;
//! * **writers** ([`Repository::insert`], [`Repository::evict`],
//!   [`Repository::batch`]) clone the snapshot, mutate the clone, and
//!   publish it; concurrent readers keep their old snapshot;
//! * **reuse accounting** ([`Repository::note_use`]) touches neither
//!   side: `use_count`/`last_used` live in atomics shared by every
//!   snapshot that contains the entry, so recording a reuse is a pair
//!   of atomic RMWs — no snapshot is rebuilt and no writer is blocked.
//!
//! Inside a snapshot, lookups that the locked design recomputed per
//! call are precomputed at publish time: an id → position map (O(1)
//! [`RepoSnapshot::get`]), a cached tip signature per entry, an inverted
//! tip-signature → candidates multimap, and a running `stored_bytes`
//! total maintained on insert/evict instead of re-summed per call.
//!
//! # Provenance
//!
//! A snapshot also holds the namespace's [`Provenance`] table — which
//! plan produced each stored path — behind an `Arc`, so the path → plan
//! fact has one home and one publish. A batch registers and forgets
//! paths next to its inserts and evictions ([`RepoBatch::register`],
//! [`RepoBatch::forget`]); the table is copied on the batch's first
//! provenance op only, so a batch that touches no path copies no map,
//! and the journal records the whole batch as one `repo-batch`.
//!
//! # Matching
//!
//! [`RepoSnapshot::find_first_match_probed`] is the match path: an entry can
//! only match at an input-plan node whose Merkle signature equals the
//! entry's cached tip signature, so candidates come out of the inverted
//! index in O(1) per input node and only they are verified with the full
//! §3 traversal, in repository order. The paper's sequential scan
//! ([`RepoSnapshot::find_first_match_scan`]) is kept as the test oracle and
//! the baseline of `experiments ablation`. The two agree exactly — same
//! entry, same site — because a node signature hashes precisely what operator
//! equivalence compares: parameters (Store paths excluded) and inputs
//! positionally, with `Split` tees transparent on both sides.

use crate::matcher::{pairwise_plan_traversal_at, plan_tip, subsumes, PlanMatch};
use crate::plan_text;
use crate::provenance::Provenance;
use crate::rcu::Rcu;
use parking_lot::{Mutex, RwLock};
use restore_common::{Error, Result};
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

/// Execution statistics of a stored job output (§2.2, §5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepoStats {
    /// Bytes the producing job loaded (modeled/actual consistent units).
    pub input_bytes: u64,
    /// Bytes of the stored output.
    pub output_bytes: u64,
    /// Modeled execution time of the producing job, seconds.
    pub job_time_s: f64,
    /// Average map task time of the producing job, seconds.
    pub avg_map_time_s: f64,
    /// Average reduce task time of the producing job, seconds.
    pub avg_reduce_time_s: f64,
    /// How many times this output was used to rewrite a query.
    pub use_count: u64,
    /// Logical tick (query counter) of the last reuse.
    pub last_used: u64,
    /// Logical tick at which the entry was created.
    pub created: u64,
    /// The base files the entry's plan Loads, sorted, at their versions
    /// before the producing job read them (§5 rule 4 evicts on a change).
    pub input_files: Vec<(String, u64)>,
}

impl RepoStats {
    /// Rule-2 ordering metric #1: size of input over size of output.
    pub fn reduction_ratio(&self) -> f64 {
        self.input_bytes as f64 / (self.output_bytes.max(1)) as f64
    }
}

/// Live reuse counters, shared by every snapshot (and every refreshed
/// duplicate) of one entry. Recording a reuse is two atomic RMWs — no
/// repository lock, no snapshot republish. `dirty` is the per-entry
/// dirty bit behind incremental snapshots: the first reuse after a
/// delta capture flips it and enrolls the entry id in the repository's
/// dirty set, so a delta serializes only entries whose counters moved.
#[derive(Debug, Default)]
struct Usage {
    count: AtomicU64,
    last_used: AtomicU64,
    dirty: AtomicBool,
}

/// One stored job output.
#[derive(Debug)]
pub struct RepoEntry {
    pub id: u64,
    /// Base-level physical plan (single Store).
    pub plan: PhysicalPlan,
    /// Merkle signature of `plan` (Store paths excluded).
    pub signature: u64,
    /// Cached signature of the operator feeding the plan's Store (`None`
    /// for degenerate multi-Store plans). Computed once at insertion;
    /// the fingerprint index keys candidates by it.
    pub tip_signature: Option<u64>,
    /// Where the output lives in the DFS.
    pub output_path: String,
    /// Statistics at creation/refresh time. `use_count`/`last_used` in
    /// here are the *persisted baseline*; the live values come from the
    /// shared atomics (see [`RepoEntry::stats`]).
    base: RepoStats,
    usage: Arc<Usage>,
}

impl RepoEntry {
    fn new(id: u64, plan: PhysicalPlan, output_path: String, stats: RepoStats) -> RepoEntry {
        let signature = plan.signature();
        let tip_signature = plan_tip(&plan).map(|t| plan.node_signature(t));
        let usage = Arc::new(Usage {
            count: AtomicU64::new(stats.use_count),
            last_used: AtomicU64::new(stats.last_used),
            dirty: AtomicBool::new(false),
        });
        RepoEntry { id, plan, signature, tip_signature, output_path, base: stats, usage }
    }

    /// Point-in-time statistics: the stored baseline with the live
    /// `use_count`/`last_used` read from the shared atomics.
    pub fn stats(&self) -> RepoStats {
        let mut s = self.base.clone();
        s.use_count = self.usage.count.load(SeqCst);
        s.last_used = self.usage.last_used.load(SeqCst);
        s
    }

    /// The base files the entry's plan Loads, at their recorded versions.
    pub fn input_files(&self) -> &[(String, u64)] {
        &self.base.input_files
    }

    /// Live reuse count.
    pub fn use_count(&self) -> u64 {
        self.usage.count.load(SeqCst)
    }

    /// Logical tick of the most recent reuse (0 = never).
    pub fn last_used(&self) -> u64 {
        self.usage.last_used.load(SeqCst)
    }

    fn note_use(&self, tick: u64) {
        self.usage.count.fetch_add(1, SeqCst);
        // `fetch_max`, not `store`: concurrent recorders with different
        // ticks must leave the *latest* reuse behind regardless of
        // interleaving.
        self.usage.last_used.fetch_max(tick, SeqCst);
    }
}

/// Outcome of an insertion attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// New entry stored under this id.
    Inserted(u64),
    /// An equivalent plan was already stored under this id.
    Duplicate(u64),
}

/// One immutable published state of the repository. Matching, path
/// resolution, statistics, and serialization all run against a snapshot
/// without ever touching a lock; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct RepoSnapshot {
    /// Entries in match-priority order.
    entries: Vec<Arc<RepoEntry>>,
    /// id → position in `entries` (O(1) `get`).
    by_id: HashMap<u64, usize>,
    /// plan signature → entry id (deduplication).
    by_signature: HashMap<u64, u64>,
    /// tip signature → positions (ascending) of entries carrying it —
    /// the inverted index the match path probes.
    tip_index: HashMap<u64, Vec<usize>>,
    /// Running total of `output_bytes`, maintained on insert/evict
    /// instead of summed per call.
    stored_bytes: u64,
    /// Which plan produced each stored path; shared with the previous
    /// snapshot until a batch registers or forgets a path.
    prov: Arc<Provenance>,
    /// When the staleness pass last found every file present and every
    /// input at its version.
    pub(crate) clean: PresentAt,
}

/// The DFS clock reading at which the staleness pass last found a
/// snapshot clean, plus one (0 for never). Cloning forgets it: a batch
/// clones the snapshot before changing it, so a memo belongs to the one
/// snapshot it was taken of.
#[derive(Debug, Default)]
pub(crate) struct PresentAt(AtomicU64);

impl Clone for PresentAt {
    fn clone(&self) -> Self {
        PresentAt::default()
    }
}

impl PresentAt {
    /// Was the snapshot found clean at DFS clock `now`? `Relaxed` here and
    /// in `set`: the memo publishes no data, only a fact about a reading.
    pub(crate) fn at(&self, now: u64) -> bool {
        self.0.load(Relaxed) == now + 1
    }

    /// Remember that the snapshot was found clean at DFS clock `now`.
    pub(crate) fn set(&self, now: u64) {
        self.0.fetch_max(now + 1, Relaxed);
    }
}

impl RepoSnapshot {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in match-priority order.
    pub fn entries(&self) -> &[Arc<RepoEntry>] {
        &self.entries
    }

    /// O(1) lookup by entry id.
    pub fn get(&self, id: u64) -> Option<&Arc<RepoEntry>> {
        self.by_id.get(&id).map(|&pos| &self.entries[pos])
    }

    /// Is the entry still present in this snapshot?
    pub fn contains_id(&self, id: u64) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Does any entry already compute this plan?
    pub fn contains_plan(&self, plan: &PhysicalPlan) -> Option<u64> {
        self.by_signature.get(&plan.signature()).copied()
    }

    /// Total bytes of stored outputs (repository footprint). A running
    /// counter, not a scan.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// The provenance table published with these entries.
    pub fn provenance(&self) -> &Provenance {
        &self.prov
    }

    // ---- mutation internals (called with the Rcu writer serialized) ----

    /// Rebuild the position-dependent indexes after a structural change.
    fn reindex(&mut self) {
        self.by_id.clear();
        self.tip_index.clear();
        for (pos, e) in self.entries.iter().enumerate() {
            self.by_id.insert(e.id, pos);
            if let Some(tip) = e.tip_signature {
                self.tip_index.entry(tip).or_default().push(pos);
            }
        }
    }

    /// Position respecting: (rule 1) subsuming plans first; (rule 2)
    /// among incomparables, higher reduction ratio then longer job time
    /// first.
    fn insert_position(&self, new: &RepoEntry) -> usize {
        let mut lo = 0usize;
        let mut hi = self.entries.len();
        for (i, e) in self.entries.iter().enumerate() {
            let e_subsumes_new = subsumes(&e.plan, &new.plan);
            let new_subsumes_e = subsumes(&new.plan, &e.plan);
            if e_subsumes_new && !new_subsumes_e {
                lo = lo.max(i + 1);
            } else if new_subsumes_e && !e_subsumes_new {
                hi = hi.min(i);
            }
        }
        if hi < lo {
            // Conflicting constraints can only arise from signature
            // collisions; degrade to the later position.
            hi = lo;
        }
        let score = |s: &RepoStats| (s.reduction_ratio(), s.job_time_s);
        let new_score = score(&new.base);
        let mut pos = lo;
        while pos < hi {
            let existing = score(&self.entries[pos].base);
            if existing < new_score {
                break;
            }
            pos += 1;
        }
        pos
    }

    /// Batch-internal insert. Position lookups scan `entries` directly
    /// (the position maps may be stale mid-batch); the caller reindexes
    /// once before publishing — see [`Repository::batch_then`]. Returns
    /// the outcome and the `Arc` of the entry as stored (inserted or
    /// refreshed), which the batch's journal op log records.
    fn do_insert(&mut self, entry: RepoEntry) -> (InsertOutcome, Option<Arc<RepoEntry>>) {
        if let Some(&dup) = self.by_signature.get(&entry.signature) {
            let mut stored = None;
            // Same statistics as stored (a wave's whole-job entry and
            // the candidate aliasing it): the refresh would change
            // nothing, so there is nothing to publish or journal.
            let pos = self.entries.iter().position(|e| e.id == dup && e.base != entry.base);
            if let Some(pos) = pos {
                // Refresh stats but keep usage history: the replacement
                // shares the old entry's atomic counters, so reuses
                // recorded against a stale snapshot still land here.
                let old = &self.entries[pos];
                let refreshed = RepoEntry {
                    id: old.id,
                    plan: old.plan.clone(),
                    signature: old.signature,
                    tip_signature: old.tip_signature,
                    output_path: old.output_path.clone(),
                    base: entry.base,
                    usage: old.usage.clone(),
                };
                self.stored_bytes =
                    self.stored_bytes - old.base.output_bytes + refreshed.base.output_bytes;
                let arc = Arc::new(refreshed);
                self.entries[pos] = arc.clone();
                stored = Some(arc);
            }
            return (InsertOutcome::Duplicate(dup), stored);
        }
        let pos = self.insert_position(&entry);
        let id = entry.id;
        self.by_signature.insert(entry.signature, id);
        self.stored_bytes += entry.base.output_bytes;
        let arc = Arc::new(entry);
        self.entries.insert(pos, arc.clone());
        (InsertOutcome::Inserted(id), Some(arc))
    }

    /// Batch-internal evict; same staleness contract as
    /// [`RepoSnapshot::do_insert`].
    fn do_evict(&mut self, id: u64) -> Option<Arc<RepoEntry>> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        let e = self.entries.remove(pos);
        self.by_signature.remove(&e.signature);
        self.stored_bytes -= e.base.output_bytes;
        Some(e)
    }

    // ---- persistence ----

    /// Serialize the repository (plans, paths, stats) to a durable string.
    pub fn save(&self) -> String {
        self.save_filtered(|_| true)
    }

    /// Like [`RepoSnapshot::save`], but only entries whose output path
    /// satisfies `keep` are written. The driver's `save_state` passes a
    /// liveness predicate so entries condemned by a pending deferred
    /// deletion (or already gone from the DFS) never enter a snapshot
    /// as dangling paths.
    pub fn save_filtered(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        for e in &self.entries {
            if !keep(&e.output_path) {
                continue;
            }
            encode_entry_into(&mut out, e);
        }
        out
    }
}

/// Append one entry in the durable `entry …` block format. Shared by
/// [`RepoSnapshot::save_filtered`] and the snapshot journal's
/// `repo-batch` records, so a journaled insert and a full dump agree
/// byte for byte.
pub(crate) fn encode_entry_into(out: &mut String, e: &RepoEntry) {
    let stats = e.stats();
    out.push_str(&format!(
        "entry {} {:?} {} {} {} {} {} {} {} {}\n",
        e.id,
        e.output_path,
        stats.input_bytes,
        stats.output_bytes,
        stats.job_time_s,
        stats.avg_map_time_s,
        stats.avg_reduce_time_s,
        stats.use_count,
        stats.last_used,
        stats.created,
    ));
    for (p, v) in &stats.input_files {
        out.push_str(&format!("input {p:?} {v}\n"));
    }
    out.push_str("plan\n");
    for line in plan_text::encode_plan(&e.plan).lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("end\n");
}

/// One decoded `entry …` block (see [`parse_entry_lines`]).
#[derive(Debug)]
pub(crate) struct ParsedEntry {
    pub id: u64,
    pub output_path: String,
    pub stats: RepoStats,
    pub plan: PhysicalPlan,
}

/// Parse the next `entry …` block off the line iterator. Returns
/// `Ok(None)` — consuming nothing — when the next non-empty line does
/// not start an entry block, so callers with mixed-record bodies (the
/// journal) can dispatch on the leading keyword.
pub(crate) fn parse_entry_lines(
    lines: &mut std::iter::Peekable<std::str::Lines<'_>>,
) -> Result<Option<ParsedEntry>> {
    while let Some(l) = lines.peek() {
        if l.trim_end().is_empty() {
            lines.next();
        } else {
            break;
        }
    }
    let Some(line) = lines.peek() else { return Ok(None) };
    let Some(rest) = line.trim_end().strip_prefix("entry ") else { return Ok(None) };
    let rest = rest.to_string();
    lines.next();
    let (id_str, rest) =
        rest.split_once(' ').ok_or_else(|| Error::Repository("truncated entry header".into()))?;
    let id: u64 = id_str.parse().map_err(|_| Error::Repository("bad entry id".into()))?;
    // Path is Rust-quoted and may contain spaces: find closing quote.
    let close = plan_text::read_quoted(rest)?;
    let output_path = plan_text::unquote(&rest[..close])?;
    let nums: Vec<&str> = rest[close..].split_whitespace().collect();
    if nums.len() != 8 {
        return Err(Error::Repository(format!("expected 8 stat fields, got {}", nums.len())));
    }
    let parse_u = |s: &str| s.parse::<u64>().map_err(|_| Error::Repository("bad stat".into()));
    let parse_f = |s: &str| s.parse::<f64>().map_err(|_| Error::Repository("bad stat".into()));
    let mut stats = RepoStats {
        input_bytes: parse_u(nums[0])?,
        output_bytes: parse_u(nums[1])?,
        job_time_s: parse_f(nums[2])?,
        avg_map_time_s: parse_f(nums[3])?,
        avg_reduce_time_s: parse_f(nums[4])?,
        use_count: parse_u(nums[5])?,
        last_used: parse_u(nums[6])?,
        created: parse_u(nums[7])?,
        input_files: Vec::new(),
    };
    // Optional input lines, then "plan".
    loop {
        let l = lines.next().ok_or_else(|| Error::Repository("truncated entry".into()))?;
        if l == "plan" {
            break;
        }
        let rest = l
            .strip_prefix("input ")
            .ok_or_else(|| Error::Repository(format!("unexpected line {l:?}")))?;
        let close = plan_text::read_quoted(rest)?;
        let path = plan_text::unquote(&rest[..close])?;
        let version: u64 = rest[close..]
            .trim()
            .parse()
            .map_err(|_| Error::Repository("bad input version".into()))?;
        stats.input_files.push((path, version));
    }
    let mut plan_src = String::new();
    loop {
        let l = lines.next().ok_or_else(|| Error::Repository("truncated plan".into()))?;
        if l == "end" {
            break;
        }
        plan_src.push_str(l.trim_start());
        plan_src.push('\n');
    }
    let plan = plan_text::decode_plan(&plan_src)?;
    Ok(Some(ParsedEntry { id, output_path, stats, plan }))
}

/// One structural mutation of a published batch, in application order.
/// The journal sink receives the batch's ops at publish time and turns
/// them into one `repo-batch` record.
#[derive(Debug, Clone)]
pub enum RepoOp {
    /// An entry was inserted or refreshed; the `Arc` is the entry as
    /// stored (so the sink serializes exactly what readers see).
    Put(Arc<RepoEntry>),
    /// An entry was evicted.
    Evict(u64),
    /// A path's producing plan was recorded.
    Register(String, Arc<PhysicalPlan>),
    /// A path's producing plan was forgotten.
    Forget(String),
}

/// Callback invoked inside the writer section, after a batch publishes,
/// with the batch's structural ops. Installed by the driver when
/// incremental snapshots are enabled.
pub type RepoSink = Arc<dyn Fn(&[RepoOp]) + Send + Sync>;

/// The sink cell; a newtype so `Repository` keeps its derived traits
/// (`dyn Fn` is neither `Debug` nor `Default`).
#[derive(Default)]
struct SinkCell(RwLock<Option<RepoSink>>);

impl std::fmt::Debug for SinkCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SinkCell").field(&self.0.read().is_some()).finish()
    }
}

/// The ordered, concurrently shared repository, with its provenance.
///
/// All methods take `&self`: reads work against the current
/// [`RepoSnapshot`] and wait on no writer section, mutations serialize internally and publish a new
/// snapshot (see the module docs). For several mutations that must land
/// atomically — a wave's entries and provenance, an eviction sweep and
/// its forgets — use [`Repository::batch`], which publishes once.
#[derive(Debug, Default)]
pub struct Repository {
    /// The one ordered list, RCU-published.
    current: Rcu<RepoSnapshot>,
    /// Id allocation, in registration order.
    next_id: AtomicU64,
    /// Journal sink for structural mutations (see [`RepoSink`]).
    sink: SinkCell,
    /// Record which entries' usage counters moved since the last delta
    /// capture (see [`Repository::drain_dirty_usage`]). Off unless
    /// incremental snapshots are enabled, keeping the match path free
    /// of even the uncontended first-use push.
    track_usage: AtomicBool,
    /// Ids whose usage dirty bit was freshly set; drained per delta.
    dirty_used: Mutex<Vec<u64>>,
    /// How many writer sections were entered (one per batch, freeze or
    /// adopt). Benchmarks report this next to
    /// [`Repository::publish_count`] to attribute wall-time to
    /// write-side serialization.
    writer_sections: AtomicU64,
}

impl Repository {
    pub fn new() -> Self {
        Repository::default()
    }

    /// The current published snapshot: one pointer copy, behind no
    /// writer section. Every read — length, entries, lookup by id,
    /// stored bytes, the text dump — goes through it.
    pub fn snapshot(&self) -> Arc<RepoSnapshot> {
        self.current.load()
    }

    /// Number of snapshots published so far. Hot paths documented as
    /// write-free (matching, reuse accounting) can assert it stays put.
    pub fn publish_count(&self) -> u64 {
        self.current.version()
    }

    /// How many writer sections were entered so far (see the field
    /// docs); `bench_concurrent` reports the per-round delta.
    pub fn writer_sections(&self) -> u64 {
        self.writer_sections.load(SeqCst)
    }

    /// Insert an entry, maintaining the §3 ordering rules. Deduplicates
    /// by plan signature (the later execution refreshes statistics). A
    /// batch of one.
    pub fn insert(
        &self,
        plan: PhysicalPlan,
        output_path: impl Into<String>,
        stats: RepoStats,
    ) -> InsertOutcome {
        self.batch(|b| b.insert(plan, output_path, stats))
    }

    /// Record a reuse of entry `id` at logical time `tick`. Entirely
    /// atomic: no writer section is entered and no snapshot is
    /// republished, so a match never blocks or is blocked by
    /// registration. With usage tracking on (incremental snapshots),
    /// the *first* reuse after a delta capture additionally enrolls the
    /// id in the dirty set — an uncontended mutex push amortized over
    /// the checkpoint interval; every further reuse of the entry is the
    /// two atomics again.
    pub fn note_use(&self, id: u64, tick: u64) {
        if let Some(e) = self.snapshot().get(id) {
            e.note_use(tick);
            if self.track_usage.load(Relaxed) && !e.usage.dirty.swap(true, SeqCst) {
                self.dirty_used.lock().push(id);
            }
        }
    }

    /// Install (or clear) the journal sink receiving each published
    /// batch's structural ops, and start tracking dirty usage. Crate
    /// internal: only the driver's journal wiring may install sinks.
    pub(crate) fn set_journal_sink(&self, sink: Option<RepoSink>) {
        self.track_usage.store(sink.is_some(), Relaxed);
        *self.sink.0.write() = sink;
    }

    /// Drain the entries whose reuse counters moved since the previous
    /// drain, returning `(id, use_count, last_used)` triples — the body
    /// of a `note-use` journal record. Cost is proportional to the
    /// number of *dirty* entries, not the repository size. A reuse
    /// racing the drain either lands in the returned values or re-marks
    /// the entry dirty for the next delta; the recorded values are
    /// absolute, so replaying both is idempotent. Crate internal: the
    /// drain is destructive (it clears the dirty set), so only the
    /// driver's delta capture may call it — an outside caller would
    /// silently lose the pending `note-use` delta.
    pub(crate) fn drain_dirty_usage(&self) -> Vec<(u64, u64, u64)> {
        let ids = std::mem::take(&mut *self.dirty_used.lock());
        if ids.is_empty() {
            return Vec::new();
        }
        let snap = self.snapshot();
        ids.into_iter()
            .filter_map(|id| {
                snap.get(id).map(|e| {
                    // Clear the dirty bit *before* reading the counters:
                    // a racing reuse after the clear re-marks the entry,
                    // so its bump is never lost between deltas.
                    e.usage.dirty.store(false, SeqCst);
                    (id, e.usage.count.load(SeqCst), e.usage.last_used.load(SeqCst))
                })
            })
            .collect()
    }

    /// Set an entry's reuse counters to absolute values (journal
    /// replay of a `note-use` record). Touches only the shared atomics;
    /// no snapshot is published.
    pub(crate) fn set_usage(&self, id: u64, count: u64, last_used: u64) {
        if let Some(e) = self.snapshot().get(id) {
            e.usage.count.store(count, SeqCst);
            e.usage.last_used.store(last_used, SeqCst);
        }
    }

    /// Remove an entry, returning it. A batch of one.
    pub fn evict(&self, id: u64) -> Option<Arc<RepoEntry>> {
        self.batch(|b| b.evict(id))
    }

    /// Apply several mutations as one atomically published snapshot:
    /// concurrent readers see either none or all of the batch. Mutation
    /// batches serialize on the internal writer lock.
    pub fn batch<R>(&self, f: impl FnOnce(&mut RepoBatch<'_>) -> R) -> R {
        self.batch_then(f, |r| r)
    }

    /// Like [`Repository::batch`], but runs `after` once the batch is
    /// published and **before** the writer side is released. Readers
    /// already see the mutation while `after` runs; other mutations and
    /// [`Repository::freeze`] captures wait for it. Eviction sweeps
    /// hang their pin-checked file deletions here: publish-then-delete
    /// is what makes the match loop's pin revalidation conclusive,
    /// while staying inside the writer section is what keeps a
    /// concurrent `save_state` from serializing a path that is about to
    /// be condemned.
    ///
    /// This is the one mutation path: clone the snapshot, let `f`
    /// mutate the clone, rebuild the position-dependent indexes (id →
    /// position, tip index) **once** — a k-item wave registration pays
    /// one O(n) reindex — and publish, but only if the batch changed
    /// something: a wave that registers nothing costs a writer section
    /// and no publish.
    pub fn batch_then<A, B>(
        &self,
        f: impl FnOnce(&mut RepoBatch<'_>) -> A,
        after: impl FnOnce(A) -> B,
    ) -> B {
        let mut w = self.current.writer();
        self.writer_sections.fetch_add(1, Relaxed);
        let mut b = RepoBatch {
            work: w.current().clone(),
            next_id: &self.next_id,
            reindex: false,
            ops: Vec::new(),
        };
        let a = f(&mut b);
        let RepoBatch { mut work, reindex, ops, .. } = b;
        if !ops.is_empty() {
            if reindex {
                work.reindex();
            }
            w.publish(work);
            // Journal the batch *after* it published but still inside
            // the writer section: its record lands before any later
            // batch's, so journal order equals publish order, and a
            // base checkpoint whose seq was read before this record was
            // appended is guaranteed to contain the mutation (the
            // capture's freeze waits for the writer section).
            if let Some(sink) = self.sink.0.read().clone() {
                sink(&ops);
            }
        }
        after(a)
    }

    /// Run `f` against the current state with all mutations (inserts,
    /// evictions, sweeps) blocked for the duration. `save_state` uses
    /// this to capture multi-table state no sweep can interleave with;
    /// plain readers should use [`Repository::snapshot`] instead.
    pub fn freeze<R>(&self, f: impl FnOnce(&RepoSnapshot) -> R) -> R {
        self.writer_sections.fetch_add(1, Relaxed);
        self.current.freeze(f)
    }

    /// Replace this repository's contents — entries in order, and
    /// provenance — with `other`'s (state restore). The snapshot
    /// replacement and the id-counter adoption happen inside one writer
    /// section, so a concurrent batch can neither interleave between
    /// them (reserving restored ids against pre-restore entries) nor land
    /// a mutation that this replacement silently wipes.
    pub fn adopt(&self, other: Repository) {
        let next = other.next_id.load(SeqCst);
        let snap = other.snapshot();
        // With `other`'s cell gone the snapshot is ours alone and moves
        // in without a copy.
        drop(other);
        self.writer_sections.fetch_add(1, Relaxed);
        self.current.update_then(
            |s| *s = Arc::unwrap_or_clone(snap),
            |()| self.next_id.store(next, SeqCst),
        );
    }

    // ---- persistence ----

    /// Reload a repository serialized by [`RepoSnapshot::save`]. Ordering
    /// is preserved verbatim (it was valid when saved). The provenance
    /// table starts empty.
    pub fn load(text: &str) -> Result<Repository> {
        Repository::load_with(text, Provenance::new())
    }

    /// [`Repository::load`], publishing the entries with `prov` (a
    /// `restore-state` namespace's two tables).
    pub(crate) fn load_with(text: &str, prov: Provenance) -> Result<Repository> {
        let mut entries: Vec<Arc<RepoEntry>> = Vec::new();
        let mut next_id = 0u64;
        let mut lines = text.lines().peekable();
        while let Some(p) = parse_entry_lines(&mut lines)? {
            next_id = next_id.max(p.id + 1);
            entries.push(Arc::new(RepoEntry::new(p.id, p.plan, p.output_path, p.stats)));
        }
        if let Some(line) = lines.next() {
            return Err(Error::Repository(format!("expected 'entry', got {line:?}")));
        }
        Ok(Repository::from_entries(entries, next_id, prov))
    }

    /// Build a repository from fully formed entries (ids assigned,
    /// order final): one snapshot construction, one reindex.
    fn from_entries(entries: Vec<Arc<RepoEntry>>, next_id: u64, prov: Provenance) -> Repository {
        let mut snap = RepoSnapshot {
            stored_bytes: entries.iter().map(|e| e.base.output_bytes).sum(),
            by_signature: entries.iter().map(|e| (e.signature, e.id)).collect(),
            entries,
            prov: Arc::new(prov),
            ..Default::default()
        };
        snap.reindex();
        Repository {
            current: Rcu::new(snap),
            next_id: AtomicU64::new(next_id),
            ..Default::default()
        }
    }

    /// Bulk constructor for large synthetic repositories: inserts all
    /// items in O(n log n) by ordering on the rule-2 score (reduction
    /// ratio, then job time) alone, skipping the O(n²) pairwise
    /// subsumption comparisons incremental insertion performs.
    ///
    /// The resulting order equals incremental insertion **when the
    /// plans are pairwise incomparable** (no plan subsumes another) —
    /// the common shape of generated benchmark corpora; corpora with
    /// subsumption chains must use [`Repository::insert`] to get the
    /// §3 "subsuming plans first" guarantee. Duplicate plan signatures
    /// keep the first occurrence.
    pub fn bulk_load(items: Vec<(PhysicalPlan, String, RepoStats)>) -> Repository {
        let mut entries: Vec<Arc<RepoEntry>> = Vec::with_capacity(items.len());
        let mut seen = HashSet::with_capacity(items.len());
        for (i, (plan, path, stats)) in items.into_iter().enumerate() {
            let e = RepoEntry::new(i as u64, plan, path, stats);
            if seen.insert(e.signature) {
                entries.push(Arc::new(e));
            }
        }
        // Ids were assigned before dedup, so the retained maximum — not
        // the retained count — bounds the id space; `entries.len()`
        // would let a later insert reserve an id a kept entry already
        // carries.
        let next_id = entries.iter().map(|e| e.id + 1).max().unwrap_or(0);
        // Rule-2 order: higher reduction ratio first, then longer job
        // time; stable so equal scores keep arrival order, matching
        // incremental insertion.
        entries.sort_by(|a, b| {
            let ka = (a.base.reduction_ratio(), a.base.job_time_s);
            let kb = (b.base.reduction_ratio(), b.base.job_time_s);
            kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
        });
        Repository::from_entries(entries, next_id, Provenance::new())
    }
}

/// What one instrumented match probe observed (see
/// [`RepoSnapshot::find_first_match_probed`]).
#[derive(Debug, Default, Clone)]
pub struct MatchProbe {
    /// Node signatures + index lookups + pairwise §3 verification time,
    /// nanoseconds.
    pub probe_ns: u64,
    /// Input-plan node signatures probed against the inverted index.
    pub signatures_probed: usize,
    /// Candidates whose pairwise traversal ran, in probe order.
    pub candidates: Vec<ProbedCandidate>,
}

impl MatchProbe {
    /// Clear every field for reuse across match-loop iterations,
    /// keeping the `candidates` allocation — the hot path records into
    /// one probe per job instead of allocating per iteration.
    pub fn reset(&mut self) {
        self.probe_ns = 0;
        self.signatures_probed = 0;
        self.candidates.clear();
    }
}

/// One candidate an instrumented probe verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbedCandidate {
    pub entry_id: u64,
    /// The pairwise §3 traversal matched (a `false` is a tip-signature
    /// collision or partial overlap).
    pub matched: bool,
}

impl RepoSnapshot {
    /// §3 first match anywhere in `input_plan`; see
    /// [`RepoSnapshot::find_first_match_probed`].
    pub fn find_first_match(&self, input_plan: &PhysicalPlan) -> Option<(u64, PlanMatch)> {
        self.find_first_match_probed(input_plan, |_, _| false, &mut MatchProbe::default())
    }

    /// §3 first match: the first entry, in match-priority order, that
    /// verifies somewhere in `input_plan`. `skip(entry, site)` vetoes
    /// anchoring `entry`'s tip at input node `site` — the driver passes
    /// the sites whose rewrite would change nothing
    /// ([`crate::provenance::ExpandedPlan::collapses_back`]).
    ///
    /// Candidates come from the inverted tip-signature index: every
    /// input node's signature (one shared-memo pass) is looked up and
    /// only the hits are verified, each at the site that produced it,
    /// in (repository position, topological site) order. That is the
    /// order the sequential scan tries them in, so the two return the
    /// same entry at the same site. The probe records its timing and
    /// the candidate-by-candidate list the reuse-decision trace is
    /// built from: two `Instant` reads and a small vector, never a lock
    /// or a publish.
    pub fn find_first_match_probed(
        &self,
        input_plan: &PhysicalPlan,
        skip: impl Fn(&RepoEntry, NodeId) -> bool,
        probe: &mut MatchProbe,
    ) -> Option<(u64, PlanMatch)> {
        let t0 = std::time::Instant::now();
        let sigs = input_plan.node_signatures();
        // (position, topological rank of the site, site)
        let mut cands: Vec<(usize, usize, NodeId)> = Vec::new();
        for (rank, site) in input_plan.topo_order().into_iter().enumerate() {
            if matches!(input_plan.op(site), PhysicalOp::Store { .. } | PhysicalOp::Split) {
                continue; // never a rewrite site; a Split signs as its input
            }
            probe.signatures_probed += 1;
            for &pos in self.tip_index.get(&sigs[site.index()]).into_iter().flatten() {
                if !skip(&self.entries[pos], site) {
                    cands.push((pos, rank, site));
                }
            }
        }
        cands.sort_unstable();
        let found = cands.into_iter().find_map(|(pos, _, site)| {
            let e = &self.entries[pos];
            let matched = pairwise_plan_traversal_at(&e.plan, input_plan, [site]);
            probe.candidates.push(ProbedCandidate { entry_id: e.id, matched: matched.is_some() });
            matched.map(|m| (e.id, m))
        });
        probe.probe_ns = t0.elapsed().as_nanos() as u64;
        found
    }

    /// The paper's sequential scan — every entry, in repository order,
    /// each tried at every site `skip` allows — kept as the oracle the
    /// index is tested against and as the baseline of
    /// `restore_bench::figures::matcher_ablation`.
    /// Same contract and same result as
    /// [`RepoSnapshot::find_first_match_probed`], linear in repository
    /// size.
    pub fn find_first_match_scan(
        &self,
        input_plan: &PhysicalPlan,
        skip: impl Fn(&RepoEntry, NodeId) -> bool,
    ) -> Option<(u64, PlanMatch)> {
        let order = input_plan.topo_order();
        self.entries.iter().find_map(|e| {
            let sites = order.iter().copied().filter(|&site| !skip(e, site));
            pairwise_plan_traversal_at(&e.plan, input_plan, sites).map(|m| (e.id, m))
        })
    }
}

/// Mutation scope over the pending working copy of the snapshot; it
/// lands in a single publish when the [`Repository::batch`] closure
/// returns, and its position-dependent indexes are rebuilt once at that
/// point.
pub struct RepoBatch<'a> {
    work: RepoSnapshot,
    next_id: &'a AtomicU64,
    /// An entry moved, appeared or changed its tip — reindex before
    /// publishing.
    reindex: bool,
    /// Structural ops in application order, handed to the journal sink
    /// at publish time. Empty means the batch changed nothing.
    ops: Vec<RepoOp>,
}

impl RepoBatch<'_> {
    /// Insert an entry (see [`Repository::insert`]).
    pub fn insert(
        &mut self,
        plan: PhysicalPlan,
        output_path: impl Into<String>,
        stats: RepoStats,
    ) -> InsertOutcome {
        // Reserve the id optimistically; duplicates leave a gap in the
        // id space, which nothing depends on.
        let id = self.next_id.fetch_add(1, SeqCst);
        let entry = RepoEntry::new(id, plan, output_path.into(), stats);
        let (outcome, stored) = self.work.do_insert(entry);
        if matches!(outcome, InsertOutcome::Inserted(_)) {
            self.reindex = true;
        } else {
            // Roll the reservation back when we were the only claimant.
            let _ = self.next_id.compare_exchange(id + 1, id, SeqCst, SeqCst);
        }
        self.ops.extend(stored.map(RepoOp::Put));
        outcome
    }

    /// Journal replay: (re)store an entry under an **explicit id**,
    /// reproducing exactly what the journaled batch did. An existing
    /// entry with the id is replaced in place (the refresh path); a
    /// fresh id inserts at its §3/§5 position, like the original
    /// insertion. Idempotent — applying a record over a base checkpoint
    /// that already contains its effects is a no-op in the serialized
    /// state.
    pub(crate) fn put(
        &mut self,
        id: u64,
        plan: PhysicalPlan,
        output_path: String,
        stats: RepoStats,
    ) {
        self.next_id.fetch_max(id + 1, SeqCst);
        let entry = RepoEntry::new(id, plan, output_path, stats);
        let work = &mut self.work;
        // Locate the id by scanning the entry list (mid-batch the
        // position maps may be stale). A same-signature entry under
        // another id means the live session refreshed that entry;
        // mirror it defensively.
        let by_entry_id = |id: u64| work.entries.iter().position(|e| e.id == id);
        let existing = by_entry_id(id)
            .or_else(|| work.by_signature.get(&entry.signature).and_then(|&dup| by_entry_id(dup)));
        let arc = match existing {
            Some(pos) => {
                let old = work.entries[pos].clone();
                work.by_signature.remove(&old.signature);
                work.stored_bytes =
                    work.stored_bytes - old.base.output_bytes + entry.base.output_bytes;
                let arc = Arc::new(RepoEntry { id: old.id, ..entry });
                work.by_signature.insert(arc.signature, arc.id);
                work.entries[pos] = arc.clone();
                arc
            }
            None => {
                let pos = work.insert_position(&entry);
                work.by_signature.insert(entry.signature, entry.id);
                work.stored_bytes += entry.base.output_bytes;
                let arc = Arc::new(entry);
                work.entries.insert(pos, arc.clone());
                arc
            }
        };
        self.ops.push(RepoOp::Put(arc));
        self.reindex = true;
    }

    /// Remove an entry, returning it (see [`Repository::evict`]).
    pub fn evict(&mut self, id: u64) -> Option<Arc<RepoEntry>> {
        let e = self.work.do_evict(id)?;
        self.reindex = true;
        self.ops.push(RepoOp::Evict(id));
        Some(e)
    }

    /// Record `plan` as the producer of `path` (see
    /// [`Provenance::register`]).
    pub fn register(&mut self, path: impl Into<String>, plan: PhysicalPlan) {
        let path = path.into();
        let prov = Arc::make_mut(&mut self.work.prov);
        prov.register(path.clone(), plan);
        let plan = prov.get_arc(&path).expect("just registered");
        self.ops.push(RepoOp::Register(path, plan));
    }

    /// Journal replay of a registration, applied verbatim (see
    /// `Provenance::register_replay`).
    pub(crate) fn register_replay(&mut self, path: String, plan: Arc<PhysicalPlan>) {
        Arc::make_mut(&mut self.work.prov).register_replay(path.clone(), plan.clone());
        self.ops.push(RepoOp::Register(path, plan));
    }

    /// Forget the producing plan of `path`; returns whether it had one.
    pub fn forget(&mut self, path: &str) -> bool {
        if !self.work.prov.contains(path) {
            return false;
        }
        Arc::make_mut(&mut self.work.prov).forget(path);
        self.ops.push(RepoOp::Forget(path.to_string()));
        true
    }

    /// The batch's pending provenance table (its own registrations and
    /// forgets visible).
    pub fn provenance(&self) -> &Provenance {
        &self.work.prov
    }

    /// Every entry of the batch's pending working copy (prior mutations
    /// of this batch visible). Mid-batch the entry list and byte total
    /// are current, but the position-dependent lookups (`get`,
    /// `contains_id`, the match strategies) may lag behind this batch's
    /// own structural changes — they are rebuilt at publish.
    pub fn pending_entries(&self) -> impl Iterator<Item = &Arc<RepoEntry>> {
        self.work.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dataflow::physical::PhysicalOp;

    fn load_project(path: &str, cols: Vec<usize>) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
        let pr = p.add(PhysicalOp::Project { cols }, vec![l]);
        p.add(PhysicalOp::Store { path: format!("/repo/{path}") }, vec![pr]);
        p
    }

    fn q1_plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let l1 = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let p1 = p.add(PhysicalOp::Project { cols: vec![0] }, vec![l1]);
        let l2 = p.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p2 = p.add(PhysicalOp::Project { cols: vec![0, 2] }, vec![l2]);
        let j = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p1, p2]);
        p.add(PhysicalOp::Store { path: "/q1".into() }, vec![j]);
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
    fn insert_and_match() {
        let repo = Repository::new();
        repo.insert(load_project("/pv", vec![0, 2]), "/repo/b", stats(100, 10, 5.0));
        let (id, m) = repo.snapshot().find_first_match(&q1_plan()).unwrap();
        assert_eq!(repo.snapshot().get(id).unwrap().output_path, "/repo/b");
        assert!(matches!(q1_plan().op(m.tip), PhysicalOp::Project { .. }));
    }

    #[test]
    fn duplicate_signature_refreshes_stats() {
        let repo = Repository::new();
        let a = repo.insert(load_project("/pv", vec![0]), "/r/1", stats(100, 10, 5.0));
        let InsertOutcome::Inserted(id) = a else { panic!() };
        repo.note_use(id, 3);
        let b = repo.insert(load_project("/pv", vec![0]), "/r/2", stats(100, 12, 6.0));
        assert_eq!(b, InsertOutcome::Duplicate(id));
        assert_eq!(repo.snapshot().len(), 1);
        let e = repo.snapshot().get(id).cloned().unwrap();
        assert_eq!(e.stats().output_bytes, 12); // refreshed
        assert_eq!(e.stats().use_count, 1); // history kept
        assert_eq!(e.output_path, "/r/1"); // original output retained
        assert_eq!(repo.snapshot().stored_bytes(), 12); // counter follows the refresh
    }

    #[test]
    fn refreshed_entry_shares_usage_with_stale_snapshots() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(load_project("/pv", vec![0]), "/r/1", stats(100, 10, 5.0))
        else {
            panic!()
        };
        // A reader holds the pre-refresh snapshot…
        let stale = repo.snapshot();
        repo.insert(load_project("/pv", vec![0]), "/r/2", stats(100, 12, 6.0));
        // …and records a reuse against it. The refreshed entry must see
        // it: the counters are shared, not copied.
        stale.get(id).unwrap().note_use(9);
        assert_eq!(repo.snapshot().get(id).unwrap().use_count(), 1);
        assert_eq!(repo.snapshot().get(id).unwrap().last_used(), 9);
    }

    #[test]
    fn subsuming_plan_ordered_first() {
        let repo = Repository::new();
        // Insert the small plan first…
        repo.insert(load_project("/pv", vec![0, 2]), "/r/sub", stats(100, 50, 2.0));
        // …then the Q1 plan that subsumes it.
        repo.insert(q1_plan(), "/r/q1", stats(200, 20, 30.0));
        let snap = repo.snapshot();
        assert_eq!(snap.entries()[0].output_path, "/r/q1");
        assert_eq!(snap.entries()[1].output_path, "/r/sub");
        // A fresh Q1-shaped query now matches the *whole* Q1 plan first
        // (the paper's "first match is best match").
        let (id, _) = repo.snapshot().find_first_match(&q1_plan()).unwrap();
        assert_eq!(repo.snapshot().get(id).unwrap().output_path, "/r/q1");
    }

    #[test]
    fn incomparable_plans_ordered_by_reduction_then_time() {
        let repo = Repository::new();
        repo.insert(load_project("/a", vec![0]), "/r/low", stats(100, 50, 9.0));
        repo.insert(load_project("/b", vec![0]), "/r/high", stats(100, 5, 1.0));
        // ratio 20 beats ratio 2 despite lower time.
        assert_eq!(repo.snapshot().entries()[0].output_path, "/r/high");
        // Same ratio: longer time first.
        let repo = Repository::new();
        repo.insert(load_project("/a", vec![0]), "/r/fast", stats(100, 10, 1.0));
        repo.insert(load_project("/b", vec![0]), "/r/slow", stats(100, 10, 9.0));
        assert_eq!(repo.snapshot().entries()[0].output_path, "/r/slow");
    }

    #[test]
    fn eviction_removes_entry_and_signature() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(load_project("/a", vec![0]), "/r/a", stats(1, 1, 1.0))
        else {
            panic!()
        };
        assert!(repo.evict(id).is_some());
        assert!(repo.snapshot().is_empty());
        assert_eq!(repo.snapshot().stored_bytes(), 0);
        // Same plan can be inserted again afterwards.
        let again = repo.insert(load_project("/a", vec![0]), "/r/a2", stats(1, 1, 1.0));
        assert!(matches!(again, InsertOutcome::Inserted(_)));
    }

    #[test]
    fn index_agrees_with_scan() {
        let repo = Repository::new();
        for (i, cols) in [vec![0], vec![1], vec![0, 2], vec![2]].into_iter().enumerate() {
            repo.insert(
                load_project("/pv", cols),
                format!("/r/{i}"),
                stats(100 + i as u64, 10, i as f64),
            );
        }
        let view = repo.snapshot();
        let q = q1_plan();
        let a = view.find_first_match_scan(&q, |_, _| false).map(|(id, m)| (id, m.tip));
        let b = view.find_first_match(&q).map(|(id, m)| (id, m.tip));
        assert_eq!(a, b);
        assert!(a.is_some());
        // And both agree on a non-match.
        let other = load_project("/nowhere", vec![9]);
        assert!(view.find_first_match_scan(&other, |_, _| false).is_none());
        assert!(view.find_first_match(&other).is_none());
    }

    #[test]
    fn index_agrees_with_scan_through_split_tees() {
        // The stored plan joins one shared branch with itself; the input
        // spells the second edge through the Split tee CSE's
        // duplicate-edge guard inserts, plus an injected side Store.
        let mut stored = PhysicalPlan::new();
        let l = stored.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p = stored.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let j = stored.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p, p]);
        stored.add(PhysicalOp::Store { path: "/r/self".into() }, vec![j]);

        let mut input = PhysicalPlan::new();
        let l = input.add(PhysicalOp::Load { path: "/pv".into() }, vec![]);
        let p = input.add(PhysicalOp::Project { cols: vec![0] }, vec![l]);
        let tee = input.add(PhysicalOp::Split, vec![p]);
        input.add(PhysicalOp::Store { path: "/side".into() }, vec![tee]);
        let j = input.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![p, tee]);
        input.add(PhysicalOp::Store { path: "/out".into() }, vec![j]);

        let repo = Repository::new();
        repo.insert(load_project("/pv", vec![0]), "/r/p", stats(100, 50, 1.0));
        let InsertOutcome::Inserted(id) =
            repo.insert(stored.clone(), "/r/self", stats(100, 10, 9.0))
        else {
            panic!("fresh plan");
        };
        let view = repo.snapshot();
        let scan = view.find_first_match_scan(&input, |_, _| false).map(|(id, m)| (id, m.tip));
        assert_eq!(scan, Some((id, j)), "the scan sees through the tee");
        assert_eq!(view.find_first_match(&input).map(|(id, m)| (id, m.tip)), scan);
        // A vetoed site falls through to the next entry on both paths.
        let veto = |_: &RepoEntry, site: NodeId| site == j;
        let scan = view.find_first_match_scan(&input, veto).map(|(id, m)| (id, m.tip));
        assert_eq!(scan.map(|(_, tip)| tip), Some(p));
        let mut probe = MatchProbe::default();
        let indexed = view.find_first_match_probed(&input, veto, &mut probe);
        assert_eq!(indexed.map(|(id, m)| (id, m.tip)), scan);
    }

    #[test]
    fn snapshot_readers_are_isolated_from_mutations() {
        let repo = Repository::new();
        repo.insert(load_project("/pv", vec![0, 2]), "/r/b", stats(100, 10, 5.0));
        let before = repo.snapshot();
        repo.batch(|b| {
            b.insert(load_project("/x", vec![1]), "/r/x", stats(50, 5, 1.0));
            b.insert(load_project("/y", vec![1]), "/r/y", stats(50, 5, 1.0));
        });
        assert_eq!(before.len(), 1, "held snapshot unchanged");
        assert_eq!(repo.snapshot().len(), 3, "batch landed atomically");
        // The old snapshot still matches correctly.
        assert!(before.find_first_match(&q1_plan()).is_some());
    }

    #[test]
    fn note_use_publishes_no_snapshot() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(load_project("/pv", vec![0]), "/r/1", stats(100, 10, 5.0))
        else {
            panic!()
        };
        let publishes = repo.publish_count();
        for t in 1..=100 {
            repo.note_use(id, t);
        }
        assert_eq!(repo.publish_count(), publishes, "reuse accounting is write-free");
        assert_eq!(repo.snapshot().get(id).unwrap().use_count(), 100);
        assert_eq!(repo.snapshot().get(id).unwrap().last_used(), 100);
    }

    #[test]
    fn save_load_round_trip() {
        let repo = Repository::new();
        repo.insert(
            q1_plan(),
            "/r/q1",
            RepoStats {
                input_bytes: 1000,
                output_bytes: 50,
                job_time_s: 12.5,
                avg_map_time_s: 1.5,
                avg_reduce_time_s: 2.5,
                use_count: 3,
                last_used: 9,
                created: 1,
                input_files: vec![("/pv".into(), 0), ("/users dir/x".into(), 2)],
            },
        );
        repo.insert(load_project("/pv", vec![0, 2]), "/r/sub", stats(100, 10, 2.0));
        let text = repo.snapshot().save();
        let back = Repository::load(&text).unwrap();
        assert_eq!(back.snapshot().len(), 2);
        let (b, r) = (back.snapshot(), repo.snapshot());
        assert_eq!(b.entries()[0].output_path, r.entries()[0].output_path);
        assert_eq!(b.entries()[0].signature, r.entries()[0].signature);
        assert_eq!(b.entries()[0].stats(), r.entries()[0].stats());
        assert_eq!(b.entries()[0].tip_signature, r.entries()[0].tip_signature);
        assert_eq!(b.stored_bytes(), r.stored_bytes());
        // Loaded repository still matches.
        assert!(b.find_first_match(&q1_plan()).is_some());
        // And re-saving is byte-identical (usage counters round-trip).
        assert_eq!(back.snapshot().save(), text);
        // The state-restore path: adopting keeps the order, a frozen
        // capture sees it, and the id sequence continues.
        let fresh = Repository::new();
        fresh.adopt(back);
        assert_eq!(fresh.freeze(|frozen| frozen.save()), text);
        let next = fresh.insert(load_project("/new", vec![0]), "/r/new", stats(1, 1, 1.0));
        assert_eq!(next, InsertOutcome::Inserted(2));
    }

    #[test]
    fn bulk_load_orders_by_score_and_keeps_ids_unique_after_dedup() {
        let repo = Repository::bulk_load(vec![
            (load_project("/a", vec![0]), "/r/a".into(), stats(100, 50, 1.0)),
            // Duplicate signature: dropped, but its id (1) was consumed.
            (load_project("/a", vec![0]), "/r/dup".into(), stats(100, 50, 9.0)),
            (load_project("/b", vec![0]), "/r/b".into(), stats(100, 5, 1.0)),
        ]);
        assert_eq!(repo.snapshot().len(), 2, "duplicate signatures keep the first occurrence");
        // Rule-2 order: ratio 20 before ratio 2.
        assert_eq!(repo.snapshot().entries()[0].output_path, "/r/b");
        // A post-bulk insert must not reuse a retained id: entry "/r/b"
        // carries id 2, so the next insert gets 3.
        let InsertOutcome::Inserted(next) =
            repo.insert(load_project("/c", vec![0]), "/r/c", stats(1, 1, 1.0))
        else {
            panic!()
        };
        let ids: Vec<u64> = repo.snapshot().entries().iter().map(|e| e.id).collect();
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "ids stay unique after bulk dedup, got {ids:?}");
        assert_eq!(next, 3);
        // And matching still works against the bulk-built indexes.
        assert!(repo.snapshot().find_first_match(&q1_plan()).is_none());
        let (hit, _) = repo
            .snapshot()
            .find_first_match(&{
                let mut p = load_project("/b", vec![0]);
                let tip = p.stores()[0];
                let before = p.inputs(tip)[0];
                let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
                p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
                p
            })
            .unwrap();
        assert_eq!(repo.snapshot().get(hit).unwrap().output_path, "/r/b");
    }

    #[test]
    fn stored_bytes_is_maintained_incrementally() {
        let repo = Repository::new();
        repo.insert(load_project("/a", vec![0]), "/r/a", stats(100, 30, 1.0));
        let InsertOutcome::Inserted(b) =
            repo.insert(load_project("/b", vec![0]), "/r/b", stats(100, 12, 1.0))
        else {
            panic!()
        };
        assert_eq!(repo.snapshot().stored_bytes(), 42);
        repo.evict(b);
        assert_eq!(repo.snapshot().stored_bytes(), 30);
    }
}
