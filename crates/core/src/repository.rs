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
//! # One record per stored file
//!
//! A snapshot also holds the namespace's table of [`StoredFile`]s,
//! keyed by path, behind an `Arc`: what each stored file holds (the
//! base plan that produced it), the tick it was committed at, its
//! format, and the base files its plan read at their ticks. An entry is
//! its record plus what matching needs (the signatures), its
//! [`RepoStats`] and its usage; a second file holding a plan an entry
//! already stores is a record without an entry. Lineage expansion
//! ([`RepoSnapshot::expand`]), the staleness pass and the codecs all
//! read the one table. The table is copied on a batch's first change to
//! it only, so a batch that touches no record copies no map, and the
//! journal records the whole batch as one `repo-batch`.
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
use crate::matching::MatchMemo;
use crate::plan_text;
use crate::provenance::{self, ExpandedPlan};
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

/// One stored file, and the one record of it (§2.2's plan and file
/// name, with what the staleness pass checks): the file is this record's
/// only while it is at `tick` and every input is at its recorded tick.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredFile {
    /// Where the file lives in the DFS; the table's key.
    pub path: String,
    /// The DFS clock tick the producing job committed the file at (§5
    /// rule 4 forgets the record when the file is at another).
    pub tick: u64,
    /// The file is in the typed stored format: ReStore wrote it for
    /// itself (a candidate or a `tmp-N`), so evicting its entry may
    /// delete it. A text file is a user's output.
    pub typed: bool,
    /// The base-level, single-Store plan that produced the file.
    pub plan: PhysicalPlan,
    /// The base files `plan` Loads, sorted, at their ticks before the
    /// producing job read them (§5 rule 4 forgets on a change).
    pub inputs: Vec<(String, u64)>,
}

impl StoredFile {
    /// A text file at `path` produced by `plan`, committed at tick 0,
    /// with no recorded inputs: the start of a record built by hand.
    pub fn new(path: impl Into<String>, plan: PhysicalPlan) -> StoredFile {
        StoredFile { path: path.into(), tick: 0, typed: false, plan, inputs: Vec::new() }
    }
}

/// One stored job output: its file's record, plus what matching and
/// the §5 rules read.
#[derive(Debug)]
pub struct RepoEntry {
    pub id: u64,
    /// The record of the file the entry answers from, shared with the
    /// snapshot's table.
    pub file: Arc<StoredFile>,
    /// Merkle signature of the file's plan (Store paths excluded).
    pub signature: u64,
    /// Cached signature of the operator feeding the plan's Store (`None`
    /// for degenerate multi-Store plans). Computed once at insertion;
    /// the fingerprint index keys candidates by it.
    pub tip_signature: Option<u64>,
    /// Statistics at creation/refresh time. `use_count`/`last_used` in
    /// here are the *persisted baseline*; the live values come from the
    /// shared atomics (see [`RepoEntry::stats`]).
    base: RepoStats,
    usage: Arc<Usage>,
}

impl RepoEntry {
    fn new(id: u64, file: Arc<StoredFile>, stats: RepoStats) -> RepoEntry {
        let signature = file.plan.signature();
        let tip_signature = plan_tip(&file.plan).map(|t| file.plan.node_signature(t));
        let usage = Arc::new(Usage {
            count: AtomicU64::new(stats.use_count),
            last_used: AtomicU64::new(stats.last_used),
            dirty: AtomicBool::new(false),
        });
        RepoEntry { id, file, signature, tip_signature, base: stats, usage }
    }

    /// Point-in-time statistics: the stored baseline with the live
    /// `use_count`/`last_used` read from the shared atomics.
    pub fn stats(&self) -> RepoStats {
        let mut s = self.base.clone();
        s.use_count = self.usage.count.load(SeqCst);
        s.last_used = self.usage.last_used.load(SeqCst);
        s
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
    /// The record of every stored file, by path: each entry's, and each
    /// file that holds a plan an entry already stores. Shared with the
    /// previous snapshot until a batch changes a record.
    files: Arc<HashMap<String, Arc<StoredFile>>>,
    /// When the staleness pass last found every file present and every
    /// input at its version.
    pub(crate) clean: PresentAt,
    /// What the §3 loop computed against this snapshot, per plan.
    pub(crate) matches: MatchMemo,
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

    /// The record of the file at `path`, if one is stored.
    pub fn file(&self, path: &str) -> Option<&Arc<StoredFile>> {
        self.files.get(path)
    }

    /// Every record, in no particular order.
    pub fn files(&self) -> impl ExactSizeIterator<Item = &Arc<StoredFile>> {
        self.files.values()
    }

    /// Lineage-expand `plan`: every Load of a recorded file becomes the
    /// plan that produced it (see [`provenance::expand`]).
    pub fn expand<'a>(&self, plan: &'a PhysicalPlan) -> ExpandedPlan<'a> {
        provenance::expand(plan, |path| self.file(path).map(|f| &f.plan))
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
            let e_subsumes_new = subsumes(&e.file.plan, &new.file.plan);
            let new_subsumes_e = subsumes(&new.file.plan, &e.file.plan);
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
    /// once before publishing — see [`Repository::batch_then`]. Pushes
    /// the batch's journal ops: the entry as stored (inserted or
    /// refreshed), and the record of a second file holding a stored plan.
    fn do_insert(&mut self, entry: RepoEntry, ops: &mut Vec<RepoOp>) -> InsertOutcome {
        let Some(&dup) = self.by_signature.get(&entry.signature) else {
            self.evict_at(&entry.file.path, ops);
            self.files_mut().insert(entry.file.path.clone(), entry.file.clone());
            let pos = self.insert_position(&entry);
            let id = entry.id;
            self.by_signature.insert(entry.signature, id);
            self.stored_bytes += entry.base.output_bytes;
            let arc = Arc::new(entry);
            self.entries.insert(pos, arc.clone());
            ops.push(RepoOp::Put(arc));
            return InsertOutcome::Inserted(id);
        };
        if let Some(pos) = self.entries.iter().position(|e| e.id == dup) {
            let old = self.entries[pos].clone();
            // The size describes a file: another file's is not the
            // entry's, which keeps its own (`stored_bytes` sums the
            // entries' own files). The job's statistics are refreshed.
            let mut base = entry.base.clone();
            if old.file.path != entry.file.path {
                base.output_bytes = old.base.output_bytes;
            }
            // Same statistics as stored (a wave's whole-job entry and the
            // candidate aliasing it): the refresh would change nothing,
            // so there is nothing to publish or journal.
            if old.base != base {
                // Refresh stats but keep the entry's own file and its
                // usage history: the replacement shares the old entry's
                // atomic counters, so reuses recorded against a stale
                // snapshot still land here.
                let refreshed =
                    RepoEntry { file: old.file.clone(), base, usage: old.usage.clone(), ..*old };
                self.stored_bytes =
                    self.stored_bytes - old.base.output_bytes + refreshed.base.output_bytes;
                let arc = Arc::new(refreshed);
                self.entries[pos] = arc.clone();
                ops.push(RepoOp::Put(arc));
            }
            // Another file holding the same plan is a record without an
            // entry: expanded and checked like any other.
            if old.file.path != entry.file.path {
                self.put_file(entry.file, ops);
            }
        }
        InsertOutcome::Duplicate(dup)
    }

    /// Record the file at `file.path` without an entry of its own.
    fn put_file(&mut self, file: Arc<StoredFile>, ops: &mut Vec<RepoOp>) {
        self.evict_at(&file.path, ops);
        self.files_mut().insert(file.path.clone(), file.clone());
        ops.push(RepoOp::File(file));
    }

    /// A path holds one file: a record replacing another at its path
    /// evicts the entry the old one had.
    fn evict_at(&mut self, path: &str, ops: &mut Vec<RepoOp>) {
        if let Some(old) = self.entries.iter().find(|e| e.file.path == path) {
            let id = old.id;
            self.do_evict(id);
            ops.push(RepoOp::Evict(id));
        }
    }

    /// Batch-internal evict, forgetting the entry's record too; same
    /// staleness contract as [`RepoSnapshot::do_insert`].
    fn do_evict(&mut self, id: u64) -> Option<Arc<RepoEntry>> {
        let pos = self.entries.iter().position(|e| e.id == id)?;
        let e = self.entries.remove(pos);
        self.by_signature.remove(&e.signature);
        self.stored_bytes -= e.base.output_bytes;
        self.files_mut().remove(&e.file.path);
        Some(e)
    }

    /// The record table, copied on a batch's first change to it.
    fn files_mut(&mut self) -> &mut HashMap<String, Arc<StoredFile>> {
        Arc::make_mut(&mut self.files)
    }

    // ---- persistence ----

    /// Serialize the repository (plans, paths, stats) to a durable string.
    pub fn save(&self) -> String {
        self.save_filtered(|_| true)
    }

    /// Like [`RepoSnapshot::save`], but only records whose path
    /// satisfies `keep` are written: the entries in match-priority
    /// order, then the records without an entry, by path. The driver's
    /// `save_state` passes a liveness predicate so files condemned by a
    /// pending deferred deletion (or already gone from the DFS) never
    /// enter a snapshot as dangling paths.
    pub fn save_filtered(&self, keep: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        for e in self.entries.iter().filter(|e| keep(&e.file.path)) {
            encode_entry_into(&mut out, e);
        }
        let entries: HashSet<&str> = self.entries.iter().map(|e| e.file.path.as_str()).collect();
        let mut alone: Vec<&Arc<StoredFile>> =
            self.files().filter(|f| keep(&f.path) && !entries.contains(f.path.as_str())).collect();
        alone.sort_by(|a, b| a.path.cmp(&b.path));
        for f in alone {
            encode_file_into(&mut out, f);
        }
        out
    }
}

/// Append one entry in the durable format: an `entry …` line with its
/// statistics, then its file's record. Shared by
/// [`RepoSnapshot::save_filtered`] and the snapshot journal's
/// `repo-batch` records, so a journaled insert and a full dump agree
/// byte for byte.
pub(crate) fn encode_entry_into(out: &mut String, e: &RepoEntry) {
    let stats = e.stats();
    out.push_str(&format!(
        "entry {} {} {} {} {} {} {} {} {}\n",
        e.id,
        stats.input_bytes,
        stats.output_bytes,
        stats.job_time_s,
        stats.avg_map_time_s,
        stats.avg_reduce_time_s,
        stats.use_count,
        stats.last_used,
        stats.created,
    ));
    encode_file_into(out, &e.file);
}

/// Append one record in the durable `file …` block format: the path,
/// tick and format, an `input` line per recorded input, the plan. The
/// one codec of the path → plan fact, an entry's and a lone record's.
pub(crate) fn encode_file_into(out: &mut String, f: &StoredFile) {
    let format = if f.typed { "typed" } else { "text" };
    out.push_str(&format!("file {:?} {} {format}\n", f.path, f.tick));
    for (p, v) in &f.inputs {
        out.push_str(&format!("input {p:?} {v}\n"));
    }
    out.push_str("plan\n");
    for line in plan_text::encode_plan(&f.plan).lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("end\n");
}

/// One decoded block (see [`parse_block`]).
#[derive(Debug)]
pub(crate) enum Block {
    /// An `entry …` line and its file's record.
    Entry { id: u64, stats: RepoStats, file: StoredFile },
    /// A record without an entry.
    File(StoredFile),
}

/// Parse the next block off the line iterator: an `entry …` line and
/// the `file …` block after it, or a `file …` block alone. Returns
/// `Ok(None)` — consuming nothing — when the next non-empty line starts
/// neither, so callers with mixed-record bodies (the journal) can
/// dispatch on the leading keyword.
pub(crate) fn parse_block(
    lines: &mut std::iter::Peekable<std::str::Lines<'_>>,
) -> Result<Option<Block>> {
    while lines.next_if(|l| l.trim_end().is_empty()).is_some() {}
    let Some(line) = lines.peek() else { return Ok(None) };
    if line.starts_with("file ") {
        return Ok(Some(Block::File(parse_file(lines)?)));
    }
    let Some(rest) = line.trim_end().strip_prefix("entry ") else { return Ok(None) };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() != 9 {
        return Err(Error::Repository(format!("expected an id and 8 stat fields, got {rest:?}")));
    }
    let parse_u = |s: &str| s.parse::<u64>().map_err(|_| Error::Repository("bad stat".into()));
    let parse_f = |s: &str| s.parse::<f64>().map_err(|_| Error::Repository("bad stat".into()));
    let id = fields[0].parse().map_err(|_| Error::Repository("bad entry id".into()))?;
    let stats = RepoStats {
        input_bytes: parse_u(fields[1])?,
        output_bytes: parse_u(fields[2])?,
        job_time_s: parse_f(fields[3])?,
        avg_map_time_s: parse_f(fields[4])?,
        avg_reduce_time_s: parse_f(fields[5])?,
        use_count: parse_u(fields[6])?,
        last_used: parse_u(fields[7])?,
        created: parse_u(fields[8])?,
    };
    lines.next();
    if !lines.peek().is_some_and(|l| l.starts_with("file ")) {
        return Err(Error::Repository("entry without its file".into()));
    }
    Ok(Some(Block::Entry { id, stats, file: parse_file(lines)? }))
}

/// Parse one `file …` block; the caller has seen its first line.
fn parse_file(lines: &mut std::iter::Peekable<std::str::Lines<'_>>) -> Result<StoredFile> {
    let header = lines.next().and_then(|l| l.strip_prefix("file ")).unwrap_or_default();
    // The path is Rust-quoted and may contain spaces: find the closing quote.
    let close = plan_text::read_quoted(header)?;
    let path = plan_text::unquote(&header[..close])?;
    let Some((tick, format)) = header[close..].trim().split_once(' ') else {
        return Err(Error::Repository(format!("truncated file line {header:?}")));
    };
    let tick = tick.parse().map_err(|_| Error::Repository(format!("bad file tick {tick:?}")))?;
    let typed = match format {
        "typed" => true,
        "text" => false,
        _ => return Err(Error::Repository(format!("bad file format {format:?}"))),
    };
    let mut inputs = Vec::new();
    loop {
        let l = lines.next().ok_or_else(|| Error::Repository("truncated file".into()))?;
        if l == "plan" {
            break;
        }
        let rest = l
            .strip_prefix("input ")
            .ok_or_else(|| Error::Repository(format!("unexpected line {l:?}")))?;
        let close = plan_text::read_quoted(rest)?;
        let input = plan_text::unquote(&rest[..close])?;
        let version: u64 = rest[close..]
            .trim()
            .parse()
            .map_err(|_| Error::Repository("bad input version".into()))?;
        inputs.push((input, version));
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
    Ok(StoredFile { path, tick, typed, plan, inputs })
}

/// One structural mutation of a published batch, in application order.
/// The journal sink receives the batch's ops at publish time and turns
/// them into one `repo-batch` record.
#[derive(Debug, Clone)]
pub enum RepoOp {
    /// An entry was inserted or refreshed; the `Arc` is the entry as
    /// stored (so the sink serializes exactly what readers see).
    Put(Arc<RepoEntry>),
    /// A file was recorded without an entry.
    File(Arc<StoredFile>),
    /// An entry was evicted, and its record forgotten.
    Evict(u64),
    /// A record without an entry was forgotten.
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

/// The ordered, concurrently shared repository, with its records.
///
/// All methods take `&self`: reads work against the current
/// [`RepoSnapshot`] and wait on no writer section, mutations serialize internally and publish a new
/// snapshot (see the module docs). For several mutations that must land
/// atomically — a wave's entries and records, a staleness pass's
/// forgets — use [`Repository::batch`], which publishes once.
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

    /// Insert an entry for `file`, maintaining the §3 ordering rules.
    /// Deduplicates by plan signature (the later execution refreshes
    /// statistics, and `file` becomes a record without an entry). A
    /// batch of one.
    pub fn insert(&self, file: StoredFile, stats: RepoStats) -> InsertOutcome {
        self.batch(|b| b.insert(file, stats))
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
            self.note_use_of(e, tick);
        }
    }

    /// [`Repository::note_use`] of an entry the caller holds, from any
    /// snapshot of it: every snapshot's entry shares its counters.
    pub(crate) fn note_use_of(&self, e: &RepoEntry, tick: u64) {
        e.note_use(tick);
        if self.track_usage.load(Relaxed) && !e.usage.dirty.swap(true, SeqCst) {
            self.dirty_used.lock().push(e.id);
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

    /// Remove an entry and its record, returning the entry. A batch of
    /// one.
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

    /// Replace this repository's contents — entries in order, and every
    /// record — with `other`'s (state restore). The snapshot
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
    /// is preserved verbatim (it was valid when saved).
    pub fn load(text: &str) -> Result<Repository> {
        let mut entries: Vec<Arc<RepoEntry>> = Vec::new();
        let mut files = HashMap::new();
        let mut next_id = 0u64;
        let mut lines = text.lines().peekable();
        while let Some(block) = parse_block(&mut lines)? {
            let (file, entry) = match block {
                Block::Entry { id, stats, file } => (Arc::new(file), Some((id, stats))),
                Block::File(file) => (Arc::new(file), None),
            };
            files.insert(file.path.clone(), file.clone());
            if let Some((id, stats)) = entry {
                next_id = next_id.max(id + 1);
                entries.push(Arc::new(RepoEntry::new(id, file, stats)));
            }
        }
        if let Some(line) = lines.next() {
            return Err(Error::Repository(format!("expected 'entry' or 'file', got {line:?}")));
        }
        Ok(Repository::from_entries(entries, files, next_id))
    }

    /// Build a repository from fully formed entries (ids assigned,
    /// order final) and every record: one snapshot construction, one
    /// reindex.
    fn from_entries(
        entries: Vec<Arc<RepoEntry>>,
        files: HashMap<String, Arc<StoredFile>>,
        next_id: u64,
    ) -> Repository {
        let mut snap = RepoSnapshot {
            stored_bytes: entries.iter().map(|e| e.base.output_bytes).sum(),
            by_signature: entries.iter().map(|e| (e.signature, e.id)).collect(),
            entries,
            files: Arc::new(files),
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
    pub fn bulk_load(items: Vec<(StoredFile, RepoStats)>) -> Repository {
        let mut entries: Vec<Arc<RepoEntry>> = Vec::with_capacity(items.len());
        let mut seen = HashSet::with_capacity(items.len());
        for (i, (file, stats)) in items.into_iter().enumerate() {
            let e = RepoEntry::new(i as u64, Arc::new(file), stats);
            if seen.insert(e.signature) {
                entries.push(Arc::new(e));
            }
        }
        let files = entries.iter().map(|e| (e.file.path.clone(), e.file.clone())).collect();
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
        Repository::from_entries(entries, files, next_id)
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
            let matched = pairwise_plan_traversal_at(&e.file.plan, input_plan, [site]);
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
            pairwise_plan_traversal_at(&e.file.plan, input_plan, sites).map(|m| (e.id, m))
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
    /// Insert an entry for `file` (see [`Repository::insert`]).
    pub fn insert(&mut self, file: StoredFile, stats: RepoStats) -> InsertOutcome {
        // Reserve the id optimistically; duplicates leave a gap in the
        // id space, which nothing depends on.
        let id = self.next_id.fetch_add(1, SeqCst);
        let entry = RepoEntry::new(id, Arc::new(file), stats);
        let len = self.work.entries.len();
        let outcome = self.work.do_insert(entry, &mut self.ops);
        // A duplicate's record may have evicted the entry at its path.
        self.reindex |= self.work.entries.len() != len;
        if matches!(outcome, InsertOutcome::Inserted(_)) {
            self.reindex = true;
        } else {
            // Roll the reservation back when we were the only claimant.
            let _ = self.next_id.compare_exchange(id + 1, id, SeqCst, SeqCst);
        }
        outcome
    }

    /// Journal replay: (re)store an entry under an **explicit id**,
    /// reproducing exactly what the journaled batch did. An existing
    /// entry with the id is replaced in place (the refresh path); a
    /// fresh id inserts at its §3/§5 position, like the original
    /// insertion. Idempotent — applying a record over a base checkpoint
    /// that already contains its effects is a no-op in the serialized
    /// state.
    pub(crate) fn put(&mut self, id: u64, file: StoredFile, stats: RepoStats) {
        self.next_id.fetch_max(id + 1, SeqCst);
        let file = Arc::new(file);
        let entry = RepoEntry::new(id, file.clone(), stats);
        let work = &mut self.work;
        work.files_mut().insert(file.path.clone(), file);
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

    /// Journal replay of a record without an entry.
    pub(crate) fn put_file(&mut self, file: StoredFile) {
        self.reindex = true;
        self.work.put_file(Arc::new(file), &mut self.ops);
    }

    /// Remove an entry and its record, returning the entry (see
    /// [`Repository::evict`]).
    pub fn evict(&mut self, id: u64) -> Option<Arc<RepoEntry>> {
        let e = self.work.do_evict(id)?;
        self.reindex = true;
        self.ops.push(RepoOp::Evict(id));
        Some(e)
    }

    /// Forget the record of `path`, evicting its entry if it has one;
    /// returns the evicted entry.
    pub fn forget(&mut self, path: &str) -> Option<Arc<RepoEntry>> {
        if let Some(id) = self.work.entries.iter().find(|e| e.file.path == path).map(|e| e.id) {
            return self.evict(id);
        }
        if self.work.files.contains_key(path) {
            self.work.files_mut().remove(path);
            self.ops.push(RepoOp::Forget(path.to_string()));
        }
        None
    }

    /// The pending record of the file at `path`, if one is stored.
    pub fn file(&self, path: &str) -> Option<&Arc<StoredFile>> {
        self.work.file(path)
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

    /// The index's first match in `q`, no site vetoed.
    fn first_match(snap: &RepoSnapshot, q: &PhysicalPlan) -> Option<(u64, PlanMatch)> {
        snap.find_first_match_probed(q, |_, _| false, &mut MatchProbe::default())
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
        repo.insert(
            StoredFile::new("/repo/b", load_project("/pv", vec![0, 2])),
            stats(100, 10, 5.0),
        );
        let (id, m) = first_match(&repo.snapshot(), &q1_plan()).unwrap();
        assert_eq!(repo.snapshot().get(id).unwrap().file.path, "/repo/b");
        assert!(matches!(q1_plan().op(m.tip), PhysicalOp::Project { .. }));
    }

    #[test]
    fn duplicate_signature_refreshes_stats() {
        let repo = Repository::new();
        let plan = || load_project("/pv", vec![0]);
        let first = StoredFile { tick: 3, typed: true, ..StoredFile::new("/r/1", plan()) };
        let a = repo.insert(first, stats(100, 10, 5.0));
        let InsertOutcome::Inserted(id) = a else { panic!() };
        repo.note_use(id, 3);
        let second = StoredFile { tick: 9, ..StoredFile::new("/r/2", plan()) };
        let b = repo.insert(second.clone(), stats(100, 12, 6.0));
        assert_eq!(b, InsertOutcome::Duplicate(id));
        let snap = repo.snapshot();
        assert_eq!(snap.len(), 1);
        let e = snap.get(id).cloned().unwrap();
        assert_eq!(e.stats().job_time_s, 6.0); // refreshed
        assert_eq!(e.stats().output_bytes, 10); // its own file's size
        assert_eq!(e.stats().use_count, 1); // history kept
                                            // The entry keeps its own file and what it recorded of it…
        assert_eq!((e.file.path.as_str(), e.file.tick, e.file.typed), ("/r/1", 3, true));
        // …and the second file is a record without an entry.
        assert_eq!(snap.file("/r/2").map(|f| &**f), Some(&second));
        assert_eq!(snap.files().len(), 2);
        assert_eq!(snap.stored_bytes(), 10); // the entries' own files
    }

    #[test]
    fn a_duplicate_in_another_file_keeps_the_entrys_own_size() {
        // The v8 fixture's record 13: the text output `/out/fb` (30 bytes,
        // written by a 12 s copy job) holds the plan the typed candidate
        // `/restore/sub-4` (38 bytes, a 54 s job) already stores.
        let repo = Repository::new();
        let plan = || load_project("/pv", vec![0]);
        let sub = StoredFile { typed: true, ..StoredFile::new("/restore/sub-4", plan()) };
        let InsertOutcome::Inserted(id) = repo.insert(sub, stats(30, 38, 54.0)) else { panic!() };
        let fb = repo.insert(StoredFile::new("/out/fb", plan()), stats(30, 30, 12.0));
        assert_eq!(fb, InsertOutcome::Duplicate(id));
        let snap = repo.snapshot();
        let e = snap.get(id).unwrap();
        assert_eq!(e.file.path, "/restore/sub-4");
        assert_eq!(e.stats().output_bytes, 38, "the size of the entry's own file");
        assert_eq!(snap.stored_bytes(), 38, "the sum of the entries' own files");
        assert_eq!(e.stats().job_time_s, 12.0, "the job's statistics are refreshed");
        // A duplicate at the entry's own path describes its own file.
        repo.insert(StoredFile::new("/restore/sub-4", plan()), stats(30, 41, 54.0));
        let snap = repo.snapshot();
        assert_eq!(
            (snap.get(id).map(|e| e.stats().output_bytes), snap.stored_bytes()),
            (Some(41), 41)
        );
    }

    #[test]
    fn eviction_and_forget_take_the_record_with_them() {
        let repo = Repository::new();
        let plan = || load_project("/pv", vec![0]);
        let InsertOutcome::Inserted(id) =
            repo.insert(StoredFile::new("/r/1", plan()), stats(1, 1, 1.0))
        else {
            panic!()
        };
        repo.insert(StoredFile::new("/r/2", plan()), stats(1, 1, 1.0));
        repo.insert(StoredFile::new("/r/3", load_project("/x", vec![1])), stats(1, 1, 1.0));
        assert_eq!(repo.snapshot().files().len(), 3);
        // Evicting an entry forgets its record; a lone record stays.
        repo.evict(id);
        assert!(repo.snapshot().file("/r/1").is_none());
        assert!(repo.snapshot().file("/r/2").is_some());
        // Forgetting a path evicts its entry, or forgets a lone record.
        let gone =
            repo.batch(|b| (b.forget("/r/3").map(|e| e.file.path.clone()), b.forget("/r/2")));
        assert_eq!((gone.0.as_deref(), gone.1.is_none()), (Some("/r/3"), true));
        let snap = repo.snapshot();
        assert!(snap.is_empty() && snap.files().len() == 0);
    }

    #[test]
    fn a_record_replacing_another_at_its_path_evicts_its_entry() {
        let repo = Repository::new();
        repo.insert(StoredFile::new("/r/1", load_project("/pv", vec![0])), stats(1, 1, 1.0));
        let fresh =
            repo.insert(StoredFile::new("/r/1", load_project("/pv", vec![1])), stats(1, 1, 1.0));
        let snap = repo.snapshot();
        assert_eq!(snap.entries().iter().map(|e| e.id).collect::<Vec<_>>(), [1]);
        assert_eq!(fresh, InsertOutcome::Inserted(1));
        assert_eq!(snap.file("/r/1").map(|f| f.plan.clone()), Some(load_project("/pv", vec![1])));
    }

    #[test]
    fn refreshed_entry_shares_usage_with_stale_snapshots() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(StoredFile::new("/r/1", load_project("/pv", vec![0])), stats(100, 10, 5.0))
        else {
            panic!()
        };
        // A reader holds the pre-refresh snapshot…
        let stale = repo.snapshot();
        repo.insert(StoredFile::new("/r/2", load_project("/pv", vec![0])), stats(100, 12, 6.0));
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
        repo.insert(
            StoredFile::new("/r/sub", load_project("/pv", vec![0, 2])),
            stats(100, 50, 2.0),
        );
        // …then the Q1 plan that subsumes it.
        repo.insert(StoredFile::new("/r/q1", q1_plan()), stats(200, 20, 30.0));
        let snap = repo.snapshot();
        assert_eq!(snap.entries()[0].file.path, "/r/q1");
        assert_eq!(snap.entries()[1].file.path, "/r/sub");
        // A fresh Q1-shaped query now matches the *whole* Q1 plan first
        // (the paper's "first match is best match").
        let (id, _) = first_match(&repo.snapshot(), &q1_plan()).unwrap();
        assert_eq!(repo.snapshot().get(id).unwrap().file.path, "/r/q1");
    }

    #[test]
    fn incomparable_plans_ordered_by_reduction_then_time() {
        let repo = Repository::new();
        repo.insert(StoredFile::new("/r/low", load_project("/a", vec![0])), stats(100, 50, 9.0));
        repo.insert(StoredFile::new("/r/high", load_project("/b", vec![0])), stats(100, 5, 1.0));
        // ratio 20 beats ratio 2 despite lower time.
        assert_eq!(repo.snapshot().entries()[0].file.path, "/r/high");
        // Same ratio: longer time first.
        let repo = Repository::new();
        repo.insert(StoredFile::new("/r/fast", load_project("/a", vec![0])), stats(100, 10, 1.0));
        repo.insert(StoredFile::new("/r/slow", load_project("/b", vec![0])), stats(100, 10, 9.0));
        assert_eq!(repo.snapshot().entries()[0].file.path, "/r/slow");
    }

    #[test]
    fn eviction_removes_entry_and_signature() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(StoredFile::new("/r/a", load_project("/a", vec![0])), stats(1, 1, 1.0))
        else {
            panic!()
        };
        assert!(repo.evict(id).is_some());
        assert!(repo.snapshot().is_empty());
        assert_eq!(repo.snapshot().stored_bytes(), 0);
        // Same plan can be inserted again afterwards.
        let again =
            repo.insert(StoredFile::new("/r/a2", load_project("/a", vec![0])), stats(1, 1, 1.0));
        assert!(matches!(again, InsertOutcome::Inserted(_)));
    }

    #[test]
    fn index_agrees_with_scan() {
        let repo = Repository::new();
        for (i, cols) in [vec![0], vec![1], vec![0, 2], vec![2]].into_iter().enumerate() {
            repo.insert(
                StoredFile::new(format!("/r/{i}"), load_project("/pv", cols)),
                stats(100 + i as u64, 10, i as f64),
            );
        }
        let view = repo.snapshot();
        let q = q1_plan();
        let a = view.find_first_match_scan(&q, |_, _| false).map(|(id, m)| (id, m.tip));
        let b = first_match(&view, &q).map(|(id, m)| (id, m.tip));
        assert_eq!(a, b);
        assert!(a.is_some());
        // And both agree on a non-match.
        let other = load_project("/nowhere", vec![9]);
        assert!(view.find_first_match_scan(&other, |_, _| false).is_none());
        assert!(first_match(&view, &other).is_none());
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
        repo.insert(StoredFile::new("/r/p", load_project("/pv", vec![0])), stats(100, 50, 1.0));
        let InsertOutcome::Inserted(id) =
            repo.insert(StoredFile::new("/r/self", stored.clone()), stats(100, 10, 9.0))
        else {
            panic!("fresh plan");
        };
        let view = repo.snapshot();
        let scan = view.find_first_match_scan(&input, |_, _| false).map(|(id, m)| (id, m.tip));
        assert_eq!(scan, Some((id, j)), "the scan sees through the tee");
        assert_eq!(first_match(&view, &input).map(|(id, m)| (id, m.tip)), scan);
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
        repo.insert(StoredFile::new("/r/b", load_project("/pv", vec![0, 2])), stats(100, 10, 5.0));
        let before = repo.snapshot();
        repo.batch(|b| {
            b.insert(StoredFile::new("/r/x", load_project("/x", vec![1])), stats(50, 5, 1.0));
            b.insert(StoredFile::new("/r/y", load_project("/y", vec![1])), stats(50, 5, 1.0));
        });
        assert_eq!(before.len(), 1, "held snapshot unchanged");
        assert_eq!(repo.snapshot().len(), 3, "batch landed atomically");
        // The old snapshot still matches correctly.
        assert!(first_match(&before, &q1_plan()).is_some());
    }

    #[test]
    fn note_use_publishes_no_snapshot() {
        let repo = Repository::new();
        let InsertOutcome::Inserted(id) =
            repo.insert(StoredFile::new("/r/1", load_project("/pv", vec![0])), stats(100, 10, 5.0))
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
        let inputs = vec![("/pv".into(), 0), ("/users dir/x".into(), 2)];
        let q1 = StoredFile { tick: 7, typed: true, inputs, ..StoredFile::new("/r/q1", q1_plan()) };
        repo.insert(
            q1,
            RepoStats {
                input_bytes: 1000,
                output_bytes: 50,
                job_time_s: 12.5,
                avg_map_time_s: 1.5,
                avg_reduce_time_s: 2.5,
                use_count: 3,
                last_used: 9,
                created: 1,
            },
        );
        repo.insert(
            StoredFile::new("/r/sub", load_project("/pv", vec![0, 2])),
            stats(100, 10, 2.0),
        );
        // A second file holding the first plan: a record without an entry.
        repo.insert(
            StoredFile { tick: 8, ..StoredFile::new("/r/copy", q1_plan()) },
            stats(1, 1, 1.0),
        );
        let text = repo.snapshot().save();
        let back = Repository::load(&text).unwrap();
        assert_eq!(back.snapshot().len(), 2);
        let (b, r) = (back.snapshot(), repo.snapshot());
        assert_eq!(b.file("/r/copy"), r.file("/r/copy"));
        assert_eq!(b.entries()[0].file, r.entries()[0].file);
        assert_eq!(b.entries()[0].signature, r.entries()[0].signature);
        assert_eq!(b.entries()[0].stats(), r.entries()[0].stats());
        assert_eq!(b.entries()[0].tip_signature, r.entries()[0].tip_signature);
        assert_eq!(b.stored_bytes(), r.stored_bytes());
        // Loaded repository still matches.
        assert!(first_match(&b, &q1_plan()).is_some());
        // And re-saving is byte-identical (usage counters round-trip).
        assert_eq!(back.snapshot().save(), text);
        // The state-restore path: adopting keeps the order, a frozen
        // capture sees it, and the id sequence continues.
        let fresh = Repository::new();
        fresh.adopt(back);
        assert_eq!(fresh.freeze(|frozen| frozen.save()), text);
        let next = fresh
            .insert(StoredFile::new("/r/new", load_project("/new", vec![0])), stats(1, 1, 1.0));
        assert_eq!(next, InsertOutcome::Inserted(2));
    }

    #[test]
    fn bulk_load_orders_by_score_and_keeps_ids_unique_after_dedup() {
        let repo = Repository::bulk_load(vec![
            (StoredFile::new("/r/a", load_project("/a", vec![0])), stats(100, 50, 1.0)),
            // Duplicate signature: dropped, but its id (1) was consumed.
            (StoredFile::new("/r/dup", load_project("/a", vec![0])), stats(100, 50, 9.0)),
            (StoredFile::new("/r/b", load_project("/b", vec![0])), stats(100, 5, 1.0)),
        ]);
        assert_eq!(repo.snapshot().len(), 2, "duplicate signatures keep the first occurrence");
        // Rule-2 order: ratio 20 before ratio 2.
        assert_eq!(repo.snapshot().entries()[0].file.path, "/r/b");
        // A post-bulk insert must not reuse a retained id: entry "/r/b"
        // carries id 2, so the next insert gets 3.
        let InsertOutcome::Inserted(next) =
            repo.insert(StoredFile::new("/r/c", load_project("/c", vec![0])), stats(1, 1, 1.0))
        else {
            panic!()
        };
        let ids: Vec<u64> = repo.snapshot().entries().iter().map(|e| e.id).collect();
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "ids stay unique after bulk dedup, got {ids:?}");
        assert_eq!(next, 3);
        // And matching still works against the bulk-built indexes.
        assert!(first_match(&repo.snapshot(), &q1_plan()).is_none());
        let mut p = load_project("/b", vec![0]);
        let before = p.inputs(p.stores()[0])[0];
        let g = p.add(PhysicalOp::Group { keys: vec![0] }, vec![before]);
        p.add(PhysicalOp::Store { path: "/out".into() }, vec![g]);
        let (hit, _) = first_match(&repo.snapshot(), &p).unwrap();
        assert_eq!(repo.snapshot().get(hit).unwrap().file.path, "/r/b");
    }

    #[test]
    fn stored_bytes_is_maintained_incrementally() {
        let repo = Repository::new();
        repo.insert(StoredFile::new("/r/a", load_project("/a", vec![0])), stats(100, 30, 1.0));
        let InsertOutcome::Inserted(b) =
            repo.insert(StoredFile::new("/r/b", load_project("/b", vec![0])), stats(100, 12, 1.0))
        else {
            panic!()
        };
        assert_eq!(repo.snapshot().stored_bytes(), 42);
        repo.evict(b);
        assert_eq!(repo.snapshot().stored_bytes(), 30);
    }
}
