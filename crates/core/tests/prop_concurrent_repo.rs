//! The RCU repository against the pre-refactor locked design.
//!
//! Two families of guarantees:
//!
//! * **parity** — random insert/evict/match sequences produce identical
//!   (entry id, match tip) results, identical entry order, and identical
//!   `stored_bytes` on the snapshot-based repository and on a
//!   `Mutex`-guarded reimplementation of the old locked sequential scan
//!   (the §3 reference semantics);
//! * **concurrency** — under real multi-threaded insert/evict/match
//!   traffic the snapshot matcher only ever returns entries that exist
//!   in the snapshot it matched against, the index and the scan oracle
//!   agree on every snapshot, matching publishes nothing,
//!   and `note_use` accounting is exact under 8-thread contention.

use proptest::prelude::*;
use restore_core::matcher::{pairwise_plan_traversal, subsumes, PlanMatch};
use restore_core::{MatchProbe, RepoSnapshot, RepoStats, Repository, StoredFile};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};
use std::sync::atomic::{AtomicU64, Ordering};

/// A faithful reimplementation of the pre-refactor locked repository:
/// ordered `Vec`, sequential scan, O(n) lookups, per-call
/// `stored_bytes` sum (concurrent callers would serialize on one big
/// lock around the whole struct). The proptest drives it in lockstep
/// with the RCU repository and demands byte-identical behavior.
#[derive(Default)]
struct LockedRepo {
    entries: Vec<(u64, PhysicalPlan, u64, String, RepoStats)>,
    next_id: u64,
}

impl LockedRepo {
    fn insert(&mut self, plan: PhysicalPlan, path: String, stats: RepoStats) -> u64 {
        let signature = plan.signature();
        if let Some(e) = self.entries.iter_mut().find(|e| e.2 == signature) {
            let (uses, last, size) = (e.4.use_count, e.4.last_used, e.4.output_bytes);
            e.4 = stats;
            e.4.use_count = uses;
            e.4.last_used = last;
            // Another file's size is not the entry's own.
            if e.3 != path {
                e.4.output_bytes = size;
            }
            return e.0;
        }
        let id = self.next_id;
        self.next_id += 1;
        // §3 ordering: subsuming plans first, then (ratio, time) desc.
        let mut lo = 0usize;
        let mut hi = self.entries.len();
        for (i, e) in self.entries.iter().enumerate() {
            let e_subsumes_new = subsumes(&e.1, &plan);
            let new_subsumes_e = subsumes(&plan, &e.1);
            if e_subsumes_new && !new_subsumes_e {
                lo = lo.max(i + 1);
            } else if new_subsumes_e && !e_subsumes_new {
                hi = hi.min(i);
            }
        }
        if hi < lo {
            hi = lo;
        }
        let score = |s: &RepoStats| (s.reduction_ratio(), s.job_time_s);
        let new_score = score(&stats);
        let mut pos = lo;
        while pos < hi {
            if score(&self.entries[pos].4) < new_score {
                break;
            }
            pos += 1;
        }
        self.entries.insert(pos, (id, plan, signature, path, stats));
        id
    }

    fn evict(&mut self, id: u64) -> bool {
        match self.entries.iter().position(|e| e.0 == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn find_first_match(&self, input: &PhysicalPlan) -> Option<(u64, PlanMatch)> {
        self.entries.iter().find_map(|e| pairwise_plan_traversal(&e.1, input).map(|m| (e.0, m)))
    }

    fn note_use(&mut self, id: u64, tick: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == id) {
            e.4.use_count += 1;
            e.4.last_used = e.4.last_used.max(tick);
        }
    }

    fn stored_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.4.output_bytes).sum()
    }
}

/// The index's first match in `q`, no site vetoed.
fn first_match(snap: &RepoSnapshot, q: &PhysicalPlan) -> Option<(u64, PlanMatch)> {
    snap.find_first_match_probed(q, |_, _| false, &mut MatchProbe::default())
}

/// Small pipelines over a handful of load paths so that random
/// sequences produce genuine matches, subsumption chains, and duplicate
/// signatures. Returns the plan (no Store yet) and its last operator.
fn pipeline(seed: u8, depth: u8) -> (PhysicalPlan, NodeId) {
    let mut p = PhysicalPlan::new();
    let path = ["/data/a", "/data/b", "/data/c"][(seed % 3) as usize];
    let mut cur = p.add(PhysicalOp::Load { path: path.into() }, vec![]);
    for d in 0..(depth % 4) {
        cur = match (seed.wrapping_add(d)) % 3 {
            0 => p.add(PhysicalOp::Project { cols: vec![0, (d % 3) as usize] }, vec![cur]),
            1 => p.add(
                PhysicalOp::Filter { pred: Expr::col_eq((d % 2) as usize, seed as i64) },
                vec![cur],
            ),
            _ => p.add(PhysicalOp::Group { keys: vec![(d % 2) as usize] }, vec![cur]),
        };
    }
    (p, cur)
}

/// Bit 2 of `depth` makes the plan a shared-subplan shape: the pipeline
/// unioned with itself.
fn self_union(depth: u8) -> bool {
    depth & 4 != 0
}

/// A stored plan. Its self-union is a duplicate edge, `Union(x, x)` —
/// what `prefix_plan` leaves once it has elided the tees.
fn plan_for(seed: u8, depth: u8) -> PhysicalPlan {
    let (mut p, mut cur) = pipeline(seed, depth);
    if self_union(depth) {
        cur = p.add(PhysicalOp::Union, vec![cur, cur]);
    }
    p.add(PhysicalOp::Store { path: format!("/store/{seed}-{depth}") }, vec![cur]);
    p
}

/// A longer query that embeds `plan_for(seed, depth)` as a prefix, in
/// the spelling a compiled query would carry: the self-union's second
/// edge runs through the `Split` tee CSE's duplicate-edge guard inserts
/// (`Union(x, Split(x))`), and bit 3 of `depth` adds a sub-job
/// enumerator's injected `Split` + side `Store` above the prefix.
fn query_for(seed: u8, depth: u8) -> PhysicalPlan {
    let (mut p, mut cur) = pipeline(seed, depth);
    if self_union(depth) {
        let tee = p.add(PhysicalOp::Split, vec![cur]);
        cur = p.add(PhysicalOp::Union, vec![cur, tee]);
    }
    if depth & 8 != 0 {
        cur = p.add(PhysicalOp::Split, vec![cur]);
        p.add(PhysicalOp::Store { path: "/side".into() }, vec![cur]);
    }
    let g = p.add(PhysicalOp::Distinct, vec![cur]);
    p.add(PhysicalOp::Store { path: "/q".into() }, vec![g]);
    p
}

#[derive(Debug, Clone)]
enum Op {
    Insert { seed: u8, depth: u8, out_bytes: u64, time: u8 },
    Evict { pick: usize },
    Match { seed: u8, depth: u8 },
    NoteUse { pick: usize, tick: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), 1u64..1000, any::<u8>())
            .prop_map(|(seed, depth, out_bytes, time)| Op::Insert { seed, depth, out_bytes, time }),
        (0usize..32).prop_map(|pick| Op::Evict { pick }),
        (any::<u8>(), any::<u8>()).prop_map(|(seed, depth)| Op::Match { seed, depth }),
        (0usize..32, 1u64..100).prop_map(|(pick, tick)| Op::NoteUse { pick, tick }),
    ]
}

proptest! {
    /// Random insert/evict/match/note_use sequences: the snapshot-based
    /// matcher (the index, and the scan oracle beside it) returns
    /// identical (entry id, match tip) results to the locked sequential
    /// scan — on queries that carry `Split` tees — and entry order,
    /// statistics, and `stored_bytes` stay in lockstep throughout.
    #[test]
    fn snapshot_repo_matches_locked_reference(ops in prop::collection::vec(arb_op(), 1..60)) {
        let repo = Repository::new();
        let mut reference = LockedRepo::default();
        let mut live_ids: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { seed, depth, out_bytes, time } => {
                    let stats = RepoStats {
                        input_bytes: 4096,
                        output_bytes: out_bytes,
                        job_time_s: time as f64,
                        ..Default::default()
                    };
                    let plan = plan_for(seed, depth);
                    let path = format!("/r/{seed}-{depth}");
                    let a = repo.insert(StoredFile::new(&path, plan.clone()), stats.clone());
                    let b = reference.insert(plan, path, stats);
                    // Same id under both Inserted and Duplicate: the RCU
                    // repo burns ids on duplicates, the reference does
                    // not, so compare through the reference's id *only*
                    // for presence bookkeeping.
                    if let restore_core::repository::InsertOutcome::Inserted(id) = a {
                        live_ids.push(id);
                        prop_assert_eq!(
                            repo.snapshot().entries().iter().position(|e| e.id == id),
                            reference.entries.iter().position(|e| e.0 == b),
                            "insert landed at different positions"
                        );
                    }
                }
                Op::Evict { pick } => {
                    if live_ids.is_empty() { continue; }
                    let id = live_ids[pick % live_ids.len()];
                    let ref_id = id_map(&repo, &reference, id);
                    let a = repo.evict(id).is_some();
                    let b = match ref_id { Some(r) => reference.evict(r), None => false };
                    prop_assert_eq!(a, b, "evict disagreed for id {}", id);
                    live_ids.retain(|&x| x != id);
                }
                Op::Match { seed, depth } => {
                    let q = query_for(seed, depth);
                    let view = repo.snapshot();
                    let got = first_match(&view, &q);
                    let want = reference.find_first_match(&q);
                    match (&got, &want) {
                        (None, None) => {}
                        (Some((id, m)), Some((rid, rm))) => {
                            prop_assert_eq!(m.tip, rm.tip, "match tips differ");
                            prop_assert_eq!(
                                id_map(&repo, &reference, *id), Some(*rid),
                                "matched different entries"
                            );
                        }
                        _ => prop_assert!(false, "hit/miss disagreement: {:?} vs {:?}", got.is_some(), want.is_some()),
                    }
                    // The index agrees with the scan oracle on the same
                    // view, entry for entry, tip for tip.
                    prop_assert_eq!(
                        view.find_first_match_scan(&q, |_, _| false).map(|(id, m)| (id, m.tip)),
                        got.map(|(id, m)| (id, m.tip))
                    );
                }
                Op::NoteUse { pick, tick } => {
                    if live_ids.is_empty() { continue; }
                    let id = live_ids[pick % live_ids.len()];
                    if let Some(rid) = id_map(&repo, &reference, id) {
                        reference.note_use(rid, tick);
                    }
                    repo.note_use(id, tick);
                }
            }
            // Full-state lockstep after every op.
            let snap = repo.snapshot();
            prop_assert_eq!(snap.len(), reference.entries.len());
            prop_assert_eq!(snap.stored_bytes(), reference.stored_bytes());
            for (e, r) in snap.entries().iter().zip(&reference.entries) {
                prop_assert_eq!(e.signature, r.2, "order diverged");
                prop_assert_eq!(&e.file.path, &r.3);
                prop_assert_eq!(e.stats(), r.4.clone(), "stats diverged");
            }
        }
    }
}

/// Map an RCU-repo entry id to the reference entry id by position (ids
/// diverge when duplicates burn ids on one side only).
fn id_map(repo: &Repository, reference: &LockedRepo, id: u64) -> Option<u64> {
    let snap = repo.snapshot();
    let pos = snap.entries().iter().position(|e| e.id == id)?;
    reference.entries.get(pos).map(|e| e.0)
}

/// Concurrency: 4 writer threads churn inserts/evictions while 4 reader
/// threads match. Every match must name an entry present in the view
/// it was found in, the index must agree with the scan oracle per view,
/// and matching must publish nothing.
#[test]
fn concurrent_insert_evict_match_is_coherent() {
    let repo = Repository::new();
    // Pre-seed so matches happen from the start.
    for s in 0..8u8 {
        let stats = RepoStats {
            input_bytes: 4096,
            output_bytes: 64 + s as u64,
            job_time_s: s as f64,
            ..Default::default()
        };
        repo.insert(StoredFile::new(format!("/seed/{s}"), plan_for(s, s % 4)), stats);
    }
    let stop = AtomicU64::new(0);
    let matches_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..4u8 {
            let repo = &repo;
            let stop = &stop;
            scope.spawn(move || {
                for i in 0..400u32 {
                    let seed = (w as u32 * 31 + i) as u8;
                    let stats = RepoStats {
                        input_bytes: 4096,
                        output_bytes: 1 + (i as u64 % 100),
                        job_time_s: (i % 13) as f64,
                        ..Default::default()
                    };
                    match repo.insert(
                        StoredFile::new(format!("/w{w}/{i}"), plan_for(seed, (i % 4) as u8)),
                        stats,
                    ) {
                        restore_core::repository::InsertOutcome::Inserted(id) if i % 3 == 0 => {
                            repo.evict(id);
                        }
                        _ => {}
                    }
                }
                stop.fetch_add(1, Ordering::SeqCst);
            });
        }
        for r in 0..4u8 {
            let repo = &repo;
            let stop = &stop;
            let matches_seen = &matches_seen;
            scope.spawn(move || {
                let mut i = 0u32;
                while stop.load(Ordering::SeqCst) < 4 {
                    i += 1;
                    let q = query_for((r as u32 * 17 + i) as u8, (i % 4) as u8);
                    let snap = repo.snapshot();
                    let found = first_match(&snap, &q).map(|(id, m)| (id, m.tip));
                    if let Some((id, tip)) = found {
                        // The match names a live entry of *this* view…
                        let e = snap.get(id).expect("matched entry must exist in its view");
                        // …that genuinely matches (re-verify the traversal).
                        let again = pairwise_plan_traversal(&e.file.plan, &q)
                            .expect("matched entry must verify");
                        assert_eq!(again.tip, tip);
                        matches_seen.fetch_add(1, Ordering::SeqCst);
                        repo.note_use(id, i as u64);
                    }
                    // Scan and index agree on this view even while
                    // writers churn.
                    assert_eq!(
                        snap.find_first_match_scan(&q, |_, _| false).map(|(id, m)| (id, m.tip)),
                        found,
                    );
                }
            });
        }
    });
    assert!(matches_seen.load(Ordering::SeqCst) > 0, "stress must exercise real matches");
}

/// The match path publishes no snapshot: matching plus reuse accounting
/// leave the publish counter untouched (zero write-side acquisitions).
#[test]
fn match_path_is_write_free() {
    let repo = Repository::new();
    let restore_core::repository::InsertOutcome::Inserted(id) = repo.insert(
        StoredFile::new("/r/1", plan_for(1, 2)),
        RepoStats { input_bytes: 4096, output_bytes: 64, ..Default::default() },
    ) else {
        panic!()
    };
    let publishes = repo.publish_count();
    let q = query_for(1, 2);
    for t in 0..1000u64 {
        let (found, _) = first_match(&repo.snapshot(), &q).expect("warm match");
        assert_eq!(found, id);
        repo.note_use(found, t);
    }
    assert_eq!(repo.publish_count(), publishes, "matching must not publish");
    assert_eq!(repo.snapshot().get(id).unwrap().use_count(), 1000);
}

/// `note_use` accounting is exact under 8-thread contention, including
/// concurrent duplicate-refresh inserts (which replace the entry but
/// share its counters).
#[test]
fn note_use_totals_are_exact_under_contention() {
    let repo = Repository::new();
    let mut ids = Vec::new();
    for s in 0..4u8 {
        let stats = RepoStats {
            input_bytes: 4096,
            output_bytes: 100,
            job_time_s: 1.0,
            ..Default::default()
        };
        match repo.insert(StoredFile::new(format!("/r/{s}"), plan_for(s, 3)), stats) {
            restore_core::repository::InsertOutcome::Inserted(id) => ids.push(id),
            restore_core::repository::InsertOutcome::Duplicate(_) => unreachable!(),
        }
    }
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let repo = &repo;
            let ids = &ids;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread across entries; ticks strictly positive.
                    let id = ids[((t + i) % ids.len() as u64) as usize];
                    repo.note_use(id, t * PER_THREAD + i + 1);
                }
            });
        }
        // A ninth thread refreshes duplicates concurrently: the refresh
        // swaps the entry object but must keep the shared counters.
        let repo = &repo;
        scope.spawn(move || {
            for round in 0..200u64 {
                for s in 0..4u8 {
                    let stats = RepoStats {
                        input_bytes: 4096,
                        output_bytes: 100 + round,
                        job_time_s: 1.0,
                        ..Default::default()
                    };
                    let out =
                        repo.insert(StoredFile::new(format!("/r/{s}"), plan_for(s, 3)), stats);
                    assert!(matches!(out, restore_core::repository::InsertOutcome::Duplicate(_)));
                }
            }
        });
    });
    let total: u64 = repo.snapshot().entries().iter().map(|e| e.use_count()).sum();
    assert_eq!(total, THREADS * PER_THREAD, "no increment may be lost");
    let max_last: u64 = repo.snapshot().entries().iter().map(|e| e.last_used()).max().unwrap();
    assert_eq!(max_last, THREADS * PER_THREAD, "last_used keeps the max tick");
}
