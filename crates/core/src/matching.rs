//! The §3 match as one pure function (Algorithm 1): a job's plan and one
//! repository snapshot in, the rewritten plan, the entries it reuses and
//! the reuse decisions out. [`match_plan`] takes no session, registry,
//! DFS or tick, so everything it computes comes from its arguments,
//! which is what lets a snapshot memoize it ([`MatchMemo`],
//! `RepoSnapshot::matches`). The loop's timings are returned beside the
//! outcome, never kept in the memo; the driver's match step
//! (`ReStore::match_loop`) records them, and pins, revalidates, counts
//! and traces the outcome it is given.

use crate::obs::ReuseDecision;
use crate::provenance;
use crate::rcu::Rcu;
use crate::repository::{MatchProbe, RepoEntry, RepoSnapshot};
use crate::rewriter::{self, identity_copy};
use restore_dataflow::physical::{PhysicalOp, PhysicalPlan};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Outcomes one snapshot keeps before it starts over, by the same rule
/// as the driver's template memo: a served workload has a few dozen
/// distinct job plans.
const MATCH_MEMO_CAPACITY: usize = 256;

/// What one run of the §3 loop computed for one plan against one
/// snapshot. It reads the plan and the snapshot only, so a plan equal to
/// `input` but for its Store paths gets the same outcome from the same
/// snapshot.
#[derive(Debug)]
pub(crate) struct Matched {
    /// The plan the loop was given.
    pub input: PhysicalPlan,
    /// The plan the loop left, with `input`'s Store paths; `None` when
    /// no rewrite applied.
    pub plan: Option<PhysicalPlan>,
    /// The entry of each applied rewrite, in order, as the snapshot
    /// holds it.
    pub entries: Vec<Arc<RepoEntry>>,
    /// The loop's reuse decisions, in order.
    pub decisions: Vec<ReuseDecision>,
}

/// One iteration of the §3 loop, in nanoseconds: its lineage expansion,
/// its index probe, and its rewrite when the probe found one.
#[derive(Debug)]
pub(crate) struct IterationTimes {
    pub snapshot_load: u64,
    pub index_probe: u64,
    pub rewrite: Option<u64>,
}

/// How the match step came by its outcome.
#[derive(Debug)]
pub(crate) enum Source {
    /// The snapshot's memo held it: the loop did not run.
    Hit,
    /// The loop ran, and its outcome was offered to the memo.
    Miss(Vec<IterationTimes>),
    /// The loop ran, and the memo was neither read nor filled.
    Bypass(Vec<IterationTimes>),
}

/// The match step's outcome for `plan` against `snap`, from the
/// snapshot's memo when it holds one. Every publish starts a snapshot
/// with an empty memo, and the staleness pass publishes on any staleness
/// before a match, so a memoized outcome is what the loop would compute
/// again. Only a real execution (`memoize`: it has pins to revalidate a
/// replay with) with nothing held `stale` reads and fills the memo; a dry
/// run, or a run that holds records stale and so computes another
/// outcome, runs the loop past it.
pub(crate) fn match_memoized(
    snap: &RepoSnapshot,
    plan: &PhysicalPlan,
    stale: &HashSet<String>,
    memoize: bool,
) -> (Arc<Matched>, Source) {
    let signature = (memoize && stale.is_empty()).then(|| plan.signature());
    if let Some(hit) = signature.and_then(|sig| snap.matches.get(sig, plan)) {
        return (hit, Source::Hit);
    }
    let (matched, times) = match_plan(snap, plan, stale);
    let matched = Arc::new(matched);
    let Some(signature) = signature else { return (matched, Source::Bypass(times)) };
    snap.matches.insert(signature, matched.clone());
    (matched, Source::Miss(times))
}

/// The §3 loop against one snapshot: repeatedly lineage-expand the
/// plan, take the first repository match whose rewrite changes it, and
/// rewrite — one probe per applied rewrite, plus the probe that comes
/// back empty. Sites whose rewrite would only collapse back into lineage
/// the plan already Loads are vetoed at probe time
/// ([`crate::provenance::ExpandedPlan::collapses_back`]), and a plan
/// reduced to a `Load → Store` copy is answered in full, so the loop
/// stops there. The records of the paths in `stale` are never expanded
/// or matched. Returns the outcome and each iteration's timings.
pub(crate) fn match_plan(
    snap: &RepoSnapshot,
    input: &PhysicalPlan,
    stale: &HashSet<String>,
) -> (Matched, Vec<IterationTimes>) {
    let mut plan = Cow::Borrowed(input);
    let (mut entries, mut decisions, mut times) = (Vec::new(), Vec::new(), Vec::new());
    let live = |path: &str| snap.file(path).filter(|_| !stale.contains(path));
    // Every applied rewrite changes the plan (an operator becomes a Load,
    // or a Load moves to the entry that stores its data), so the loop
    // terminates on its own; the budget is the belt, and so is `last`: a
    // rewrite the probe-time veto should have stopped would be found
    // again at the same (entry, site), and is then checked for a changed
    // plan before it is applied a second time.
    let budget = 2 * input.len() + 4 + 2 * snap.len();
    let mut last = None;
    // One probe for the whole loop, reset per iteration: its candidate
    // buffer is reused instead of reallocated.
    let mut probe = MatchProbe::default();
    for _ in 0..budget {
        let expand_t0 = Instant::now();
        let expanded = provenance::expand(&plan, |path| live(path).map(|f| &f.plan));
        let snapshot_load = expand_t0.elapsed().as_nanos() as u64;
        probe.reset();
        let found = snap.find_first_match_probed(
            &expanded.plan,
            |e, site| stale.contains(&e.file.path) || expanded.collapses_back(site, &e.file.path),
            &mut probe,
        );
        let mut iteration =
            IterationTimes { snapshot_load, index_probe: probe.probe_ns, rewrite: None };
        for c in probe.candidates.iter().filter(|c| !c.matched) {
            decisions.push(ReuseDecision::CandidateFailedTraversal { entry_id: c.entry_id });
        }
        let Some((entry_id, m)) = found else {
            decisions
                .push(ReuseDecision::NoCandidates { signatures_probed: probe.signatures_probed });
            times.push(iteration);
            break;
        };
        let entry = snap.get(entry_id).expect("matched entry");
        let reused_path = &entry.file.path;
        let before = cfg!(debug_assertions).then(|| plan.signature());
        let site = (entry_id, m.tip);
        // The same (entry, site) twice: keep the plan to put back if the
        // rewrite turns out not to change it.
        let kept = (last.replace(site) == Some(site)).then(|| plan.clone().into_owned());
        let rewrite_t0 = Instant::now();
        if let Cow::Borrowed(_) = expanded.plan {
            // Nothing expanded: the plan is its own expansion, so rewrite
            // it where it is.
            drop(expanded);
            rewriter::rewrite(plan.to_mut(), &m, reused_path);
        } else {
            plan = Cow::Owned(expanded.rewrite(&m, reused_path));
        }
        iteration.rewrite = Some(rewrite_t0.elapsed().as_nanos() as u64);
        times.push(iteration);
        debug_assert_ne!(Some(plan.signature()), before, "the probe let a no-op by");
        if let Some(kept) = kept.filter(|kept| kept.signature() == plan.signature()) {
            plan = Cow::Owned(kept);
            break;
        }
        decisions.push(ReuseDecision::Matched { entry_id, reused_path: reused_path.clone() });
        entries.push(entry.clone());
        if identity_copy(&plan).is_some() {
            break; // the whole job is answered; nothing left to match
        }
    }
    let plan = (!entries.is_empty()).then(|| plan.into_owned());
    (Matched { input: input.clone(), plan, entries, decisions }, times)
}

impl Matched {
    /// Is `plan` the plan this outcome was computed for, Store paths
    /// aside?
    fn fits(&self, plan: &PhysicalPlan) -> bool {
        let input = &self.input;
        input.len() == plan.len()
            && input.ids().all(|id| {
                input.inputs(id) == plan.inputs(id)
                    && match (input.op(id), plan.op(id)) {
                        (PhysicalOp::Store { .. }, PhysicalOp::Store { .. }) => true,
                        (a, b) => a == b,
                    }
            })
    }

    /// Can a fitting plan take the outcome's plan by Store path? Every
    /// Store the loop left is one of `input`'s (a rewrite adds Loads,
    /// and an expansion inlines a plan without its Store), and `input`
    /// stores each path once.
    fn replayable(&self) -> bool {
        let stores: Vec<&str> =
            self.input.stores().into_iter().map(|s| self.input.path(s)).collect();
        let distinct: HashSet<&str> = stores.iter().copied().collect();
        distinct.len() == stores.len()
            && self
                .plan
                .iter()
                .all(|out| out.stores().into_iter().all(|s| distinct.contains(out.path(s))))
    }

    /// Where `plan`, which fits, stores what `input` stores at `path`.
    fn own_path<'p>(&self, plan: &'p PhysicalPlan, path: &str) -> &'p str {
        let store = self
            .input
            .ids()
            .find(|&s| matches!(self.input.op(s), PhysicalOp::Store { path: p } if p == path))
            .expect("a memoized outcome stores only at its input's Store paths");
        plan.path(store)
    }

    /// When the loop reduced the plan to a `Load → Store` copy: the file
    /// it copies, and where `plan`, which fits, stores the copy.
    pub(crate) fn copy<'p>(&self, plan: &'p PhysicalPlan) -> Option<(&str, &'p str)> {
        let (src, dst) = identity_copy(self.plan.as_ref()?)?;
        Some((src, self.own_path(plan, dst)))
    }

    /// Make `plan`, which fits, the plan the loop left, each Store
    /// writing where `plan`'s own Store at the same place in `input`
    /// writes.
    pub(crate) fn replay(&self, plan: &mut PhysicalPlan) {
        let Some(out) = &self.plan else { return };
        let mut next = PhysicalPlan::with_capacity(out.len());
        for id in out.ids() {
            let op = match out.op(id) {
                PhysicalOp::Store { path } => {
                    PhysicalOp::Store { path: self.own_path(plan, path).to_string() }
                }
                op => op.clone(),
            };
            next.add(op, out.inputs(id).to_vec());
        }
        *plan = next;
    }
}

/// The outcomes of the §3 loop run against one snapshot, by the
/// signature of the plan matched (Store paths excluded). Cloning forgets
/// them, as it forgets `repository::PresentAt`: every publish starts a
/// snapshot with none. RCU-published like the driver's templates: a hit
/// is a snapshot load; a miss publishes a new map, an empty one once
/// [`MATCH_MEMO_CAPACITY`] outcomes are held.
#[derive(Debug, Default)]
pub(crate) struct MatchMemo(Rcu<HashMap<u64, Arc<Matched>>>);

impl Clone for MatchMemo {
    fn clone(&self) -> Self {
        MatchMemo::default()
    }
}

impl MatchMemo {
    /// The outcome memoized for `plan`, whose signature is `signature`.
    pub(crate) fn get(&self, signature: u64, plan: &PhysicalPlan) -> Option<Arc<Matched>> {
        self.0.load().get(&signature).filter(|m| m.fits(plan)).cloned()
    }

    /// Keep `matched` for plans signed `signature`, if it can be
    /// replayed.
    pub(crate) fn insert(&self, signature: u64, matched: Arc<Matched>) {
        if !matched.replayable() {
            return;
        }
        self.0.update(|map| {
            if map.len() >= MATCH_MEMO_CAPACITY {
                *map = HashMap::new();
            }
            map.insert(signature, matched);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::{RepoStats, Repository, StoredFile};

    /// `Load /users`, then each of `ops` in a chain, stored at `out`.
    fn chain(ops: &[PhysicalOp], out: &str) -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let mut tip = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        for op in ops {
            tip = p.add(op.clone(), vec![tip]);
        }
        p.add(PhysicalOp::Store { path: out.into() }, vec![tip]);
        p
    }

    fn project() -> PhysicalOp {
        PhysicalOp::Project { cols: vec![0] }
    }

    fn group() -> PhysicalOp {
        PhysicalOp::Group { keys: vec![0] }
    }

    /// `/r/a` stores the projection, and `/r/b` its grouping read
    /// through `/r/a`'s record.
    fn repository() -> Repository {
        let repo = Repository::new();
        repo.insert(StoredFile::new("/r/a", chain(&[project()], "/r/a")), RepoStats::default());
        repo.insert(
            StoredFile::new("/r/b", chain(&[project(), group()], "/r/b")),
            RepoStats::default(),
        );
        repo
    }

    fn paths(m: &Matched) -> Vec<&str> {
        m.entries.iter().map(|e| e.file.path.as_str()).collect()
    }

    #[test]
    fn an_outcome_replayed_onto_other_store_paths_is_the_loop_run_on_them() {
        let snap = repository().snapshot();
        let distinct = PhysicalOp::Distinct;
        for (ops, whole) in [(vec![project(), group(), distinct], false), (vec![project()], true)] {
            let (p, other) = (chain(&ops, "/out/p"), chain(&ops, "/out/other"));
            let (m, _) = match_plan(&snap, &p, &HashSet::new());
            let (want, _) = match_plan(&snap, &other, &HashSet::new());
            assert!(m.fits(&other) && m.replayable() && !m.entries.is_empty());
            let mut replayed = other.clone();
            m.replay(&mut replayed);
            assert_eq!(Some(&replayed), want.plan.as_ref());
            assert_eq!(paths(&m), paths(&want));
            assert_eq!(m.decisions, want.decisions);
            let want_copy = want.plan.as_ref().and_then(|plan| identity_copy(plan));
            assert_eq!(m.copy(&other), want_copy);
            assert_eq!(want_copy.is_some(), whole, "{}", replayed.explain());
        }
    }

    #[test]
    fn a_real_run_reads_the_memo_across_store_paths_and_a_dry_run_bypasses_it() {
        let snap = repository().snapshot();
        let p = chain(&[project(), group()], "/out/p");
        let (first, source) = match_memoized(&snap, &p, &HashSet::new(), true);
        assert!(matches!(source, Source::Miss(ref t) if !t.is_empty()), "{source:?}");
        let other = chain(&[project(), group()], "/out/other");
        let (again, source) = match_memoized(&snap, &other, &HashSet::new(), true);
        assert!(matches!(source, Source::Hit) && Arc::ptr_eq(&first, &again));
        assert_eq!(again.copy(&other), Some(("/r/b", "/out/other")));
        let dry = match_memoized(&snap, &other, &HashSet::new(), false);
        assert!(matches!(dry.1, Source::Bypass(_)) && !Arc::ptr_eq(&first, &dry.0));
    }

    #[test]
    fn a_path_held_stale_is_neither_expanded_nor_reused() {
        let snap = repository().snapshot();
        // Grouping `/r/a`'s file: expanded through its record, the plan
        // is `/r/b`'s, whole.
        let through_a = {
            let mut p = PhysicalPlan::new();
            let load = p.add(PhysicalOp::Load { path: "/r/a".into() }, vec![]);
            let g = p.add(group(), vec![load]);
            p.add(PhysicalOp::Store { path: "/out/g".into() }, vec![g]);
            p
        };
        let run = |plan: &PhysicalPlan, stale: &[&str]| {
            let stale = stale.iter().map(|s| s.to_string()).collect();
            let (m, times) = match_plan(&snap, plan, &stale);
            assert_eq!(times.iter().filter(|t| t.rewrite.is_some()).count(), m.entries.len());
            m
        };
        assert_eq!(paths(&run(&through_a, &[])), ["/r/b"]);
        let not_expanded = run(&through_a, &["/r/a"]);
        assert!(not_expanded.plan.is_none(), "{:?}", not_expanded.decisions);
        let direct = chain(&[project(), group()], "/out/g");
        assert_eq!(paths(&run(&direct, &[])), ["/r/b"]);
        assert_eq!(paths(&run(&direct, &["/r/b"])), ["/r/a"]);
        assert!(run(&direct, &["/r/a", "/r/b"]).plan.is_none());
        for m in [run(&through_a, &["/r/b"]), run(&direct, &["/r/b"])] {
            assert!(
                m.decisions.iter().all(|d| !matches!(d,
                    ReuseDecision::Matched { reused_path, .. } if reused_path == "/r/b")),
                "{:?}",
                m.decisions
            );
        }
    }

    #[test]
    fn an_outcome_that_stores_one_path_twice_is_not_memoized() {
        let snap = repository().snapshot();
        let mut p = chain(&[project(), group()], "/out/same");
        let load = p.add(PhysicalOp::Load { path: "/users".into() }, vec![]);
        let distinct = p.add(PhysicalOp::Distinct, vec![load]);
        p.add(PhysicalOp::Store { path: "/out/same".into() }, vec![distinct]);
        let (first, source) = match_memoized(&snap, &p, &HashSet::new(), true);
        assert!(matches!(source, Source::Miss(_)) && !first.entries.is_empty());
        assert!(!first.replayable());
        assert!(snap.matches.get(p.signature(), &p).is_none());
        let (_, source) = match_memoized(&snap, &p, &HashSet::new(), true);
        assert!(matches!(source, Source::Miss(_)), "{source:?}");
    }
}
