//! Property-based tests of the matcher, rewriter, and plan serialization
//! over randomly generated physical plans.

use proptest::prelude::*;
use restore_core::matcher::{pairwise_plan_traversal, subsumes};
use restore_core::plan_text::{decode_plan, encode_plan};
use restore_dataflow::expr::Expr;
use restore_dataflow::physical::{NodeId, PhysicalOp, PhysicalPlan};

/// Strategy: a random linear-ish pipeline plan with occasional joins.
/// Returns (plan, interesting ops = everything except Load/Store).
fn arb_plan() -> impl Strategy<Value = PhysicalPlan> {
    // A recipe: for each step, an op choice (0..5) and parameters.
    (
        prop::collection::vec((0u8..6, 0usize..4, any::<i64>()), 1..8),
        prop::sample::select(vec!["/data/a", "/data/b", "/data/c"]),
        prop::option::of(prop::sample::select(vec!["/data/x", "/data/y"])),
    )
        .prop_map(|(steps, base, join_with)| {
            let mut p = PhysicalPlan::new();
            let mut cur = p.add(PhysicalOp::Load { path: base.to_string() }, vec![]);
            for (kind, col, lit) in steps {
                cur = match kind {
                    0 => p.add(PhysicalOp::Project { cols: vec![0, col] }, vec![cur]),
                    1 => p.add(PhysicalOp::Filter { pred: Expr::col_eq(col, lit) }, vec![cur]),
                    2 => p.add(PhysicalOp::Group { keys: vec![col] }, vec![cur]),
                    3 => p.add(PhysicalOp::Distinct, vec![cur]),
                    4 => p.add(
                        PhysicalOp::MapExpr { exprs: vec![Expr::Col(0), Expr::Lit(lit.into())] },
                        vec![cur],
                    ),
                    _ => p.add(PhysicalOp::Limit { n: (lit.unsigned_abs() % 100) + 1 }, vec![cur]),
                };
            }
            if let Some(other) = join_with {
                let l2 = p.add(PhysicalOp::Load { path: other.to_string() }, vec![]);
                cur = p.add(PhysicalOp::Join { keys: vec![vec![0], vec![0]] }, vec![cur, l2]);
            }
            p.add(PhysicalOp::Store { path: "/out".to_string() }, vec![cur]);
            p
        })
}

/// [`arb_plan`] dressed in the shared-subplan shapes real plans carry:
/// a self-union over a duplicate edge (`Union(x, x)`), the same union
/// spelled through the `Split` tee CSE's duplicate-edge guard inserts
/// (`Union(x, Split(x))`), and a sub-job enumerator's injected
/// `Split` + side `Store` after a random operator. The matcher walks
/// through every one of these tees; the index must too.
fn arb_teed_plan() -> impl Strategy<Value = PhysicalPlan> {
    (arb_plan(), 0u8..3, prop::option::of(any::<prop::sample::Index>())).prop_map(
        |(mut p, union, tee_at)| {
            if let Some(pick) = tee_at {
                let nodes = op_nodes(&p);
                let at = nodes[pick.index(nodes.len())];
                let consumers = p.consumers(at);
                let tee = p.add(PhysicalOp::Split, vec![at]);
                p.add(PhysicalOp::Store { path: "/side".to_string() }, vec![tee]);
                for c in consumers {
                    for input in &mut p.node_mut(c).inputs {
                        if *input == at {
                            *input = tee;
                        }
                    }
                }
            }
            if union > 0 {
                let store = p
                    .ids()
                    .find(|&s| matches!(p.op(s), PhysicalOp::Store { path } if path == "/out"));
                let store = store.expect("main store");
                let x = p.inputs(store)[0];
                let second = if union == 1 { x } else { p.add(PhysicalOp::Split, vec![x]) };
                let u = p.add(PhysicalOp::Union, vec![x, second]);
                p.node_mut(store).inputs[0] = u;
            }
            p
        },
    )
}

/// Non-plumbing nodes of a plan.
fn op_nodes(p: &PhysicalPlan) -> Vec<NodeId> {
    p.ids()
        .filter(|&id| {
            !matches!(
                p.op(id),
                PhysicalOp::Load { .. } | PhysicalOp::Store { .. } | PhysicalOp::Split
            )
        })
        .collect()
}

proptest! {
    /// Matching is reflexive: every plan matches itself, at its own tip.
    #[test]
    fn matching_is_reflexive(plan in arb_plan()) {
        let m = pairwise_plan_traversal(&plan, &plan);
        prop_assert!(m.is_some(), "plan must match itself:\n{}", plan.explain());
        // And subsumption is reflexive.
        prop_assert!(subsumes(&plan, &plan));
    }

    /// Every prefix of a plan (a candidate sub-job) is contained in it.
    #[test]
    fn prefixes_always_match(plan in arb_plan(), pick in any::<prop::sample::Index>()) {
        let nodes = op_nodes(&plan);
        let n = nodes[pick.index(nodes.len())];
        let prefix = plan.prefix_plan(n, "/repo/x");
        let m = pairwise_plan_traversal(&prefix, &plan);
        prop_assert!(
            m.is_some(),
            "prefix at {n:?} must match\nprefix:\n{}\nplan:\n{}",
            prefix.explain(),
            plan.explain()
        );
        // The prefix is subsumed by the full plan, never vice versa
        // (unless they are the same plan up to the Store).
        prop_assert!(subsumes(&plan, &prefix));
    }

    /// Rewriting with a matched prefix yields a plan that loads the
    /// stored path and no longer contains the prefix (next scan finds no
    /// second occurrence in linear pipelines).
    #[test]
    fn rewrite_splices_load(plan in arb_plan(), pick in any::<prop::sample::Index>()) {
        let nodes = op_nodes(&plan);
        let n = nodes[pick.index(nodes.len())];
        let prefix = plan.prefix_plan(n, "/repo/x");
        let m = pairwise_plan_traversal(&prefix, &plan).unwrap();
        let mut rewritten = plan.clone();
        restore_core::rewriter::rewrite(&mut rewritten, &m, "/repo/x");
        // The stored path is now loaded.
        let loads_repo = rewritten.loads().iter().any(|&l| {
            matches!(rewritten.op(l), PhysicalOp::Load { path } if path == "/repo/x")
        });
        prop_assert!(loads_repo, "rewritten plan must load the stored output");
        // Same number of Stores (outputs unchanged).
        prop_assert_eq!(rewritten.stores().len(), plan.stores().len());
    }

    /// Plan serialization round-trips: signature-identical plans.
    #[test]
    fn plan_text_round_trips(plan in arb_plan()) {
        let text = encode_plan(&plan);
        let back = decode_plan(&text).unwrap();
        prop_assert_eq!(back.signature(), plan.signature(), "text:\n{}", text);
        prop_assert_eq!(back.len(), plan.len());
    }

    /// The tip-signature index (the match path) and the paper's
    /// sequential scan (the oracle) return the same entry at the same
    /// site — or the same miss — on random repositories and queries
    /// that carry `Split` tees and duplicate edges, with and without
    /// vetoed sites.
    #[test]
    fn index_agrees_with_scan(
        entries in prop::collection::vec(arb_teed_plan(), 1..8),
        query in arb_teed_plan(),
        pick in any::<prop::sample::Index>(),
        resubmit in prop::option::of(any::<prop::sample::Index>()),
        vetoed in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
    ) {
        use restore_core::{RepoEntry, RepoStats, Repository, StoredFile};
        // Half the time the query is one of the plans the repository was
        // filled from, so a match (not just an agreed miss) is on offer.
        let query = resubmit.map_or(query, |r| entries[r.index(entries.len())].clone());
        let repo = Repository::new();
        for (i, plan) in entries.iter().enumerate() {
            let stats = RepoStats {
                input_bytes: 100 + i as u64,
                output_bytes: 10,
                job_time_s: i as f64,
                ..Default::default()
            };
            // Prefixes of random plans are the realistic sub-job
            // shapes (`prefix_plan` elides tees, so the stored side
            // says `Union(x, x)` where the query says
            // `Union(x, Split(x))`); a single-Store plan is also
            // stored whole, tees and all.
            let nodes = op_nodes(plan);
            let n = nodes[pick.index(nodes.len())];
            repo.insert(StoredFile::new(format!("/r/{i}"), plan.prefix_plan(n, &format!("/r/{i}"))), stats.clone());
            if plan.stores().len() == 1 {
                repo.insert(StoredFile::new(format!("/r/w{i}"), plan.clone()), stats);
            }
        }
        let view = repo.snapshot();
        let scan = view.find_first_match_scan(&query, |_, _| false).map(|(id, m)| (id, m.tip));
        let mut probe = restore_core::MatchProbe::default();
        let indexed =
            view.find_first_match_probed(&query, |_, _| false, &mut probe).map(|(id, m)| (id, m.tip));
        prop_assert_eq!(scan, indexed, "query:\n{}", query.explain());

        let veto: Vec<NodeId> =
            vetoed.iter().map(|v| NodeId(v.index(query.len()) as u32)).collect();
        let skip = |_: &RepoEntry, site: NodeId| veto.contains(&site);
        let scan = view.find_first_match_scan(&query, skip).map(|(id, m)| (id, m.tip));
        let mut probe = restore_core::MatchProbe::default();
        let indexed =
            view.find_first_match_probed(&query, skip, &mut probe).map(|(id, m)| (id, m.tip));
        prop_assert_eq!(scan, indexed, "vetoed {:?}", veto);
        prop_assert!(scan.is_none_or(|(_, tip)| !veto.contains(&tip)));
    }

    /// A `Split` tee never changes a signature: the teed plan signs as
    /// its tee-free prefix does, node for node.
    #[test]
    fn signatures_see_through_tees(plan in arb_teed_plan(), pick in any::<prop::sample::Index>()) {
        let nodes = op_nodes(&plan);
        let n = nodes[pick.index(nodes.len())];
        let prefix = plan.prefix_plan(n, "/repo/x");
        let tip = prefix.inputs(prefix.stores()[0])[0];
        prop_assert_eq!(prefix.node_signature(tip), plan.node_signatures()[n.index()]);
    }

    /// Signatures are structural: a plan equals its own re-built copy and
    /// differs from a plan with one parameter changed.
    #[test]
    fn signatures_detect_single_param_change(plan in arb_plan()) {
        let mut altered = plan.clone();
        // Find a Filter/Project to tweak; skip plans without one.
        let target = altered.ids().find(|&id| {
            matches!(altered.op(id), PhysicalOp::Project { .. })
        });
        if let Some(t) = target {
            if let PhysicalOp::Project { cols } = altered.op(t).clone() {
                let mut cols = cols;
                cols.push(99);
                altered.node_mut(t).op = PhysicalOp::Project { cols };
                prop_assert_ne!(altered.signature(), plan.signature());
            }
        }
    }
}
