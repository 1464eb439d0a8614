//! Driver-side observability: the session's metric registry, the
//! per-stage span histograms, and the reuse-decision trace ring.
//!
//! Everything here is recorded through `restore-telemetry` primitives
//! whose hot-path record is a relaxed `fetch_add` — instrumenting the
//! §3 match loop does not add a lock, a CAS loop, or an RCU publish to
//! it (`prop_concurrent_repo` and the driver telemetry test pin the
//! zero-publish invariant with telemetry enabled).

use crate::matching::IterationTimes;
use crate::selector::EVICTION_REASONS;
use restore_mapreduce::PhaseTimes;
use restore_telemetry::{Counter, Histogram, Registry, TraceRing};
use std::fmt;
use std::sync::Arc;

/// Events the reuse-decision trace keeps per session (oldest evicted
/// first). A workflow contributes one event per candidate considered,
/// so this comfortably holds the recent history `explain_last_as` and
/// `RestoreService::trace` inspect.
const TRACE_CAPACITY: usize = 4096;

/// Why the §3 match loop accepted or rejected one repository candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum ReuseDecision {
    /// The entry matched and the rewrite made structural progress.
    Matched { entry_id: u64, reused_path: String },
    /// The entry's tip signature matched but the pairwise §3 traversal
    /// failed — a signature collision.
    CandidateFailedTraversal { entry_id: u64 },
    /// The entry vanished between match and pin — a concurrent §5
    /// sweep evicted it; the loop unpinned and rescanned.
    RejectedPinRevalidation { entry_id: u64 },
    /// No candidate survived: every input-plan node signature missed
    /// the inverted index, hit only entries whose rewrite would change
    /// nothing (they match lineage the plan already loads), or failed
    /// verification.
    NoCandidates { signatures_probed: usize },
}

impl fmt::Display for ReuseDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseDecision::Matched { entry_id, reused_path } => {
                write!(f, "matched entry #{entry_id} -> {reused_path}")
            }
            ReuseDecision::CandidateFailedTraversal { entry_id } => {
                write!(f, "candidate #{entry_id}: tip signature hit, traversal failed")
            }
            ReuseDecision::RejectedPinRevalidation { entry_id } => {
                write!(f, "candidate #{entry_id}: rejected, evicted before pin revalidation")
            }
            ReuseDecision::NoCandidates { signatures_probed } => {
                write!(f, "no candidates ({signatures_probed} tip signature(s) probed)")
            }
        }
    }
}

/// One reuse-decision trace event: which workflow (tick), which
/// namespace, which job, and what was decided.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseTraceEvent {
    /// The workflow's tick (the driver's query clock).
    pub tick: u64,
    /// Tenant key (empty string = the default namespace).
    pub tenant: String,
    /// Workflow job index the decision was made for.
    pub job: usize,
    pub decision: ReuseDecision,
}

impl fmt::Display for ReuseTraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {}: {}", self.job, self.decision)
    }
}

/// Span histograms of the driver's execute pipeline, one series per
/// stage so the exposition shows where wall-time goes.
pub(crate) struct StageHists {
    /// Per workflow: query text → compiled workflow.
    pub compile: Histogram,
    /// Per workflow: the pre-match staleness pass (`ReStore::sweep`).
    pub sweep: Histogram,
    /// Per wave: the prepare step (match + rewrite + enumerate + job specs).
    pub prepare: Histogram,
    /// Per job: the whole match step — the memo lookup, the loop on a
    /// miss, and the pins, reuse accounting and trace of either.
    pub match_loop: Histogram,
    /// Per rewrite a run of the loop applied: splice + collapse, as
    /// `matching::match_plan` timed it. A memo hit replays rewrites and
    /// records none.
    pub rewrite: Histogram,
    /// Per wave: the run step (engine execution).
    pub execute: Histogram,
    /// Per wave: the register step (registration batch + publish).
    pub register: Histogram,
    /// Per canonicalization (once per compile that misses or bypasses
    /// the template memo — a hit runs no analyzer — and once per job
    /// plan an alias rewrote): analyzer pass latency summed over that call's
    /// fixpoint sweeps, one series per pass in
    /// [`restore_dataflow::analyzer::PASS_NAMES`] order.
    pub canon: [Histogram; 3],
    /// Per executed job: its measured phases (`JobResult::phases`), one
    /// series per phase in [`JOB_PHASES`] order. A job answered from the
    /// repository runs no phase and records nothing.
    pub job_phase: [Histogram; 6],
}

/// The `phase` labels of `restore_job_phase_seconds`, in the order
/// [`Obs::record_phases`] records them.
pub(crate) const JOB_PHASES: [&str; 6] =
    ["map_wall", "map_decode", "shuffle_decode", "sort", "reduce", "commit_wall"];

/// Span histograms inside the match step. `snapshot_load` and
/// `index_probe` record runs of the §3 loop only — a memo miss, a dry
/// run, a run with records held stale — from the timings the pure
/// `matching::match_plan` returns, so a memo hit adds to neither;
/// `pin_revalidate` records every real execution's pin step, hit or
/// miss.
pub(crate) struct MatchStageHists {
    /// Lineage expansion through the records + repository snapshot load.
    pub snapshot_load: Histogram,
    /// One probe of the inverted tip-signature index: node signatures
    /// of the expanded plan, index lookups, and pairwise verification
    /// of the hits. (Until the index became the match path this series
    /// timed the sequential scan under the same name.)
    pub index_probe: Histogram,
    /// Pins of the matched entries + one fresh-snapshot revalidation.
    pub pin_revalidate: Histogram,
}

/// The driver's observability state: one per [`crate::ReStore`].
pub(crate) struct Obs {
    pub registry: Arc<Registry>,
    pub stage: StageHists,
    pub match_stage: MatchStageHists,
    pub trace: TraceRing<ReuseTraceEvent>,
    /// Registrations refused because the stored output is text holding a
    /// value that would read back retyped
    /// (`restore_candidates_vetoed_total{reason="retypes"}`).
    pub vetoed_retypes: Counter,
    /// `restore_entries_evicted_total{reason}`, by `selector::Eviction`.
    pub evicted: [Counter; 4],
    /// `restore_compile_templates_total{outcome}`: what each
    /// `compile_as` did with its template.
    pub templates: TemplateOutcomes,
    /// `restore_match_memo_total{outcome}`: what each real execution's
    /// match step found in its snapshot's memo (see
    /// `matching::MatchMemo`).
    pub memo: MemoOutcomes,
}

/// Outcomes of the match step's memo lookup. A dry run, and a run with
/// records held stale, neither read nor fill the memo and count in
/// neither.
pub(crate) struct MemoOutcomes {
    /// The snapshot held the outcome: it was replayed.
    pub hit: Counter,
    /// The loop ran, and its outcome was kept.
    pub miss: Counter,
}

/// Outcomes of `ReStore::compile_as`'s template lookup.
pub(crate) struct TemplateOutcomes {
    /// The template was held: only binding ran.
    pub hit: Counter,
    /// The template was compiled and kept.
    pub miss: Counter,
    /// The text has no template (it does not lex, holds a mark, or
    /// names a temporary), or its marked text does not compile: it was
    /// compiled directly.
    pub bypass: Counter,
}

impl Obs {
    pub(crate) fn new() -> Self {
        let registry = Arc::new(Registry::new());
        // A family of histograms, (name, help, label), and one series of
        // it per value of the label.
        let hist = |[name, help, label]: [&str; 3], value: &str| {
            registry.histogram(name, help, &[(label, value)], 1e-9)
        };
        let stage = ["restore_stage_seconds", "Driver pipeline stage latency", "stage"];
        let matching = ["restore_match_stage_seconds", "Match-loop stage latency", "stage"];
        let canon =
            ["restore_canon_stage_seconds", "Analyzer canonicalization pass latency", "pass"];
        let phase = ["restore_job_phase_seconds", "Measured phase time per executed job", "phase"];
        // The same for counters.
        let counter = |[name, help, label]: [&str; 3], value: &str| {
            registry.counter(name, help, &[(label, value)])
        };
        let vetoed = [
            "restore_candidates_vetoed_total",
            "Stored outputs not registered, by reason",
            "reason",
        ];
        let evicted =
            ["restore_entries_evicted_total", "Repository entries evicted, by reason", "reason"];
        let templates = [
            "restore_compile_templates_total",
            "compile_as template lookups, by outcome",
            "outcome",
        ];
        let memo = ["restore_match_memo_total", "Match-step memo lookups, by outcome", "outcome"];
        Obs {
            stage: StageHists {
                compile: hist(stage, "compile"),
                sweep: hist(stage, "sweep"),
                prepare: hist(stage, "prepare"),
                match_loop: hist(stage, "match"),
                rewrite: hist(stage, "rewrite"),
                execute: hist(stage, "execute"),
                register: hist(stage, "register"),
                canon: restore_dataflow::analyzer::PASS_NAMES.map(|pass| hist(canon, pass)),
                job_phase: JOB_PHASES.map(|p| hist(phase, p)),
            },
            match_stage: MatchStageHists {
                snapshot_load: hist(matching, "snapshot_load"),
                index_probe: hist(matching, "index_probe"),
                pin_revalidate: hist(matching, "pin_revalidate"),
            },
            trace: TraceRing::new(TRACE_CAPACITY),
            vetoed_retypes: counter(vetoed, "retypes"),
            evicted: EVICTION_REASONS.map(|reason| counter(evicted, reason)),
            templates: TemplateOutcomes {
                hit: counter(templates, "hit"),
                miss: counter(templates, "miss"),
                bypass: counter(templates, "bypass"),
            },
            memo: MemoOutcomes { hit: counter(memo, "hit"), miss: counter(memo, "miss") },
            registry,
        }
    }

    /// Record one executed job's measured phases.
    pub(crate) fn record_phases(&self, phases: &PhaseTimes) {
        let PhaseTimes { map_wall, map_decode, shuffle_decode, sort, reduce, commit_wall } =
            *phases;
        let times = [map_wall, map_decode, shuffle_decode, sort, reduce, commit_wall];
        for (hist, d) in self.stage.job_phase.iter().zip(times) {
            hist.record(d.as_nanos() as u64);
        }
    }

    /// Record one canonicalization's per-pass wall time, summed over its
    /// sweeps, as returned by
    /// [`restore_dataflow::analyzer::canonicalize_timed`].
    pub(crate) fn record_canon(&self, timings: &[(&'static str, std::time::Duration); 3]) {
        for (hist, (_, d)) in self.stage.canon.iter().zip(timings) {
            hist.record(d.as_nanos() as u64);
        }
    }

    /// Record one run of the §3 loop, as `matching::match_plan` timed it.
    pub(crate) fn record_match(&self, times: &[IterationTimes]) {
        for t in times {
            self.match_stage.snapshot_load.record(t.snapshot_load);
            self.match_stage.index_probe.record(t.index_probe);
            if let Some(rewrite) = t.rewrite {
                self.stage.rewrite.record(rewrite);
            }
        }
    }
}

/// Per-namespace match metrics, labeled by tenant. A namespace created
/// through the driver registers against the session registry; detached
/// namespaces (the empty placeholder `space_snapshot` hands out for
/// unknown tenants) carry unregistered handles that record into the
/// void.
#[derive(Default)]
pub(crate) struct SpaceMetrics {
    /// Match loops that applied at least one rewrite.
    pub hits: Counter,
    /// Match loops that applied none.
    pub misses: Counter,
    /// Full match-loop latency for this namespace.
    pub latency: Histogram,
}

impl fmt::Debug for SpaceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpaceMetrics")
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish_non_exhaustive()
    }
}

impl SpaceMetrics {
    pub(crate) fn registered(registry: &Registry, tenant: &str) -> Self {
        SpaceMetrics {
            hits: registry.counter(
                "restore_match_hits_total",
                "Match loops that applied at least one rewrite",
                &[("tenant", tenant)],
            ),
            misses: registry.counter(
                "restore_match_misses_total",
                "Match loops that applied no rewrite",
                &[("tenant", tenant)],
            ),
            latency: registry.histogram(
                "restore_match_seconds",
                "Full match-loop latency per job",
                &[("tenant", tenant)],
                1e-9,
            ),
        }
    }
}
