//! Cross-workflow scheduling state: the bounded queue, the in-flight
//! set, and the conflict-aware pick rule.

use crate::failure::TenantFailureState;
use crate::ticket::Ticket;
use restore_core::footprints_conflict;
use restore_dataflow::{CompiledWorkflow, WorkflowIoPaths};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// One queued submission.
pub(crate) struct QueuedWorkflow {
    pub id: u64,
    /// Tenant key: the tenant's name, `""` for the default namespace.
    pub key: String,
    pub wf: CompiledWorkflow,
    /// Built once at submission and then only moved: into the
    /// in-flight set at dispatch (a running entry's own copy is empty)
    /// and back into the entry if the attempt is retried.
    pub footprint: WorkflowIoPaths,
    pub ticket: Arc<Ticket>,
    /// When the submission entered the queue (feeds the queue-wait
    /// histogram at dispatch).
    pub enqueued: Instant,
    /// Execution attempts already consumed (0 = never dispatched; a
    /// retry re-enters the queue with this bumped).
    pub attempt: u32,
    /// Backoff deadline: the entry is not dispatchable before this
    /// instant (`None` = immediately runnable). A waiting entry still
    /// holds its place in its conflict group — conflicting submissions
    /// never overtake a backing-off retry.
    pub not_before: Option<Instant>,
    /// This submission is a half-open breaker probe; its outcome feeds
    /// the breaker verdict instead of the sliding window.
    pub probe: bool,
}

/// Per-tenant serving counters (the `""` key is the default namespace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TenantCounters {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
}

/// Everything the workers and the submit path share, under one mutex.
#[derive(Default)]
pub(crate) struct SchedulerState {
    pub queue: VecDeque<QueuedWorkflow>,
    /// Footprints of workflows currently executing, on a pool thread or
    /// on their waiting submitter's.
    pub inflight: Vec<(u64, WorkflowIoPaths)>,
    /// Running workflows that write a repository-registered path (see
    /// [`pick`]): while one is in flight, nothing else dispatches.
    pub inflight_barriers: usize,
    /// Queued + running workflows per tenant key.
    pub tenant_load: HashMap<String, usize>,
    pub per_tenant: HashMap<String, TenantCounters>,
    /// Per-tenant breaker + outcome window (created on first use for
    /// tenants whose policy enables the breaker).
    pub failure: HashMap<String, TenantFailureState>,
    pub paused: bool,
    pub shutdown: bool,
    /// Threads parked on the `idle` condvar (`drain`, a restore): a
    /// completion signals it only when this is non-zero.
    pub idle_waiters: usize,
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
}

/// Pick the queue index the next free worker should run, or `None` when
/// nothing is currently runnable.
///
/// The queue is scanned in FIFO order and the first entry whose
/// footprint conflicts with neither the in-flight workflows nor any
/// earlier-queued (still waiting) workflow is chosen. Skipped entries
/// add their footprints to the blocked set, so two conflicting
/// submissions always execute in submission order — the overlap is only
/// ever between workflows that cannot observe each other's files.
///
/// `is_barrier` flags workflows whose declared writes hit a
/// repository-registered path (`ReStore::serves_path`). Reuse rewriting
/// can splice Loads of registered paths into *any* workflow at run time
/// — reads the submit-time footprint cannot see — so a barrier workflow
/// orders against everything: it dispatches only when nothing is in
/// flight and nothing earlier waits, nothing overtakes it, and while it
/// runs nothing else starts.
/// A retry backing off (`not_before` in the future at `now`) is not
/// dispatchable, but it keeps its place: its footprint joins the
/// blocked set so conflicting later entries cannot overtake it, and a
/// backing-off barrier still freezes everything behind it.
///
/// Returns `(queue index, is_barrier)`; the caller must use the
/// returned verdict for its barrier accounting rather than re-probing
/// (the probe reads driver state that mutates concurrently, so a second
/// evaluation could disagree with the decision this dispatch was made
/// under).
pub(crate) fn pick(
    state: &SchedulerState,
    now: Instant,
    is_barrier: impl Fn(&QueuedWorkflow) -> bool,
) -> Option<(usize, bool)> {
    if state.inflight_barriers > 0 {
        return None;
    }
    let mut blocked: Vec<&WorkflowIoPaths> = state.inflight.iter().map(|(_, f)| f).collect();
    for (i, q) in state.queue.iter().enumerate() {
        let ready = q.not_before.is_none_or(|t| t <= now);
        if is_barrier(q) {
            return if ready && blocked.is_empty() { Some((i, true)) } else { None };
        }
        if ready && blocked.iter().all(|b| !footprints_conflict(b, &q.footprint)) {
            return Some((i, false));
        }
        blocked.push(&q.footprint);
    }
    None
}

/// The earliest backoff deadline of any queued entry still in the
/// future at `now` — how long a worker finding nothing runnable should
/// bound its wait, so a retry whose delay expires without other
/// activity still dispatches on time.
pub(crate) fn next_ready_deadline(state: &SchedulerState, now: Instant) -> Option<Instant> {
    state.queue.iter().filter_map(|q| q.not_before).filter(|t| *t > now).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_dataflow::WorkflowIoPaths;

    fn fp(reads: &[&str], writes: &[&str]) -> WorkflowIoPaths {
        WorkflowIoPaths {
            reads: reads.iter().map(|s| s.to_string()).collect(),
            writes: writes.iter().map(|s| s.to_string()).collect(),
        }
    }

    fn queued(id: u64, footprint: WorkflowIoPaths) -> QueuedWorkflow {
        QueuedWorkflow {
            id,
            key: String::new(),
            wf: CompiledWorkflow { jobs: Vec::new(), tmp_paths: Vec::new() },
            footprint,
            ticket: Arc::default(),
            enqueued: Instant::now(),
            attempt: 0,
            not_before: None,
            probe: false,
        }
    }

    #[test]
    fn disjoint_workflows_overlap() {
        let mut st = SchedulerState::default();
        st.inflight.push((1, fp(&["/in/a"], &["/out/a"])));
        st.queue.push_back(queued(2, fp(&["/in/b"], &["/out/b"])));
        assert_eq!(pick(&st, Instant::now(), |_| false), Some((0, false)));
    }

    #[test]
    fn read_of_inflight_write_blocks() {
        let mut st = SchedulerState::default();
        st.inflight.push((1, fp(&["/in/a"], &["/out/a"])));
        st.queue.push_back(queued(2, fp(&["/out/a"], &["/out/b"])));
        assert_eq!(pick(&st, Instant::now(), |_| false), None);
    }

    #[test]
    fn later_disjoint_workflow_jumps_blocked_head() {
        let mut st = SchedulerState::default();
        st.inflight.push((1, fp(&["/in/a"], &["/out/a"])));
        // Head conflicts with in-flight; the next entry is disjoint.
        st.queue.push_back(queued(2, fp(&["/out/a"], &["/out/b"])));
        st.queue.push_back(queued(3, fp(&["/in/c"], &["/out/c"])));
        assert_eq!(
            pick(&st, Instant::now(), |_| false),
            Some((1, false)),
            "a disjoint entry overtakes a blocked head"
        );
    }

    #[test]
    fn conflicting_queue_entries_keep_submission_order() {
        let mut st = SchedulerState::default();
        st.inflight.push((1, fp(&[], &["/out/a"])));
        // Entry 2 is blocked by in-flight; entry 3 writes what 2 reads,
        // so it must not overtake 2 even though it is disjoint from the
        // in-flight workflow.
        st.queue.push_back(queued(2, fp(&["/out/a"], &["/out/b"])));
        st.queue.push_back(queued(3, fp(&[], &["/out/b"])));
        assert_eq!(
            pick(&st, Instant::now(), |_| false),
            None,
            "order within a conflict group is preserved"
        );
    }

    #[test]
    fn empty_queue_picks_nothing() {
        let st = SchedulerState::default();
        assert_eq!(pick(&st, Instant::now(), |_| false), None);
    }

    #[test]
    fn barrier_orders_against_everything() {
        let is_barrier = |q: &QueuedWorkflow| q.id == 9;
        // Nothing outstanding: the barrier dispatches.
        let mut st = SchedulerState::default();
        st.queue.push_back(queued(9, fp(&[], &["/repo/x"])));
        st.queue.push_back(queued(2, fp(&[], &["/out/b"])));
        assert_eq!(pick(&st, Instant::now(), is_barrier), Some((0, true)));

        // Anything in flight — even with a disjoint footprint — holds
        // the barrier back, and nothing overtakes it.
        st.inflight.push((1, fp(&[], &["/out/elsewhere"])));
        assert_eq!(pick(&st, Instant::now(), is_barrier), None);
        st.inflight.clear();

        // An in-flight barrier freezes all dispatch.
        st.inflight_barriers = 1;
        assert_eq!(pick(&st, Instant::now(), |_| false), None);
    }
}
