//! Per-tenant failure enforcement: the sliding outcome window, the
//! three-state circuit breaker, and the fault-injection hook.
//!
//! The *knobs* live on the driver's config
//! ([`restore_core::FailurePolicy`], journaled like every per-tenant
//! setting); this module is the *machinery* the serving layer runs them
//! with. One [`TenantFailureState`] per tenant lives inside the
//! scheduler's state mutex — admission verdicts and outcome records are
//! already under that lock, so the breaker adds no locking of its own.
//! It lives nowhere else: the state is not journaled, so a restarted
//! service starts every breaker closed and re-trips it after
//! `failure_threshold` failures.
//!
//! ```text
//!            failures in window ≥ threshold
//!   Closed ────────────────────────────────► Open
//!     ▲                                        │ cooldown elapses
//!     │ probe successes ≥ success_threshold    ▼ (next submission
//!     └──────────────────────────── HalfOpen ◄── becomes a probe)
//!                                      │ any probe fails
//!                                      └──────────► Open (cooldown anew)
//! ```
//!
//! While **open**, submissions are shed with
//! [`ServiceError::CircuitOpen`](crate::ServiceError::CircuitOpen)
//! before they reach the queue — a flapping tenant costs one map lookup
//! per submission instead of a worker slot. While **half-open**, at
//! most [`breaker_half_open_probes`] submissions run concurrently as
//! probes; everything beyond the budget is shed until the probes
//! decide.
//!
//! [`breaker_half_open_probes`]: restore_core::FailurePolicy::breaker_half_open_probes

use restore_core::FailurePolicy;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Deterministic fault injection on the worker execution path (the
/// test/ops hook behind
/// [`RestoreService::set_fault_injector`](crate::RestoreService::set_fault_injector)).
///
/// Before each execution attempt the worker asks the injector whether
/// to fail it; `Some(reason)` fails the attempt with a `Job` error
/// carrying `reason` — *before* the driver runs, so the injected
/// failure never mutates repository or DFS state. Injection is keyed on
/// (tenant, submission id, attempt), which lets a test script exact
/// schedules: "fail tenant A's first two attempts, then heal".
pub trait FaultInjector: Send + Sync {
    /// Return `Some(reason)` to fail this attempt (`attempt` is 0-based:
    /// 0 is the initial execution, 1 the first retry, …).
    fn inject(&self, tenant: Option<&str>, submission: u64, attempt: u32) -> Option<String>;
}

/// The breaker's admission verdict for one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Admit; `probe == true` marks a half-open probe whose outcome
    /// decides the breaker's fate.
    Admit { probe: bool },
    /// Shed with `CircuitOpen` before queueing.
    Shed,
}

enum BreakerCore {
    Closed,
    Open { until: Instant },
    HalfOpen { inflight: u32, successes: u32 },
}

/// One tenant's failure-tracking state (kept inside the scheduler
/// mutex, keyed by tenant key; see the module docs).
pub(crate) struct TenantFailureState {
    /// Recent attempt outcomes, newest last (`true` = failure). Only
    /// maintained while closed — a trip clears it so the tenant
    /// re-earns a full window after recovery.
    outcomes: VecDeque<bool>,
    state: BreakerCore,
}

impl Default for TenantFailureState {
    fn default() -> Self {
        TenantFailureState { outcomes: VecDeque::new(), state: BreakerCore::Closed }
    }
}

impl TenantFailureState {
    /// Admission gate, called on the submit path under the scheduler
    /// lock. An open breaker whose cooldown has elapsed transitions to
    /// half-open here, admitting the caller as the first probe.
    pub(crate) fn admit(&mut self, policy: &FailurePolicy, now: Instant) -> Admission {
        if !policy.breaker_enabled() {
            return Admission::Admit { probe: false };
        }
        match self.state {
            BreakerCore::Closed => Admission::Admit { probe: false },
            BreakerCore::Open { until } => {
                if now >= until {
                    self.state = BreakerCore::HalfOpen { inflight: 1, successes: 0 };
                    Admission::Admit { probe: true }
                } else {
                    Admission::Shed
                }
            }
            BreakerCore::HalfOpen { inflight, successes } => {
                if inflight < policy.breaker_half_open_probes.max(1) {
                    self.state = BreakerCore::HalfOpen { inflight: inflight + 1, successes };
                    Admission::Admit { probe: true }
                } else {
                    Admission::Shed
                }
            }
        }
    }

    /// Record one attempt outcome (worker completion path, under the
    /// scheduler lock). Probe outcomes drive the half-open verdict;
    /// ordinary outcomes feed the closed window. Outcomes landing while
    /// open or half-open from non-probe submissions (admitted before
    /// the trip) are ignored — the probes alone decide recovery.
    pub(crate) fn record(
        &mut self,
        policy: &FailurePolicy,
        probe: bool,
        failed: bool,
        now: Instant,
    ) {
        if !policy.breaker_enabled() {
            self.outcomes.clear();
            self.state = BreakerCore::Closed;
            return;
        }
        if probe {
            if let BreakerCore::HalfOpen { inflight, successes } = self.state {
                if failed {
                    self.trip(policy, now);
                } else {
                    let successes = successes + 1;
                    if successes >= policy.breaker_success_threshold.max(1) {
                        self.state = BreakerCore::Closed;
                        self.outcomes.clear();
                    } else {
                        self.state = BreakerCore::HalfOpen {
                            inflight: inflight.saturating_sub(1),
                            successes,
                        };
                    }
                }
            }
            return;
        }
        if matches!(self.state, BreakerCore::Closed) {
            self.outcomes.push_back(failed);
            while self.outcomes.len() > policy.failure_window.max(1) as usize {
                self.outcomes.pop_front();
            }
            let failures = self.outcomes.iter().filter(|&&f| f).count() as u32;
            if failures >= policy.failure_threshold {
                self.trip(policy, now);
            }
        }
    }

    fn trip(&mut self, policy: &FailurePolicy, now: Instant) {
        self.state =
            BreakerCore::Open { until: now + Duration::from_millis(policy.breaker_cooldown_ms) };
        self.outcomes.clear();
    }

    /// The `restore_circuit_state` gauge value: 0 = closed, 1 = open,
    /// 2 = half-open. An open breaker reports 1 until a submission
    /// actually probes it — the state machine only advances on traffic.
    pub(crate) fn gauge(&self) -> f64 {
        match self.state {
            BreakerCore::Closed => 0.0,
            BreakerCore::Open { .. } => 1.0,
            BreakerCore::HalfOpen { .. } => 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> FailurePolicy {
        FailurePolicy {
            failure_window: 4,
            failure_threshold: 3,
            breaker_cooldown_ms: 50,
            breaker_half_open_probes: 2,
            breaker_success_threshold: 2,
            ..Default::default()
        }
    }

    #[test]
    fn disabled_breaker_always_admits() {
        let mut st = TenantFailureState::default();
        let p = FailurePolicy::default();
        assert!(!p.breaker_enabled());
        for _ in 0..100 {
            assert_eq!(st.admit(&p, Instant::now()), Admission::Admit { probe: false });
            st.record(&p, false, true, Instant::now());
        }
    }

    #[test]
    fn breaker_trips_at_threshold_and_sheds() {
        let mut st = TenantFailureState::default();
        let p = policy();
        let now = Instant::now();
        for i in 0..3 {
            assert_eq!(st.admit(&p, now), Admission::Admit { probe: false }, "attempt {i}");
            st.record(&p, false, true, now);
        }
        assert_eq!(st.gauge(), 1.0, "third failure in a window of 4 trips a threshold of 3");
        assert_eq!(st.admit(&p, now), Admission::Shed);
    }

    #[test]
    fn successes_keep_the_window_clean() {
        let mut st = TenantFailureState::default();
        let p = policy();
        let now = Instant::now();
        // Alternating success/failure never accumulates 3 failures in a
        // window of 4.
        for _ in 0..20 {
            st.record(&p, false, true, now);
            st.record(&p, false, false, now);
        }
        assert_eq!(st.gauge(), 0.0);
    }

    #[test]
    fn cooldown_elapses_into_half_open_probes() {
        let mut st = TenantFailureState::default();
        let p = policy();
        let t0 = Instant::now();
        for _ in 0..3 {
            st.record(&p, false, true, t0);
        }
        assert_eq!(st.admit(&p, t0), Admission::Shed, "still cooling down");
        let after = t0 + Duration::from_millis(60);
        assert_eq!(st.admit(&p, after), Admission::Admit { probe: true });
        assert_eq!(st.gauge(), 2.0);
        // Probe budget is 2: one more probe, then shed.
        assert_eq!(st.admit(&p, after), Admission::Admit { probe: true });
        assert_eq!(st.admit(&p, after), Admission::Shed, "probe budget exhausted");
    }

    #[test]
    fn probe_successes_close_probe_failure_reopens() {
        let p = policy();
        let t0 = Instant::now();
        let half_open = |t: Instant| {
            let mut st = TenantFailureState::default();
            for _ in 0..3 {
                st.record(&p, false, true, t0);
            }
            assert_eq!(st.admit(&p, t), Admission::Admit { probe: true });
            st
        };
        let after = t0 + Duration::from_millis(60);

        // Two probe successes (the success threshold) close the breaker.
        let mut st = half_open(after);
        st.record(&p, true, false, after);
        assert_eq!(st.gauge(), 2.0, "one success of two: still half-open");
        assert_eq!(st.admit(&p, after), Admission::Admit { probe: true });
        st.record(&p, true, false, after);
        assert_eq!(st.gauge(), 0.0, "success threshold reached: closed");
        assert_eq!(st.admit(&p, after), Admission::Admit { probe: false });

        // A probe failure re-opens with a fresh cooldown.
        let mut st = half_open(after);
        st.record(&p, true, true, after);
        assert_eq!(st.gauge(), 1.0);
        assert_eq!(st.admit(&p, after), Admission::Shed);
        assert_eq!(
            st.admit(&p, after + Duration::from_millis(60)),
            Admission::Admit { probe: true },
            "the fresh cooldown elapses into half-open again"
        );
    }
}
