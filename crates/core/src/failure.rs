//! Per-tenant failure policy: what the serving layer does when a
//! submission's execution fails.
//!
//! The policy is **configuration**, carried on [`ReStoreConfig`] like
//! every other per-tenant knob (heuristic, §5 selection):
//! a tenant's override travels through `set_config_as`, is serialized
//! in a base checkpoint and journaled in `tenant-config` records —
//! so a service restored from a checkpoint set enforces the same policy
//! the one before it did. The *enforcement machinery* (retry
//! scheduling, the circuit breaker) lives in the service layer; this
//! module only defines the knobs and the deterministic backoff
//! arithmetic both layers agree on. Whatever the disposition, a
//! submission that finally fails reports its error on its ticket;
//! nothing keeps the workflow after that.
//!
//! The default policy is [`FailureDisposition::FailFast`] with the
//! breaker disabled: a failed submission surfaces its error once,
//! exactly as earlier releases behaved — byte-identical results for
//! tenants that never opt in.
//!
//! [`ReStoreConfig`]: crate::ReStoreConfig

use std::time::Duration;

/// What to do with a submission whose execution attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureDisposition {
    /// Surface the error immediately, with no retries. The failure
    /// still counts toward the tenant's breaker window. This is the
    /// default — the exact behavior of earlier releases.
    FailFast,
    /// Retry up to [`FailurePolicy::max_retries`] times with
    /// exponential backoff; when retries are exhausted, surface the
    /// last error.
    Retry,
    /// Discard the failure: no retries, and the outcome does **not**
    /// feed the breaker window (a tenant explicitly declaring its
    /// traffic best-effort must not trip its own breaker). The error is
    /// still surfaced to the ticket — a waiter must always learn its
    /// submission's fate.
    Drop,
}

/// Per-tenant failure policy (see the module docs). Flat knobs so the
/// config codec serializes them like every other
/// configuration field, in fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePolicy {
    /// Disposition of a failed attempt.
    pub on_failure: FailureDisposition,
    /// Bounded retry budget for [`FailureDisposition::Retry`] (ignored
    /// by `FailFast` / `Drop`).
    pub max_retries: u32,
    /// First-retry delay, milliseconds.
    pub retry_backoff_base_ms: u64,
    /// Exponential growth factor between consecutive retries.
    pub retry_backoff_factor: f64,
    /// Upper bound on any single retry delay, milliseconds.
    pub retry_backoff_cap_ms: u64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter)` derived from
    /// the submission id, so retries de-correlate without a wall-clock
    /// RNG.
    pub retry_backoff_jitter: f64,
    /// Sliding window of recent attempt outcomes the breaker judges.
    pub failure_window: u32,
    /// Failures within the window that trip the breaker open.
    /// **0 disables the circuit breaker** (the default).
    pub failure_threshold: u32,
    /// How long an open breaker sheds before admitting half-open
    /// probes, milliseconds.
    pub breaker_cooldown_ms: u64,
    /// Probe budget while half-open: at most this many submissions are
    /// admitted concurrently to test the tenant's health.
    pub breaker_half_open_probes: u32,
    /// Probe successes that close the breaker again.
    pub breaker_success_threshold: u32,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        FailurePolicy {
            on_failure: FailureDisposition::FailFast,
            max_retries: 0,
            retry_backoff_base_ms: 25,
            retry_backoff_factor: 2.0,
            retry_backoff_cap_ms: 2_000,
            retry_backoff_jitter: 0.2,
            failure_window: 16,
            failure_threshold: 0,
            breaker_cooldown_ms: 1_000,
            breaker_half_open_probes: 2,
            breaker_success_threshold: 2,
        }
    }
}

impl FailurePolicy {
    /// Is the circuit breaker active for this tenant?
    pub fn breaker_enabled(&self) -> bool {
        self.failure_threshold > 0
    }

    /// May a failed attempt be re-executed under this policy?
    pub fn retries(&self) -> bool {
        self.on_failure == FailureDisposition::Retry && self.max_retries > 0
    }

    /// The delay before retry number `attempt` (1-based: the delay
    /// between the initial attempt and the first retry is
    /// `backoff_for(1, …)`). Exponential in `attempt`, capped, and
    /// jittered **deterministically** from `salt` (the submission id):
    /// no wall-clock randomness, so tests and replays see identical
    /// schedules.
    pub fn backoff_for(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(24);
        let raw = self.retry_backoff_base_ms as f64 * self.retry_backoff_factor.powi(exp as i32);
        let capped = raw.min(self.retry_backoff_cap_ms as f64);
        // The frame hash over (salt, attempt) → a unit fraction → a scale factor
        // in [1 - jitter, 1 + jitter).
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&salt.to_le_bytes());
        bytes[8..].copy_from_slice(&attempt.to_le_bytes());
        let unit = (crate::journal::frame_hash(&bytes) >> 11) as f64 / (1u64 << 53) as f64;
        let jitter = self.retry_backoff_jitter.clamp(0.0, 1.0);
        let scaled = capped * (1.0 - jitter + 2.0 * jitter * unit);
        Duration::from_micros((scaled * 1_000.0).max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_fail_fast_with_breaker_off() {
        let p = FailurePolicy::default();
        assert_eq!(p.on_failure, FailureDisposition::FailFast);
        assert_eq!(p.max_retries, 0);
        assert!(!p.breaker_enabled());
        assert!(!p.retries());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = FailurePolicy {
            retry_backoff_base_ms: 10,
            retry_backoff_factor: 2.0,
            retry_backoff_cap_ms: 50,
            retry_backoff_jitter: 0.0,
            ..Default::default()
        };
        assert_eq!(p.backoff_for(1, 7), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2, 7), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3, 7), Duration::from_millis(40));
        assert_eq!(p.backoff_for(4, 7), Duration::from_millis(50), "capped");
        assert_eq!(p.backoff_for(30, 7), Duration::from_millis(50), "huge attempts stay capped");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = FailurePolicy {
            retry_backoff_base_ms: 100,
            retry_backoff_jitter: 0.2,
            ..Default::default()
        };
        let a = p.backoff_for(1, 42);
        let b = p.backoff_for(1, 42);
        assert_eq!(a, b, "same (attempt, salt) → same delay");
        let lo = Duration::from_millis(80);
        let hi = Duration::from_millis(120);
        for salt in 0..64 {
            let d = p.backoff_for(1, salt);
            assert!(d >= lo && d <= hi, "delay {d:?} outside jitter band");
        }
        // Different salts actually de-correlate.
        assert!(
            (0..64).map(|s| p.backoff_for(1, s)).collect::<std::collections::HashSet<_>>().len()
                > 1
        );
    }
}
