//! Service surface of the dead-letter queue: inspection and redrive.
//!
//! The queue itself lives in the driver (journal-durable; see
//! `restore_core::dlq`); workers park exhausted
//! submissions there when a tenant's policy says
//! [`FailureDisposition::Dlq`](restore_core::FailureDisposition::Dlq).
//! This module adds the operator workflow: list what's parked, and
//! re-drive it through the service's normal admission path.

use crate::ticket::SubmitHandle;
use crate::{RestoreService, ServiceError};
use restore_core::DlqEntry;

/// What one [`RestoreService::redrive`] pass accomplished.
#[derive(Debug)]
pub struct RedriveOutcome {
    /// Handles of re-admitted entries, oldest first; wait on them like
    /// fresh submissions.
    pub admitted: Vec<SubmitHandle>,
    /// The first entry that failed admission (its id and the admission
    /// error); it and everything after it stay parked. `None` when the
    /// whole queue was re-driven.
    pub stopped: Option<(u64, ServiceError)>,
}

impl RestoreService {
    /// The tenant's dead-letter queue, oldest first. Each entry carries
    /// the exact compiled workflow that failed, the attempts it
    /// consumed, and the final error.
    pub fn dlq_entries(&self, tenant: Option<&str>) -> Vec<DlqEntry> {
        self.driver().dlq_entries_as(tenant)
    }

    /// Depth of the tenant's dead-letter queue.
    pub fn dlq_depth(&self, tenant: Option<&str>) -> usize {
        self.driver().dlq_depth_as(tenant)
    }

    /// Re-drive the tenant's dead-letter queue through **normal
    /// admission**: each parked workflow is re-submitted with the exact
    /// compiled plans and temporaries that originally failed, so a
    /// redrive is byte-identical to a fresh submission of the same
    /// workflow — same queueing, same conflict scheduling, same failure
    /// policy if it fails again. An entry is acked (durably removed,
    /// journaled) only *after* its re-submission is admitted; on the
    /// first admission failure (queue full, tenant at cap, breaker
    /// open, shutdown) the pass stops and the rest stay parked — a
    /// redrive can never lose work.
    pub fn redrive(&self, tenant: Option<&str>) -> RedriveOutcome {
        let mut admitted = Vec::new();
        for entry in self.driver().dlq_entries_as(tenant) {
            match self.submit_workflow(tenant, entry.wf.clone()) {
                Ok(handle) => {
                    self.driver().dlq_ack_as(tenant, &[entry.id]);
                    self.shared.obs.dlq_redrives.inc();
                    admitted.push(handle);
                }
                Err(e) => return RedriveOutcome { admitted, stopped: Some((entry.id, e)) },
            }
        }
        RedriveOutcome { admitted, stopped: None }
    }
}
