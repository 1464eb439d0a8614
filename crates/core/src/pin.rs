//! Refcounted pins on stored outputs, closing the match-then-evict race.
//!
//! A session matches a repository entry under the read lock, releases
//! every lock, and only later executes the rewritten job that Loads the
//! entry's output file. A concurrent session running a §5 eviction sweep
//! could delete that file in between, failing the job with
//! `FileNotFound`. Pins make the window safe: the matching session pins
//! the output path for the lifetime of its workflow, and the sweep
//! *defers* file deletion of pinned paths until the last pin drops. The
//! repository entry is still evicted immediately (no new matches), only
//! the file outlives it.
//!
//! Two refinements close sibling races:
//! * **preservation** — a path handed to a caller as `final_output` is
//!   marked preserved; a deferred deletion then orphans the file instead
//!   of deleting it under the reader, no matter which workflow's pin
//!   drops last;
//! * **under-lock deletion** — the deletion callback passed to
//!   [`PinSet::unpin`] runs while the pin mutex is held, so a concurrent
//!   re-registration (which calls [`PinSet::cancel_deferred`] under the
//!   same mutex) can never interleave between the decision to delete and
//!   the delete itself.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// Shared set of pinned output paths with deferred deletions.
#[derive(Debug, Default)]
pub struct PinSet {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// path → number of in-flight workflows holding it.
    counts: HashMap<String, usize>,
    /// Paths evicted while pinned; deleted when their last pin drops.
    deferred: HashSet<String>,
    /// Paths handed to callers as workflow results: never deleted by a
    /// deferred deletion (orphaned instead). Cleared by re-registration.
    preserved: HashSet<String>,
}

impl PinSet {
    /// Take one pin on `path`.
    pub fn pin(&self, path: &str) {
        *self.inner.lock().counts.entry(path.to_string()).or_insert(0) += 1;
    }

    /// Exempt `path` from deferred deletion: it was handed to a caller
    /// as a workflow result, so deleting it at pin release would yank
    /// the file out from under the reader. The exemption holds until
    /// the path is re-registered ([`PinSet::cancel_deferred`]).
    pub fn preserve(&self, path: &str) {
        let mut g = self.inner.lock();
        if !g.preserved.contains(path) {
            g.preserved.insert(path.to_string());
        }
    }

    /// Paths with a deletion deferred to their last unpin. Their files
    /// still exist right now, but are already condemned: a snapshot
    /// must not serialize them, or it would reference dangling paths
    /// the moment the in-flight workflows finish.
    pub fn deferred_paths(&self) -> Vec<String> {
        self.inner.lock().deferred.iter().cloned().collect()
    }

    /// Ask to delete `path`. If it is pinned, the deletion is deferred
    /// until the last pin drops and `true` is returned; otherwise the
    /// caller owns the deletion and `false` is returned.
    pub fn defer_delete(&self, path: &str) -> bool {
        let mut g = self.inner.lock();
        if g.counts.contains_key(path) {
            g.deferred.insert(path.to_string());
            true
        } else {
            false
        }
    }

    /// Cancel a pending deferred deletion: the path was re-registered
    /// (a new job stored fresh bytes there), so the file is live again
    /// and stale pins must no longer delete it.
    pub fn cancel_deferred(&self, path: &str) {
        let mut g = self.inner.lock();
        g.deferred.remove(path);
        g.preserved.remove(path);
    }

    /// Drop one pin of `path`. When this was the last pin, a deferred
    /// deletion is due, and the path is not preserved, `delete` runs —
    /// **while the pin mutex is held**, so no concurrent
    /// re-registration can slip between the decision and the deletion.
    /// `delete` must not call back into this `PinSet`.
    pub fn unpin(&self, path: &str, delete: impl FnOnce()) {
        let mut g = self.inner.lock();
        match g.counts.get_mut(path) {
            Some(c) if *c > 1 => {
                *c -= 1;
            }
            Some(_) => {
                g.counts.remove(path);
                if g.deferred.remove(path) && !g.preserved.contains(path) {
                    delete();
                }
            }
            None => {}
        }
    }
}

#[cfg(test)]
impl PinSet {
    /// Is any workflow currently pinning `path`?
    pub(crate) fn is_pinned(&self, path: &str) -> bool {
        self.inner.lock().counts.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn release(pins: &PinSet, path: &str) -> bool {
        let deleted = Cell::new(false);
        pins.unpin(path, || deleted.set(true));
        deleted.get()
    }

    #[test]
    fn unpinned_path_is_deleted_by_caller() {
        let pins = PinSet::default();
        assert!(!pins.defer_delete("/r/a"));
        assert!(!release(&pins, "/r/a"));
    }

    #[test]
    fn deferred_deletion_waits_for_last_pin() {
        let pins = PinSet::default();
        pins.pin("/r/a");
        pins.pin("/r/a");
        assert!(pins.is_pinned("/r/a"));
        assert!(pins.defer_delete("/r/a"));
        assert!(!release(&pins, "/r/a"), "one pin still outstanding");
        assert!(release(&pins, "/r/a"), "last pin releases the deferred deletion");
        assert!(!pins.is_pinned("/r/a"));
        // A later unpin of the same path is inert.
        assert!(!release(&pins, "/r/a"));
    }

    #[test]
    fn reregistration_cancels_deferred_deletion() {
        let pins = PinSet::default();
        pins.pin("/r/c");
        assert!(pins.defer_delete("/r/c"));
        // A new job re-registered /r/c: the old deferral must not
        // delete the fresh file when the stale pin drops.
        pins.cancel_deferred("/r/c");
        assert!(!release(&pins, "/r/c"), "cancelled deferral performs no deletion");
    }

    #[test]
    fn preserved_path_is_orphaned_not_deleted() {
        let pins = PinSet::default();
        // Two workflows pin; one hands the path to its caller.
        pins.pin("/r/d");
        pins.pin("/r/d");
        assert!(pins.defer_delete("/r/d"));
        pins.preserve("/r/d");
        assert!(!release(&pins, "/r/d"));
        // The *other* workflow's guard drops last: preservation is
        // shared state, so it too must not delete the file.
        assert!(!release(&pins, "/r/d"), "preservation binds every guard, not just the caller's");
    }

    #[test]
    fn pin_without_deferred_deletion_is_silent() {
        let pins = PinSet::default();
        pins.pin("/r/b");
        assert!(!release(&pins, "/r/b"));
        assert!(!pins.is_pinned("/r/b"));
    }
}
