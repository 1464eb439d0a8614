//! A minimal RCU (read-copy-update) snapshot cell.
//!
//! [`Rcu<T>`] publishes immutable snapshots of `T` as an `Arc<T>` behind
//! a reader-writer lock that is held for **one pointer copy** and
//! nothing else: [`Rcu::load`] takes it shared to clone the `Arc`, a
//! publish takes it exclusively to swap the `Arc`. Everything a writer
//! computes — the clone of the snapshot, the caller's mutation, the
//! caller's `after` — runs under a separate writer mutex and outside
//! that lock, so a reader never waits on a writer's closure; the most
//! it can sit behind is another thread's pointer copy.
//!
//! The retired snapshot is dropped after the exclusive guard is
//! released (and only when the last reader holding it lets go), so a
//! `T` whose `Drop` is slow, or itself reads the cell, stalls nobody.

use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Snapshot cell: `load` copies a pointer, `update` is a serialized
/// copy-on-write.
pub struct Rcu<T> {
    /// The current snapshot. Locked only to clone or swap the `Arc`.
    current: RwLock<Arc<T>>,
    /// Publishes so far.
    version: AtomicU64,
    /// Serializes writers (see [`Rcu::writer`]).
    writer: Mutex<()>,
}

impl<T> Rcu<T> {
    pub fn new(value: T) -> Self {
        Rcu {
            current: RwLock::new(Arc::new(value)),
            version: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot. Waits for no writer section; the returned
    /// `Arc` keeps the snapshot alive for as long as the caller holds
    /// it, unaffected by later updates.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Number of snapshots ever published (0 for a freshly built cell).
    /// A hot path that is claimed to be write-free can assert this does
    /// not move.
    pub fn version(&self) -> u64 {
        self.version.load(SeqCst)
    }

    /// Replace the snapshot wholesale.
    pub fn store(&self, value: T) {
        self.writer().publish(value);
    }

    /// Run `f` against a clone of the current snapshot and publish the
    /// result. Writers serialize; readers never notice.
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R
    where
        T: Clone,
    {
        self.update_then(f, |r| r)
    }

    /// Like [`Rcu::update`], but runs `after` once the new snapshot is
    /// **published** while **still holding the writer mutex**. Readers
    /// already see the update while `after` runs; other writers (and
    /// [`Rcu::freeze`]) wait until it returns. Eviction sweeps use this
    /// to delete files strictly after the entry removal is visible yet
    /// without opening a window a frozen state capture could fall into.
    pub fn update_then<A, B>(&self, f: impl FnOnce(&mut T) -> A, after: impl FnOnce(A) -> B) -> B
    where
        T: Clone,
    {
        let mut w = self.writer();
        let mut next = w.current().clone();
        let a = f(&mut next);
        w.publish(next);
        after(a)
    }

    /// Run `f` with the writer mutex held but **without** mutating: no
    /// update can be published while `f` runs. Consistent multi-table
    /// captures (e.g. `save_state`) use this to pin the snapshot *and*
    /// exclude concurrent sweeps for the duration of the capture.
    pub fn freeze<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(self.writer().current())
    }

    /// Enter this cell's writer section and hold it until the guard
    /// drops. [`Rcu::update_then`] always publishes; a caller that
    /// publishes only if its closure changed something (the
    /// repository's batch) works against [`RcuWriter::current`] and
    /// decides for itself whether to call [`RcuWriter::publish`].
    pub(crate) fn writer(&self) -> RcuWriter<'_, T> {
        let guard = self.writer.lock();
        // Nobody else can publish until `guard` drops, so what is read
        // here stays the cell's snapshot.
        RcuWriter { cell: self, current: self.load(), _guard: guard }
    }
}

/// An open writer section on an [`Rcu`] cell (see [`Rcu::writer`]).
/// While it lives, no other writer can publish to the cell and
/// [`Rcu::freeze`] blocks; readers are unaffected.
pub(crate) struct RcuWriter<'a, T> {
    cell: &'a Rcu<T>,
    /// The cell's snapshot: read at entry, replaced by `publish`.
    current: Arc<T>,
    _guard: MutexGuard<'a, ()>,
}

impl<T> RcuWriter<'_, T> {
    /// The snapshot current inside this writer section.
    pub(crate) fn current(&self) -> &T {
        &self.current
    }

    /// Publish `next` as the cell's snapshot.
    pub(crate) fn publish(&mut self, next: T) {
        self.current = Arc::new(next);
        let old = std::mem::replace(&mut *self.cell.current.write(), Arc::clone(&self.current));
        // The exclusive guard was a temporary of the statement above:
        // the retired snapshot is dropped with no lock on `current`.
        self.cell.version.fetch_add(1, SeqCst);
        drop(old);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Rcu<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rcu").field("current", &*self.load()).finish()
    }
}

impl<T: Default> Default for Rcu<T> {
    fn default() -> Self {
        Rcu::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_returns_published_value() {
        let cell = Rcu::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.update(|v| *v = 2);
        assert_eq!(*cell.load(), 2);
        cell.store(7);
        assert_eq!(*cell.load(), 7);
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn old_snapshot_outlives_update() {
        let cell = Rcu::new(vec![1, 2, 3]);
        let old = cell.load();
        cell.update(|v| v.push(4));
        assert_eq!(*old, vec![1, 2, 3], "held snapshot is immutable");
        assert_eq!(*cell.load(), vec![1, 2, 3, 4]);
    }

    /// Every snapshot the writers retire must be dropped exactly once,
    /// and none before its readers are done.
    #[test]
    fn reclamation_is_exact() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token(#[allow(dead_code)] u64);
        impl Clone for Token {
            fn clone(&self) -> Self {
                Token(self.0)
            }
        }
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, SeqCst);
            }
        }
        let cell = Rcu::new(Token(0));
        for i in 1..=100 {
            let held = cell.load();
            cell.update(|t| t.0 = i);
            drop(held);
        }
        drop(cell);
        // One Token exists per published snapshot (100 update clones)
        // plus the original: every one must be dropped exactly once.
        assert_eq!(DROPS.load(SeqCst), 101);
    }

    /// Readers hammering `load` while a writer churns updates: every
    /// observed snapshot is internally consistent (the two fields always
    /// agree), which fails loudly under use-after-free or torn reads.
    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        #[derive(Clone)]
        struct Pair {
            a: u64,
            b: u64,
        }
        let cell = Rcu::new(Pair { a: 0, b: 0 });
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut last = 0;
                    for _ in 0..20_000 {
                        let p = cell.load();
                        assert_eq!(p.a, p.b, "torn snapshot");
                        assert!(p.a >= last, "snapshots went backwards");
                        last = p.a;
                    }
                });
            }
            s.spawn(|| {
                for i in 1..=5_000 {
                    cell.update(|p| {
                        p.a = i;
                        p.b = i;
                    });
                }
            });
        });
        assert_eq!(cell.load().a, 5_000);
    }

    /// `load` from a second thread, or `None` if it is still waiting
    /// after two seconds. A second thread, because a lock wrongly held
    /// by the caller would otherwise hang the test instead of failing it.
    fn load_elsewhere<T: Send + Sync + 'static>(cell: &Arc<Rcu<T>>) -> Option<Arc<T>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let cell = Arc::clone(cell);
        std::thread::spawn(move || tx.send(cell.load()));
        rx.recv_timeout(std::time::Duration::from_secs(2)).ok()
    }

    /// A reader is never behind a writer section: not a frozen one, not
    /// a writer's mutation, not its `after`.
    #[test]
    fn freeze_blocks_writers_but_not_readers() {
        let cell = Arc::new(Rcu::new(10u64));
        cell.freeze(|v| {
            assert_eq!(*v, 10);
            // Readers proceed while frozen. (The other thread goes
            // first, here and below: were the cell locked, it times out
            // where this one would deadlock.)
            assert_eq!(load_elsewhere(&cell).as_deref(), Some(&10));
            assert_eq!(*cell.load(), 10);
        });
        cell.update_then(
            |v| {
                *v += 1;
                // Not published yet: readers still get the old snapshot.
                assert_eq!(load_elsewhere(&cell).as_deref(), Some(&10));
                assert_eq!(*cell.load(), 10);
            },
            |()| {
                assert_eq!(load_elsewhere(&cell).as_deref(), Some(&11));
                assert_eq!(*cell.load(), 11);
            },
        );
        assert_eq!(*cell.load(), 11);
    }

    /// A retired snapshot is dropped with the cell unlocked: its `Drop`
    /// can have another thread `load` the cell.
    #[test]
    fn retired_snapshot_is_dropped_outside_the_lock() {
        #[derive(Clone)]
        struct Probe {
            cell: std::sync::Weak<Rcu<Probe>>,
            blocked: Arc<AtomicUsize>,
        }
        impl Drop for Probe {
            fn drop(&mut self) {
                // `None` only when the cell itself is going away.
                if let Some(cell) = self.cell.upgrade() {
                    if load_elsewhere(&cell).is_none() {
                        self.blocked.fetch_add(1, SeqCst);
                    }
                }
            }
        }
        let blocked = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new_cyclic(|weak| {
            Rcu::new(Probe { cell: weak.clone(), blocked: Arc::clone(&blocked) })
        });
        cell.update(|_| ());
        let held = cell.load();
        cell.update(|_| ());
        // The reader's own drop of the last reference holds no lock either.
        drop(held);
        assert_eq!(blocked.load(SeqCst), 0, "a snapshot was dropped under the cell's lock");
    }
}
