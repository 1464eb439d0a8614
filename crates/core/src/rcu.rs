//! A minimal RCU (read-copy-update) snapshot cell.
//!
//! [`Rcu<T>`] publishes immutable snapshots of `T` behind an atomic
//! pointer. Readers are **lock-free**: [`Rcu::load`] performs a handful
//! of atomic operations and never blocks on writers — there is no
//! reader lock to contend on and no writer critical section a reader
//! can sit behind (a reader retries only when a publish lands inside
//! its ~four-instruction registration window, so retries are bounded
//! by system-wide progress). Writers serialize among themselves on a
//! mutex, build the next snapshot off to the side, swap the pointer, and
//! reclaim the previous snapshot only after a **grace period** proves no
//! reader can still be dereferencing it.
//!
//! # Reclamation protocol
//!
//! The unsafe window is tiny but real: a reader loads the raw pointer
//! and then bumps the `Arc` strong count; if the writer dropped the old
//! `Arc` in between, the bump touches freed memory. The cell closes the
//! window with two epoch-parity reader counters:
//!
//! * readers: read `epoch`, register on `readers[epoch & 1]`, then
//!   **re-read `epoch` and retry if it moved** — only after the
//!   validated registration do they load the pointer, clone the `Arc`,
//!   and deregister;
//! * writers (serialized): swap the pointer to the new snapshot, flip
//!   the epoch, then spin until `readers[old parity]` drains to zero
//!   before dropping the old `Arc`.
//!
//! The validation step is what makes the argument airtight. A reader
//! whose re-read sees the epoch unchanged registered **before any flip
//! that could retire the pointer it is about to load**: to obtain a
//! pointer a writer retires, the reader's pointer load must precede
//! that writer's swap, which precedes its flip — and the reader's
//! registration precedes its validated re-read, which precedes the
//! flip, so the writer's drain waits for it. Without the re-read, a
//! reader stalled between reading the epoch and registering could
//! register on a stale parity *after* publish N drained it, then load
//! the pointer published by N — which publish N+1 retires and frees
//! while draining only the other parity: use-after-free. The epoch is
//! a monotonically increasing `u64` compared in full, so the re-read
//! cannot be fooled by parity wrap-around. Everything uses `SeqCst`;
//! the mutation rate (repository inserts/evicts, a few per executed
//! wave) is far too low for ordering relaxations to matter.
//!
//! Writers can stall while a preempted reader sits inside its ~five
//! instruction critical section — the classic RCU trade: mutations pay
//! so reads never do.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

/// Pad the parity counters to their own cache lines so readers on
/// different cores don't false-share with each other or the pointer.
#[repr(align(64))]
struct Padded(AtomicUsize);

/// Lock-free snapshot cell: lock-free `load`, serialized copy-on-write
/// `update`, grace-period reclamation.
pub struct Rcu<T> {
    /// `Arc::into_raw` of the current snapshot.
    ptr: AtomicPtr<T>,
    /// Grace-period epoch; low bit selects the active reader counter.
    epoch: AtomicU64,
    readers: [Padded; 2],
    /// Serializes writers (see [`Rcu::writer`]).
    writer: Mutex<()>,
}

impl<T> Rcu<T> {
    pub fn new(value: T) -> Self {
        Rcu {
            ptr: AtomicPtr::new(Arc::into_raw(Arc::new(value)) as *mut T),
            epoch: AtomicU64::new(0),
            readers: [Padded(AtomicUsize::new(0)), Padded(AtomicUsize::new(0))],
            writer: Mutex::new(()),
        }
    }

    /// The current snapshot. Lock-free (a reader retries only when a
    /// publish lands between its epoch read and its registration, so
    /// retries are bounded by writer progress); the returned `Arc`
    /// keeps the snapshot alive for as long as the caller holds it,
    /// unaffected by later updates.
    pub fn load(&self) -> Arc<T> {
        loop {
            let e = self.epoch.load(SeqCst);
            let slot = (e & 1) as usize;
            self.readers[slot].0.fetch_add(1, SeqCst);
            // Validate the registration: if the epoch moved, this slot
            // may already have been drained by a publish that retires
            // the pointer we would load — deregister and retry on the
            // fresh parity (see the module docs for why a stale
            // registration is unsound across *two* publishes).
            if self.epoch.load(SeqCst) != e {
                self.readers[slot].0.fetch_sub(1, SeqCst);
                continue;
            }
            let p = self.ptr.load(SeqCst);
            // SAFETY: `p` came from `Arc::into_raw` and cannot have been
            // reclaimed: any publish that retires `p` flips the epoch
            // after swapping it out, our validated registration precedes
            // that flip, and reclamation drains our slot first — so the
            // writer waits for the `fetch_sub` below.
            let snap = unsafe {
                Arc::increment_strong_count(p);
                Arc::from_raw(p)
            };
            self.readers[slot].0.fetch_sub(1, SeqCst);
            return snap;
        }
    }

    /// Number of snapshots ever published (0 for a freshly built cell).
    /// A hot path that is claimed to be write-free can assert this does
    /// not move.
    pub fn version(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Publish `next` as the current snapshot and reclaim the previous
    /// one after a grace period. Callers must hold the writer mutex.
    fn publish(&self, next: Arc<T>) {
        let old = self.ptr.swap(Arc::into_raw(next) as *mut T, SeqCst);
        let old_slot = (self.epoch.fetch_add(1, SeqCst) & 1) as usize;
        // Grace period: readers that might hold `old` without having
        // bumped its strong count yet are all accounted in the old
        // parity counter. Writers are rare; spin politely.
        let mut spins = 0u32;
        while self.readers[old_slot].0.load(SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: no reader can reach `old` anymore (the pointer was
        // swapped before the epoch flip, and the old-parity counter has
        // drained), so dropping the cell's strong reference is safe.
        // Readers that cloned it earlier still hold their own counts.
        unsafe { drop(Arc::from_raw(old)) };
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
        RcuWriter { cell: self, _guard: self.writer.lock() }
    }
}

/// An open writer section on an [`Rcu`] cell (see [`Rcu::writer`]).
/// While it lives, no other writer can publish to the cell and
/// [`Rcu::freeze`] blocks; readers are unaffected.
pub(crate) struct RcuWriter<'a, T> {
    cell: &'a Rcu<T>,
    _guard: MutexGuard<'a, ()>,
}

impl<T> RcuWriter<'_, T> {
    /// The snapshot current inside this writer section.
    pub(crate) fn current(&self) -> &T {
        // SAFETY: the pointer came from `Arc::into_raw`, and only
        // `Rcu::publish` retires it, under the writer mutex. This guard
        // holds that mutex, so no other writer can; and its own
        // `publish` takes `&mut self`, so it cannot run while the
        // borrow returned here is alive. No reader protocol is needed.
        unsafe { &*self.cell.ptr.load(SeqCst) }
    }

    /// Publish `next` as the cell's snapshot (grace-period reclamation
    /// of the previous one).
    pub(crate) fn publish(&mut self, next: T) {
        self.cell.publish(Arc::new(next));
    }
}

impl<T> Drop for Rcu<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; reclaim the cell's strong reference.
        unsafe { drop(Arc::from_raw(self.ptr.load(SeqCst))) };
    }
}

// SAFETY: the cell hands out `Arc<T>` across threads, so it needs the
// same bounds an `Arc` would; the raw pointer is only ever produced and
// reclaimed through `Arc`.
unsafe impl<T: Send + Sync> Send for Rcu<T> {}
unsafe impl<T: Send + Sync> Sync for Rcu<T> {}

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

    #[test]
    fn freeze_blocks_writers_but_not_readers() {
        let cell = Rcu::new(10u64);
        cell.freeze(|v| {
            assert_eq!(*v, 10);
            // Readers proceed while frozen.
            assert_eq!(*cell.load(), 10);
        });
        cell.update(|v| *v += 1);
        assert_eq!(*cell.load(), 11);
    }
}
