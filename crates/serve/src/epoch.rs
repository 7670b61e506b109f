//! Epoch-swapped publication of immutable snapshots.
//!
//! The serving plane shares one [`EpochCell`] between a single publisher
//! (the rebuilder) and any number of readers (query shards). The cell
//! holds an `Arc<T>` plus a monotone epoch counter; publishing stores the
//! next snapshot and bumps the epoch. A reader takes the slot mutex once
//! per query batch, just long enough to clone the current `Arc`
//! ([`EpochCell::load`]); the batch then runs on that snapshot, so an
//! in-flight swap never stalls or perturbs it.
//!
//! The crates here forbid `unsafe`, so a brief mutex around an `Arc`
//! clone is the publication primitive: one acquisition per batch,
//! amortized over every request in it.

use std::sync::{Arc, Mutex};

/// A swappable slot publishing `Arc<T>` snapshots under a monotone epoch.
///
/// # Examples
///
/// ```
/// use ssor_serve::EpochCell;
/// use std::sync::Arc;
///
/// let cell = EpochCell::new(Arc::new("gen0"));
/// assert_eq!(*cell.load(), "gen0");
/// cell.publish(Arc::new("gen1"));
/// assert_eq!(*cell.load(), "gen1");
/// assert_eq!(cell.epoch(), 1);
/// ```
#[derive(Debug)]
pub struct EpochCell<T> {
    /// The published snapshot and the epoch it was published at, updated
    /// together under the lock so readers always pair them exactly.
    slot: Mutex<(Arc<T>, u64)>,
}

impl<T> EpochCell<T> {
    /// A cell initially publishing `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        EpochCell {
            slot: Mutex::new((initial, 0)),
        }
    }

    /// Locks the slot, recovering from poisoning. The slot's invariant
    /// (snapshot paired with its publish epoch) is written in a single
    /// assignment under the lock, so a panicked holder cannot leave it
    /// half-updated — the "poisoned" state is still coherent, and the
    /// serving plane must keep answering rather than cascade one
    /// publisher panic into every future query.
    fn lock_slot(&self) -> std::sync::MutexGuard<'_, (Arc<T>, u64)> {
        match self.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Publishes `next` as the current snapshot, returning the new epoch.
    /// The next [`EpochCell::load`] sees it; in-flight reads keep their
    /// previous `Arc` (snapshots are immutable, old generations stay
    /// valid until the last reader drops them).
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let mut slot = self.lock_slot();
        let e = slot.1 + 1;
        *slot = (next, e);
        e
    }

    /// The current epoch (0 until the first [`EpochCell::publish`]).
    pub fn epoch(&self) -> u64 {
        self.lock_slot().1
    }

    /// Clones the current snapshot.
    pub fn load(&self) -> Arc<T> {
        self.lock_slot().0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn publish_bumps_epoch_and_readers_follow() {
        let cell = EpochCell::new(Arc::new(10u64));
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.publish(Arc::new(11)), 1);
        assert_eq!(cell.publish(Arc::new(12)), 2);
        assert_eq!(*cell.load(), 12, "a load skips straight to newest");
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn old_snapshots_stay_valid_for_holding_readers() {
        let cell = EpochCell::new(Arc::new(vec![1, 2, 3]));
        let held = cell.load();
        cell.publish(Arc::new(vec![9]));
        assert_eq!(*held, vec![1, 2, 3], "swap never invalidates held Arcs");
        assert_eq!(*cell.load(), vec![9]);
    }

    #[test]
    fn concurrent_readers_see_monotone_epochs() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        // Snapshot payload equals its publish epoch here,
                        // so the payload stream must be monotone too, and
                        // the epoch can only have moved on since the load.
                        assert!(v >= last, "regressed from {last} to {v}");
                        assert!(cell.epoch() >= v, "epoch behind its payload");
                        last = v;
                    }
                });
            }
            for e in 1..=200u64 {
                assert_eq!(cell.publish(Arc::new(e)), e);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 200);
    }
}
