//! Transaction identifiers and the active-transaction registry.
//!
//! The registry answers two questions the reorganizer needs (Sections 4.1
//! and 4.5): *is transaction T still active?* and *wait until these
//! transactions complete*. The latter implements both the pre-traversal wait
//! ("the reorganization process waits for all transactions that are active
//! at the time it started, to complete, before starting the fuzzy
//! traversal") and the relaxed-2PL wait on every transaction that ever
//! locked an object.
//!
//! The registry is split into `SLOTS` slots, one per thread slot
//! ([`thread_slot`]), and a [`TxnId`] carries the slot it was begun in, so
//! `begin`, `finish` and `is_active` touch one slot's cache lines and two
//! threads on different slots share no written word (DESIGN.md §10.3).

use crate::addr::FibState;
use crate::lockdep::{Condvar, LockClass, Mutex};
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Transaction identifier, unique for the lifetime of a database. One the
/// registry hands out is never `TxnId(0)` (the id of system records) and
/// carries its registry slot in its low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Thread slots: the registry's slots. A power of two, so a [`TxnId`]'s
/// slot is its low bits.
pub(crate) const SLOTS: usize = 8;
const _: () = assert!(SLOTS.is_power_of_two());

/// The next thread slot to hand out; threads take them round-robin.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot, `usize::MAX` until its first use.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot in `0..SLOTS`, fixed for the thread's life.
/// Threads take slots round-robin, so the first `SLOTS` threads to ask
/// have one each.
#[inline]
pub fn thread_slot() -> usize {
    SLOT.with(|s| {
        if s.get() == usize::MAX {
            // ordering: slot allocator; uniqueness only, nothing is published through it
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    })
}

/// One slot's transactions: the last sequence number handed out and the
/// set still active.
#[derive(Default)]
struct SlotTxns {
    seq: u64,
    active: HashSet<TxnId, FibState>,
}

/// A registry slot on cache lines of its own.
#[repr(align(128))]
struct Slot {
    txns: Mutex<SlotTxns>,
    cv: Condvar,
}

/// Registry of active transactions.
pub struct TxnManager {
    slots: [Slot; SLOTS],
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Create an empty registry.
    pub(crate) fn new() -> Self {
        TxnManager {
            // The slot index is the lockdep order key.
            slots: std::array::from_fn(|i| Slot {
                txns: Mutex::new(LockClass::TxnRegistry, i as u64, SlotTxns::default()),
                cv: Condvar::new(),
            }),
        }
    }

    fn slot_of(&self, tid: TxnId) -> &Slot {
        &self.slots[tid.0 as usize % SLOTS]
    }

    /// Allocate a fresh transaction id in the calling thread's slot and mark
    /// it active.
    pub(crate) fn begin(&self) -> TxnId {
        let slot = thread_slot();
        let mut txns = self.slots[slot].txns.lock();
        txns.seq += 1;
        let id = TxnId(txns.seq * SLOTS as u64 + slot as u64);
        txns.active.insert(id);
        id
    }

    /// Mark a transaction completed (committed or aborted) and wake waiters.
    pub(crate) fn finish(&self, tid: TxnId) {
        let slot = self.slot_of(tid);
        slot.txns.lock().active.remove(&tid);
        slot.cv.notify_all();
    }

    /// Whether the transaction is still active.
    pub fn is_active(&self, tid: TxnId) -> bool {
        self.slot_of(tid).txns.lock().active.contains(&tid)
    }

    /// Number of active transactions.
    pub(crate) fn active_count(&self) -> usize {
        self.slots.iter().map(|s| s.txns.lock().active.len()).sum()
    }

    /// Snapshot of the currently active transactions, slot by slot.
    pub fn active_snapshot(&self) -> Vec<TxnId> {
        let mut active = Vec::new();
        for slot in &self.slots {
            active.extend(slot.txns.lock().active.iter().copied());
        }
        active
    }

    /// Block until every transaction in `tids` has completed, or until
    /// `timeout` elapses. Returns whether all completed.
    pub fn wait_for_all(&self, tids: &[TxnId], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        tids.iter().all(|tid| {
            let slot = self.slot_of(*tid);
            let mut txns = slot.txns.lock();
            while txns.active.contains(tid) {
                let timed_out;
                (txns, timed_out) = slot.cv.wait_until(txns, deadline);
                if timed_out {
                    return !txns.active.contains(tid);
                }
            }
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn begin_finish_lifecycle() {
        let m = TxnManager::new();
        let t1 = m.begin();
        let t2 = m.begin();
        assert_ne!(t1, t2);
        assert!(m.is_active(t1));
        assert_eq!(m.active_count(), 2);
        m.finish(t1);
        assert!(!m.is_active(t1));
        assert!(m.is_active(t2));
    }

    #[test]
    fn wait_for_all_returns_immediately_when_done() {
        let m = TxnManager::new();
        let t = m.begin();
        m.finish(t);
        assert!(m.wait_for_all(&[t], Duration::from_millis(1)));
    }

    #[test]
    fn wait_for_all_times_out() {
        let m = TxnManager::new();
        let t = m.begin();
        assert!(!m.wait_for_all(&[t], Duration::from_millis(20)));
    }

    #[test]
    fn wait_for_all_wakes_on_finish() {
        let m = Arc::new(TxnManager::new());
        let t = m.begin();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.wait_for_all(&[t], Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        m.finish(t);
        assert!(h.join().unwrap());
    }

    #[test]
    fn concurrent_begins_get_distinct_nonzero_ids() {
        let m = TxnManager::new();
        let ids: Vec<TxnId> = thread::scope(|s| {
            let threads: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..10_000).map(|_| m.begin()).collect::<Vec<_>>()))
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().unwrap())
                .collect()
        });
        let distinct: HashSet<TxnId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 80_000);
        assert!(!distinct.contains(&TxnId(0)));
        assert_eq!(m.active_count(), 80_000);
        ids.iter().for_each(|&t| m.finish(t));
        assert_eq!(m.active_count(), 0);
    }

    /// Transactions begun on four threads, so in several slots: the wait
    /// times out while one is open and returns once the last one finishes.
    #[test]
    fn wait_for_all_spans_slots() {
        let m = Arc::new(TxnManager::new());
        let tids: Vec<TxnId> = (0..4)
            .map(|_| thread::scope(|s| s.spawn(|| m.begin()).join().unwrap()))
            .collect();
        let slots: HashSet<u64> = tids.iter().map(|t| t.0 % SLOTS as u64).collect();
        assert!(slots.len() > 1, "{tids:?} all in one slot");
        for &t in &tids[..3] {
            m.finish(t);
        }
        assert!(
            !m.wait_for_all(&tids, Duration::from_millis(20)),
            "one is still open"
        );
        let m2 = Arc::clone(&m);
        let waiter = {
            let tids = tids.clone();
            thread::spawn(move || m2.wait_for_all(&tids, Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "returned before the last transaction finished"
        );
        m.finish(tids[3]);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn active_snapshot_sees_other_threads() {
        let m = TxnManager::new();
        let t = thread::scope(|s| s.spawn(|| m.begin()).join().unwrap());
        assert!(m.active_snapshot().contains(&t));
        assert!(m.is_active(t));
        m.finish(t);
        assert!(m.active_snapshot().is_empty());
    }
}
