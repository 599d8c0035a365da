//! Transaction identifiers and the active-transaction registry.
//!
//! The registry answers two questions the reorganizer needs (Sections 4.1
//! and 4.5): *is transaction T still active?* and *wait until these
//! transactions complete*. The latter implements both the pre-traversal wait
//! ("the reorganization process waits for all transactions that are active
//! at the time it started, to complete, before starting the fuzzy
//! traversal") and the relaxed-2PL wait on every transaction that ever
//! locked an object.

use crate::addr::FibState;
use crate::lockdep::{Condvar, LockClass, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Transaction identifier, unique for the lifetime of a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Registry of active transactions.
pub struct TxnManager {
    next: AtomicU64,
    active: Mutex<HashSet<TxnId, FibState>>,
    cv: Condvar,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Create an empty registry. Transaction ids start at 1.
    pub fn new() -> Self {
        TxnManager {
            next: AtomicU64::new(1),
            active: Mutex::new(LockClass::TxnRegistry, 0, HashSet::default()),
            cv: Condvar::new(),
        }
    }

    /// Allocate a fresh transaction id and mark it active.
    pub fn begin(&self) -> TxnId {
        // ordering: id allocator; uniqueness only, the registry lock orders the set
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.active.lock().insert(id);
        id
    }

    /// Mark a transaction completed (committed or aborted) and wake waiters.
    pub fn finish(&self, tid: TxnId) {
        self.active.lock().remove(&tid);
        self.cv.notify_all();
    }

    /// Whether the transaction is still active.
    pub fn is_active(&self, tid: TxnId) -> bool {
        self.active.lock().contains(&tid)
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    /// Snapshot of the currently active transactions.
    pub fn active_snapshot(&self) -> Vec<TxnId> {
        self.active.lock().iter().copied().collect()
    }

    /// Block until every transaction in `tids` has completed, or until
    /// `timeout` elapses. Returns whether all completed.
    pub fn wait_for_all(&self, tids: &[TxnId], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock();
        loop {
            if tids.iter().all(|t| !active.contains(t)) {
                return true;
            }
            if self.cv.wait_until(&mut active, deadline).timed_out() {
                return tids.iter().all(|t| !active.contains(t));
            }
        }
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
}
